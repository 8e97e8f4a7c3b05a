// Chaos replay conformance: kill a rank mid-workload and require the
// survivors to (a) unwedge with an error instead of hanging, (b) observe
// the death through the failure detector within its declaration window,
// and (c) after shrink(), re-run the shrunken-world trace and produce
// byte-for-byte the digest of a fault-free oracle run at that size —
// i.e. the fault changed *when* things happened, never *what* data moved.
//
// Every scenario runs under a ctest TIMEOUT (see CMakeLists.txt): a hang
// anywhere in the detect/propagate/shrink/re-run chain is a failure, not
// a stuck CI lane.
#include "workload/workload.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "testbed.h"

namespace oqs {
namespace {

using test::TestBed;
using namespace workload;

// Fault-free run of `trace` with timing-free digests: the oracle a
// post-shrink re-run must reproduce.
std::uint64_t oracle_digest(const Trace& trace, std::uint64_t seed) {
  TestBed bed;
  Report rep;
  ReplayOptions opt;
  opt.seed = seed;
  opt.digest_times = false;
  bed.run_mpi(trace.nranks(), [&](mpi::World& w) {
    replay_rank(w, w.comm(), trace, opt, &rep);
  });
  EXPECT_EQ(rep.verify_failures, 0u) << "oracle run must be clean";
  EXPECT_EQ(rep.ops_replayed, trace.total_ops());
  return rep.digest();
}

struct ChaosResult {
  Report faulted;  // first run, up to the kill/fault
  Report rerun;    // survivors' post-shrink re-run
  int killed = 0;
  int faulted_ranks = 0;
  int completed_ranks = 0;
};

// Kill rank `victim` right before its op `at_op`, let the survivors fault
// and revoke, then shrink and re-run `rerun_trace` (nranks - 1 ranks) on
// the survivor communicator.
ChaosResult run_chaos(const Trace& trace, const Trace& rerun_trace,
                      int victim, std::size_t at_op, std::uint64_t seed) {
  TestBed bed;
  bed.allow_drops = true;  // frames to the victim are dropped at its NIC
  ChaosResult res;
  const int np = trace.nranks();
  ReplayOptions opt;
  opt.seed = seed;
  opt.digest_times = false;
  opt.kills.push_back({victim, at_op});
  bed.run_mpi(np, [&, victim, np](mpi::World& w) {
    const int victim_gid = w.comm().gid_of(victim);
    const ReplayOutcome out =
        replay_rank(w, w.comm(), trace, opt, &res.faulted);
    if (out == ReplayOutcome::kKilled) {
      ++res.killed;
      return;  // dead: never touches the stack again
    }
    if (out == ReplayOutcome::kFault)
      ++res.faulted_ranks;
    else
      ++res.completed_ranks;
    // A rank whose op list drained before the fault reached it must not
    // shrink early: wait for the detector's declaration.
    while (!w.proc_dead(victim_gid))
      w.net().engine().sleep(w.net().params().heartbeat_interval_ns);
    // Survivors meet at the OOB registry — not an MPI barrier, which the
    // corpse would wedge. Every faulted rank revoked before arriving, so
    // after this point the revoke count is final and re-run requests can
    // never be collaterally aborted.
    w.env().rte->registry().barrier("chaos/shrink", np - 1);
    mpi::Communicator shrunk = w.comm().shrink();
    ASSERT_EQ(shrunk.size(), np - 1);
    ReplayOptions opt2;
    opt2.seed = seed;
    opt2.digest_times = false;
    EXPECT_EQ(replay_rank(w, shrunk, rerun_trace, opt2, &res.rerun),
              ReplayOutcome::kCompleted);
  });
  return res;
}

void expect_conformance(const ChaosResult& res, const Trace& rerun_trace,
                        std::uint64_t oracle, const std::string& label) {
  EXPECT_EQ(res.killed, 1) << label;
  // At least one survivor must have observed the failure as an error (the
  // others may have finished their op lists first), and nobody hung.
  EXPECT_GE(res.faulted_ranks, 1) << label;
  EXPECT_EQ(res.faulted_ranks + res.completed_ranks,
            rerun_trace.nranks()) << label;
  // The re-run is the conformance statement: clean verification and the
  // exact digest of the fault-free shrunken-world oracle.
  EXPECT_EQ(res.rerun.verify_failures, 0u) << label;
  EXPECT_EQ(res.rerun.ops_replayed, rerun_trace.total_ops()) << label;
  EXPECT_EQ(res.rerun.digest(), oracle) << label;
}

// Detection latency must stay inside the declaration window: silence-only
// declarations take failure_dead_misses heartbeats, corroborated ones
// (retransmission watchdog) less. One extra interval of slack covers
// monitor-timer granularity.
void expect_detection_bounded() {
  const ModelParams params;
  const auto& h = obs::metrics().histogram("rte.failure.detect_ns");
  ASSERT_GT(h.stats().count(), 0u) << "no detection was recorded";
  const double bound = static_cast<double>(
      static_cast<sim::Time>(params.failure_dead_misses + 1) *
      params.heartbeat_interval_ns);
  EXPECT_LE(h.stats().max(), bound);
}

TEST(Chaos, StencilRankKilledMidIterationSurvivorsConform) {
  StencilConfig cfg;
  cfg.px = 4;
  cfg.py = 2;
  cfg.iters = 4;
  cfg.halo_bytes = 4096;
  cfg.compute_ns = 10000;
  const Trace t = make_stencil(cfg);
  // Survivor world: 7 ranks refactor to a 7x1 torus.
  const Grid2 g = factor2(7);
  StencilConfig cfg2 = cfg;
  cfg2.px = g.px;
  cfg2.py = g.py;
  const Trace t2 = make_stencil(cfg2);

  const std::uint64_t oracle = oracle_digest(t2, 31);
  // Kill rank 3 mid-trace (past iteration one's halo exchanges).
  const ChaosResult res = run_chaos(t, t2, /*victim=*/3, /*at_op=*/7, 31);
  expect_conformance(res, t2, oracle, "stencil2d");
  expect_detection_bounded();
}

TEST(Chaos, TrainingRankKilledMidAllreduceCadenceSurvivorsConform) {
  TrainingConfig cfg;
  cfg.ranks = 8;
  cfg.steps = 4;
  cfg.grad_bytes = 16384;
  cfg.compute_ns = 20000;
  const Trace t = make_training(cfg);
  TrainingConfig cfg2 = cfg;
  cfg2.ranks = 7;
  const Trace t2 = make_training(cfg2);

  const std::uint64_t oracle = oracle_digest(t2, 47);
  // Op list per rank: bcast, then steps x (compute, allreduce). at_op 4
  // kills rank 2 right before step two's allreduce.
  const ChaosResult res = run_chaos(t, t2, /*victim=*/2, /*at_op=*/4, 47);
  expect_conformance(res, t2, oracle, "training");
  expect_detection_bounded();
}

TEST(Chaos, ShuffleRankKilledMidRoundSurvivorsConform) {
  ShuffleConfig cfg;
  cfg.ranks = 8;
  cfg.rounds = 3;
  cfg.bytes_per_pair = 4096;
  cfg.compute_ns = 5000;
  const Trace t = make_shuffle(cfg);
  ShuffleConfig cfg2 = cfg;
  cfg2.ranks = 7;
  const Trace t2 = make_shuffle(cfg2);

  const std::uint64_t oracle = oracle_digest(t2, 59);
  // Per-round op list is (compute, alltoall, barrier): at_op 4 kills rank
  // 5 right before round two's alltoall.
  const ChaosResult res = run_chaos(t, t2, /*victim=*/5, /*at_op=*/4, 59);
  expect_conformance(res, t2, oracle, "shuffle");
  expect_detection_bounded();
}

TEST(Chaos, ReplayJobsTranslatesWorldKillsAndQuiescesSurvivors) {
  // Two jobs share the fabric; the kill lands in job A's block. replay_jobs
  // must rebase the world-rank kill into job A, let job B's ranks finish or
  // fault (the revoke is machine-wide — a documented limitation), and
  // quiesce the survivors over the registry instead of an MPI barrier the
  // corpse would wedge. The assertion is liveness + exactly one kill.
  TestBed bed;
  bed.allow_drops = true;  // frames to the victim are dropped at its NIC
  StencilConfig scfg;
  scfg.px = 2;
  scfg.py = 2;
  scfg.iters = 3;
  scfg.halo_bytes = 4096;
  const Trace a = make_stencil(scfg);
  const Trace b =
      make_shuffle({.ranks = 4, .rounds = 2, .bytes_per_pair = 2048});
  std::vector<Report> reports;
  int returned = 0;
  bed.run_mpi(8, [&](mpi::World& w) {
    ReplayOptions opt;
    opt.seed = 13;
    opt.kills.push_back({/*world rank*/ 1, /*at_op*/ 3});
    replay_jobs(w, {&a, &b}, opt, &reports);
    ++returned;
  });
  // All eight fibers returned — the dead one straight away, the seven
  // survivors through the registry quiesce.
  EXPECT_EQ(returned, 8);
  ASSERT_EQ(reports.size(), 2u);
  // Job B's block was untouched by the kill translation: its ranks replayed
  // ops (whether or not a collateral revoke cut the run short).
  EXPECT_GT(reports[1].ops_replayed, 0u);
}

}  // namespace
}  // namespace oqs
