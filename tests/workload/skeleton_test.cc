// Skeleton conformance suite: every synthetic skeleton's data movement is
// checked against a per-rank oracle — the trace structure against
// independently recomputed neighbor/cadence math, and every landed byte
// against the replay engine's payload oracle (verify_failures == 0 means
// halo cells came from the prescribed neighbor, allreduce matched the
// serial reduction, the shuffle permutation completed). Swept over
// np {4, 8, 16} x rails {1, 2}, plus same-seed replay-digest determinism
// and a slow-labelled fault soak (WorkloadSoak.*, 10% loss).
#include "workload/workload.h"

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "testbed.h"

namespace oqs {
namespace {

using test::TestBed;
using namespace workload;

struct Case {
  int np;
  int rails;
};

class Skeleton : public ::testing::TestWithParam<Case> {
 protected:
  // Run `trace` as the whole job on a fresh paper testbed (8 nodes; >8
  // ranks fold 2 per node, like the scale bench).
  Report run(const Trace& trace, int rails, std::uint64_t seed = 7) {
    TestBed bed(8, rails);
    Report rep;
    ReplayOptions opt;
    opt.seed = seed;
    bed.run_mpi(trace.nranks(), [&](mpi::World& w) {
      replay_rank(w, w.comm(), trace, opt, &rep);
    });
    return rep;
  }
};

TEST_P(Skeleton, Stencil2DHalosLandWhereTheStencilSays) {
  const auto [np, rails] = GetParam();
  const Grid2 g = factor2(np);
  StencilConfig cfg;
  cfg.px = g.px;
  cfg.py = g.py;
  cfg.iters = 3;
  cfg.halo_bytes = 4096;
  cfg.compute_ns = 10000;
  const Trace t = make_stencil(cfg);
  ASSERT_EQ(t.nranks(), np);

  // Per-rank oracle, recomputed independently: on a periodic px x py
  // torus, rank (x, y) must ship one halo per iteration toward each
  // neighbor along every axis of extent >= 2, and receive from the
  // opposite one.
  const int ndirs = (g.px > 1 ? 2 : 0) + (g.py > 1 ? 2 : 0);
  for (int r = 0; r < np; ++r) {
    const int x = r % g.px;
    const int y = r / g.px;
    std::vector<Op> comm_ops;
    for (const Op& op : t.ranks[static_cast<std::size_t>(r)])
      if (op.kind != OpKind::kCompute) comm_ops.push_back(op);
    ASSERT_EQ(comm_ops.size(), static_cast<std::size_t>(cfg.iters * ndirs));
    for (const Op& op : comm_ops) {
      ASSERT_EQ(op.kind, OpKind::kSendRecv);
      EXPECT_EQ(op.bytes, cfg.halo_bytes);
      EXPECT_EQ(op.bytes2, cfg.halo_bytes);
      const int dir = op.tag % 6;
      const int dx = dir == 0 ? 1 : dir == 1 ? -1 : 0;
      const int dy = dir == 2 ? 1 : dir == 3 ? -1 : 0;
      ASSERT_LT(dir, 4) << "2D stencil emitted a z-axis shift";
      auto wrap = [](int v, int m) { return (v % m + m) % m; };
      EXPECT_EQ(op.peer, wrap(y + dy, g.py) * g.px + wrap(x + dx, g.px));
      EXPECT_EQ(op.peer2, wrap(y - dy, g.py) * g.px + wrap(x - dx, g.px));
    }
  }

  const Report rep = run(t, rails);
  EXPECT_EQ(rep.verify_failures, 0u);
  EXPECT_EQ(rep.ops_replayed, t.total_ops());
  EXPECT_EQ(rep.bytes_moved,
            static_cast<std::uint64_t>(np) * cfg.iters * ndirs * cfg.halo_bytes);
  EXPECT_GT(rep.goodput_mbps(), 0.0);
}

TEST_P(Skeleton, Stencil3DSixNeighborExchangeConforms) {
  const auto [np, rails] = GetParam();
  const Grid3 g = factor3(np);
  StencilConfig cfg;
  cfg.px = g.px;
  cfg.py = g.py;
  cfg.pz = g.pz;
  cfg.iters = 2;
  cfg.halo_bytes = 2048;
  cfg.compute_ns = 5000;
  const Trace t = make_stencil(cfg);
  ASSERT_EQ(t.nranks(), np);

  const int ndirs =
      (g.px > 1 ? 2 : 0) + (g.py > 1 ? 2 : 0) + (g.pz > 1 ? 2 : 0);
  // Oracle: every rank's per-iteration receive sources, recomputed from
  // coordinates, must equal the trace's sendrecv sources exactly.
  for (int r = 0; r < np; ++r) {
    const int x = r % g.px;
    const int y = (r / g.px) % g.py;
    const int z = r / (g.px * g.py);
    std::vector<Op> comm_ops;
    for (const Op& op : t.ranks[static_cast<std::size_t>(r)])
      if (op.kind != OpKind::kCompute) comm_ops.push_back(op);
    ASSERT_EQ(comm_ops.size(), static_cast<std::size_t>(cfg.iters * ndirs));
    auto wrap = [](int v, int m) { return (v % m + m) % m; };
    for (const Op& op : comm_ops) {
      const int dir = op.tag % 6;
      const int d[3] = {dir == 0 ? 1 : dir == 1 ? -1 : 0,
                        dir == 2 ? 1 : dir == 3 ? -1 : 0,
                        dir == 4 ? 1 : dir == 5 ? -1 : 0};
      const int src = (wrap(z - d[2], g.pz) * g.py + wrap(y - d[1], g.py)) *
                          g.px + wrap(x - d[0], g.px);
      EXPECT_EQ(op.peer2, src);
    }
  }

  const Report rep = run(t, rails);
  EXPECT_EQ(rep.verify_failures, 0u);
  EXPECT_EQ(rep.bytes_moved,
            static_cast<std::uint64_t>(np) * cfg.iters * ndirs * cfg.halo_bytes);
}

TEST_P(Skeleton, TrainingAllreduceMatchesSerialReduction) {
  const auto [np, rails] = GetParam();
  TrainingConfig cfg;
  cfg.ranks = np;
  cfg.steps = 3;
  cfg.grad_bytes = 16384;
  cfg.compute_ns = 20000;
  const Trace t = make_training(cfg);

  // Cadence oracle: bcast, then steps x (compute, allreduce), per rank.
  for (int r = 0; r < np; ++r) {
    const auto& ops = t.ranks[static_cast<std::size_t>(r)];
    ASSERT_EQ(ops.size(), static_cast<std::size_t>(1 + 2 * cfg.steps));
    EXPECT_EQ(ops[0].kind, OpKind::kBcast);
    for (int s = 0; s < cfg.steps; ++s) {
      EXPECT_EQ(ops[1 + 2 * s].kind, OpKind::kCompute);
      EXPECT_EQ(ops[2 + 2 * s].kind, OpKind::kAllreduce);
      EXPECT_EQ(ops[2 + 2 * s].bytes, cfg.grad_bytes);
    }
  }

  // The replay oracle checks every allreduce element against the closed
  // form of the serial reduction; any algorithm drift shows up here.
  const Report rep = run(t, rails);
  EXPECT_EQ(rep.verify_failures, 0u);
  const std::uint64_t expect_bytes =
      static_cast<std::uint64_t>(np) * cfg.steps * cfg.grad_bytes +  // allreduce
      static_cast<std::uint64_t>(np - 1) * cfg.grad_bytes;           // bcast
  EXPECT_EQ(rep.bytes_moved, expect_bytes);
}

TEST_P(Skeleton, ShufflePermutationCompletes) {
  const auto [np, rails] = GetParam();
  ShuffleConfig cfg;
  cfg.ranks = np;
  cfg.rounds = 2;
  cfg.bytes_per_pair = 2048;
  const Trace t = make_shuffle(cfg);

  for (int r = 0; r < np; ++r) {
    int a2a = 0;
    for (const Op& op : t.ranks[static_cast<std::size_t>(r)])
      if (op.kind == OpKind::kAlltoall) ++a2a;
    ASSERT_EQ(a2a, cfg.rounds);
  }

  // Zero verify failures == every (src, dst, round) block landed in the
  // right slot of the right rank: the permutation is complete.
  const Report rep = run(t, rails);
  EXPECT_EQ(rep.verify_failures, 0u);
  EXPECT_EQ(rep.bytes_moved, static_cast<std::uint64_t>(np) * cfg.rounds *
                                 (np - 1) * cfg.bytes_per_pair);
}

TEST_P(Skeleton, SameSeedReplayDigestIsDeterministic) {
  const auto [np, rails] = GetParam();
  const Grid2 g = factor2(np);
  StencilConfig cfg;
  cfg.px = g.px;
  cfg.py = g.py;
  cfg.iters = 2;
  cfg.halo_bytes = 4096;
  const Trace t = make_stencil(cfg);

  const Report a = run(t, rails, /*seed=*/21);
  const Report b = run(t, rails, /*seed=*/21);
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_EQ(a.bytes_moved, b.bytes_moved);
  EXPECT_EQ(a.makespan_ns(), b.makespan_ns());
  // Per-rank fingerprints match stream-for-stream, not just in aggregate.
  ASSERT_EQ(a.rank_digests.size(), b.rank_digests.size());
  for (std::size_t i = 0; i < a.rank_digests.size(); ++i)
    EXPECT_EQ(a.rank_digests[i], b.rank_digests[i]) << "rank " << i;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Skeleton,
    ::testing::Values(Case{4, 1}, Case{4, 2}, Case{8, 1}, Case{8, 2},
                      Case{16, 1}, Case{16, 2}),
    [](const ::testing::TestParamInfo<Case>& info) {
      return "np" + std::to_string(info.param.np) + "rails" +
             std::to_string(info.param.rails);
    });

TEST(Interference, TwoJobsShareTheFabricAndBothConform) {
  // Job A (2x2 stencil) and job B (4-rank shuffle) on one testbed: the
  // mixed scenario must leave both jobs' oracles intact and actually
  // overlap in simulated time.
  TestBed bed;
  StencilConfig scfg;
  scfg.px = 2;
  scfg.py = 2;
  scfg.iters = 4;
  scfg.halo_bytes = 8192;
  const Trace a = make_stencil(scfg);
  const Trace b = make_shuffle({.ranks = 4, .rounds = 3, .bytes_per_pair = 4096});
  std::vector<Report> reports;
  std::vector<int> job_of(8, -1);
  bed.run_mpi(8, [&](mpi::World& w) {
    ReplayOptions opt;
    opt.seed = 11;
    const int job = replay_jobs(w, {&a, &b}, opt, &reports);
    job_of[static_cast<std::size_t>(w.rank())] = job;
  });

  ASSERT_EQ(reports.size(), 2u);
  for (const Report& rep : reports) {
    EXPECT_EQ(rep.verify_failures, 0u);
    EXPECT_GT(rep.bytes_moved, 0u);
    EXPECT_GT(rep.goodput_mbps(), 0.0);
  }
  // Ranks 0..3 ran the stencil, 4..7 the shuffle.
  for (int r = 0; r < 8; ++r) EXPECT_EQ(job_of[static_cast<std::size_t>(r)], r / 4);
  // Interference means concurrency: the two jobs' spans overlap.
  EXPECT_LT(reports[0].t_begin, reports[1].t_end);
  EXPECT_LT(reports[1].t_begin, reports[0].t_end);
}

// Fault soak, slow-labelled (its own ctest entry runs WorkloadSoak.*):
// 10% wire loss plus duplication/delay/corruption, and every skeleton must
// still complete with its oracle intact — the go-back-N and per-fragment
// CRC re-pull machinery, not the workload, absorbs the faults.
TEST(WorkloadSoak, SkeletonsSurviveTenPercentLossIntact) {
  struct JobCase {
    const char* label;
    Trace trace;
  };
  StencilConfig s2;
  s2.px = 4;
  s2.py = 2;
  s2.iters = 3;
  s2.halo_bytes = 4096;
  StencilConfig s3 = s2;
  s3.px = s3.py = s3.pz = 2;
  const JobCase jobs[] = {
      {"stencil2d", make_stencil(s2)},
      {"stencil3d", make_stencil(s3)},
      {"train", make_training({.ranks = 8, .steps = 3, .grad_bytes = 8192})},
      {"shuffle", make_shuffle({.ranks = 8, .rounds = 2, .bytes_per_pair = 2048})},
  };
  for (const auto& [label, trace] : jobs) {
    for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
      TestBed bed;
      net::FaultProfile profile;
      profile.drop = 0.10;
      profile.duplicate = 0.02;
      profile.delay = 0.02;
      profile.corrupt = 0.01;
      bed.net->set_faults(profile, seed);
      Report rep;
      ReplayOptions opt;
      opt.seed = seed;
      // Wire loss is only recoverable with the go-back-N stream armed;
      // without it a dropped frame is gone forever and the replay wedges.
      mpi::Options mpi_opt;
      mpi_opt.elan4.reliability = true;
      bed.run_mpi(trace.nranks(), [&](mpi::World& w) {
        replay_rank(w, w.comm(), trace, opt, &rep);
      }, mpi_opt);
      EXPECT_EQ(rep.verify_failures, 0u) << label << " seed " << seed;
      EXPECT_EQ(rep.ops_replayed, trace.total_ops()) << label << " seed " << seed;
      EXPECT_GT(bed.net->faults()->drops(), 0u) << label << " seed " << seed;
    }
  }
}

}  // namespace
}  // namespace oqs
