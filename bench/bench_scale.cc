// Extension benchmark — DES kernel scaling sweep.
//
// The paper's testbed is 8 nodes; the reason to rebuild the kernel (pooled
// event nodes in a 4-ary heap, pooled fiber stacks, parked idle waits, lazy
// link occupancy) is to ask the paper's protocol
// questions at the rank counts the fat-tree generation actually shipped at.
// This bench sweeps a fixed communication workload — a ring exchange of
// rendezvous-sized messages plus an allreduce and a barrier per round, 2
// ranks per node on a quaternary fat tree — from 64 to 1024 ranks and
// reports the only number the kernel itself owns: wall-clock events per
// second. The setup columns split off the part of the run until every rank
// has left its first barrier (wire-up and the collective-state builds);
// the teardown columns the part from the first rank entering finalize
// (goodbyes and the engine drain).
//
//   bench_scale [--json=BENCH_scale.json]  also emit the rows as JSON
//   bench_scale --max-ranks=64             trim the sweep (CI smoke)
//   bench_scale --max-ranks=2048           extend it (not in the default
//                                          sweep: ~2.2 GB peak RSS)
#include "common.h"

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

namespace {

using namespace oqs;
using namespace oqs::bench;

struct Row {
  int ranks = 0;
  std::uint64_t events = 0;
  double wall_s = 0;
  double events_per_s = 0;
  double sim_ms = 0;  // simulated time covered, for scale
  // Until every rank has left its first barrier: wire-up, round 0's
  // exchange and allreduce, and the collective-state builds behind them.
  std::uint64_t setup_events = 0;
  double setup_wall_s = 0;
  // From the first rank entering finalize to the end of the run.
  std::uint64_t teardown_events = 0;
  double teardown_wall_s = 0;
  // QDMAs every NIC dropped over the run: for an unknown queue, a dead
  // event or a dead context.
  std::uint64_t qdma_drops = 0;
};

// One complete simulation at `np` ranks (np/2 nodes): 4 rounds of a ring
// exchange (64 KiB rendezvous messages), each round closed with an 8-byte
// allreduce and a barrier.
Row measure(int np) {
  Bed bed(np / 2, 1);

  constexpr std::size_t kMsgBytes = 64 * 1024;
  constexpr int kRounds = 4;
  std::chrono::steady_clock::time_point t0;  // set when the engine starts
  std::chrono::steady_clock::time_point teardown_t0;
  std::uint64_t teardown_from = 0;  // events dispatched before teardown
  Row row;
  int left_first_barrier = 0;
  int finished = 0;
  auto body = [&](mpi::World& w) {
    auto& c = w.comm();
    const int next = (c.rank() + 1) % c.size();
    const int prev = (c.rank() + c.size() - 1) % c.size();
    std::vector<std::uint8_t> out(kMsgBytes, 0x42);
    std::vector<std::uint8_t> in(kMsgBytes);
    double sum_in = c.rank(), sum_out = 0;
    for (int round = 0; round < kRounds; ++round) {
      auto s = c.isend(out.data(), kMsgBytes, dtype::byte_type(), next, round);
      auto r = c.irecv(in.data(), kMsgBytes, dtype::byte_type(), prev, round);
      s.wait();
      r.wait();
      c.allreduce_sum(&sum_in, &sum_out, 1);
      c.barrier();
      if (round == 0 && ++left_first_barrier == np) {
        row.setup_events = bed.engine.events_executed();
        row.setup_wall_s = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
      }
    }
    if (++finished == 1) {  // the World's destructor finalizes next
      teardown_from = bed.engine.events_executed();
      teardown_t0 = std::chrono::steady_clock::now();
    }
  };
  auto shared = std::make_shared<decltype(body)>(std::move(body));
  bed.rt->launch(np, [&bed, shared](rte::Env& env) {
    mpi::World w(env, *bed.net);
    (*shared)(w);
  });

  t0 = std::chrono::steady_clock::now();
  const sim::Time end = bed.engine.run();
  const auto t1 = std::chrono::steady_clock::now();
  const std::chrono::duration<double> wall = t1 - t0;

  row.ranks = np;
  row.events = bed.engine.events_executed();
  row.wall_s = wall.count();
  row.events_per_s =
      row.wall_s > 0 ? static_cast<double>(row.events) / row.wall_s : 0;
  row.sim_ms = sim::to_us(end) / 1000.0;
  row.teardown_events = row.events - teardown_from;
  row.teardown_wall_s =
      std::chrono::duration<double>(t1 - teardown_t0).count();
  for (int n = 0; n < bed.net->num_nodes(); ++n)
    for (int r = 0; r < bed.net->num_rails(); ++r)
      row.qdma_drops += bed.net->nic(n, r).rx_drops();
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  oqs::bench::TraceSession trace_session(argc, argv);
  oqs::bench::JsonRows rows(argc, argv);
  int max_ranks = 1024;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--max-ranks=", 0) == 0)
      max_ranks = std::atoi(arg.c_str() + sizeof("--max-ranks=") - 1);
  }

  std::vector<int> nps;
  for (int np : {64, 128, 256, 512, 1024, 2048})
    if (np <= max_ranks) nps.push_back(np);

  std::printf("DES kernel scaling, 2 ranks/node\n");
  std::printf("%-8s %-8s %14s %10s %14s %10s %14s %12s %15s %15s %10s\n",
              "ranks", "nodes", "events", "wall_s", "events/s", "sim_ms",
              "setup_events", "setup_wall_s", "teardown_events",
              "teardown_wall_s", "qdma_drops");

  for (int np : nps) {
    const Row r = measure(np);
    std::printf(
        "%-8d %-8d %14llu %10.3f %14.0f %10.2f %14llu %12.3f %15llu %15.3f "
        "%10llu\n",
        r.ranks, np / 2, static_cast<unsigned long long>(r.events), r.wall_s,
        r.events_per_s, r.sim_ms,
        static_cast<unsigned long long>(r.setup_events), r.setup_wall_s,
        static_cast<unsigned long long>(r.teardown_events), r.teardown_wall_s,
        static_cast<unsigned long long>(r.qdma_drops));
    std::fflush(stdout);
    rows.add("{\"ranks\": %d, \"nodes\": %d, "
             "\"events\": %llu, \"wall_s\": %.4f, "
             "\"events_per_sec\": %.0f, \"sim_ms\": %.3f, "
             "\"setup_events\": %llu, \"setup_wall_s\": %.4f, "
             "\"teardown_events\": %llu, \"teardown_wall_s\": %.4f, "
             "\"qdma_drops\": %llu}",
             r.ranks, np / 2,
             static_cast<unsigned long long>(r.events), r.wall_s,
             r.events_per_s, r.sim_ms,
             static_cast<unsigned long long>(r.setup_events), r.setup_wall_s,
             static_cast<unsigned long long>(r.teardown_events),
             r.teardown_wall_s, static_cast<unsigned long long>(r.qdma_drops));
  }
  std::printf(
      "\nExpected: events per run grow 2.3-2.8x per doubling of ranks. "
      "Parked idle waits replay their poll steps without dispatching them, "
      "both ranks of a node included, so the events left are protocol "
      "work, resumed waits and the init modex, one registry round trip per "
      "peer on every rank (n^2 in all); a peer is wired only on first "
      "contact, and the collective-state allgathers take ceil(log2 n) "
      "steps. setup_events and setup_wall_s cover the run until every rank "
      "has left its first barrier; teardown_events and teardown_wall_s "
      "cover it from the first rank entering finalize (goodbyes to the "
      "O(log n) peers each rank contacted). qdma_drops sums every NIC's "
      "dropped QDMAs at the end of the run. events/s counts "
      "dispatched events only; replaying parked steps takes wall time too, "
      "but no events.\n");

  return rows.write() ? 0 : 1;
}
