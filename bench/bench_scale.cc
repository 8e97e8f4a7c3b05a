// Extension benchmark — DES kernel scaling sweep.
//
// The paper's testbed is 8 nodes; the reason to rebuild the kernel (calendar
// event queue, pooled event nodes, pooled fiber stacks, lazy link occupancy,
// fluid bulk transfers) is to ask the paper's protocol questions at the rank
// counts the fat-tree generation actually shipped at. This bench sweeps a
// fixed communication workload — a ring exchange of rendezvous-sized
// messages plus an allreduce and a barrier per round, 2 ranks per node on a
// quaternary fat tree — from 64 to 1024 ranks and reports the only number
// the kernel itself owns: wall-clock events per second. The setup columns
// split off the part of the run until every rank has left its first
// barrier (wire-up and the collective-state builds).
//
//   bench_scale [--json=BENCH_scale.json]  also emit the rows as JSON
//   bench_scale --max-ranks=64             trim the sweep (CI smoke)
//   bench_scale --max-ranks=2048           extend it (not in the default
//                                          sweep: ~2.2 GB peak RSS)
//   bench_scale --no-fluid                 per-fragment RDMA trains, the
//                                          pre-fluid event load (the fluid
//                                          path is on by default here; it is
//                                          timing-conformant, so only the
//                                          event count changes)
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
};

// One complete simulation at `np` ranks (np/2 nodes): 4 rounds of a ring
// exchange (64 KiB rendezvous messages), each round closed with an 8-byte
// allreduce and a barrier.
Row measure(int np, bool fluid) {
  ModelParams p;
  p.fluid_bulk = fluid;
  Bed bed(np / 2, 1, p);

  constexpr std::size_t kMsgBytes = 64 * 1024;
  constexpr int kRounds = 4;
  std::chrono::steady_clock::time_point t0;  // set when the engine starts
  Row row;
  int left_first_barrier = 0;
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
  };
  auto shared = std::make_shared<decltype(body)>(std::move(body));
  bed.rt->launch(np, [&bed, shared](rte::Env& env) {
    mpi::World w(env, *bed.net);
    (*shared)(w);
  });

  t0 = std::chrono::steady_clock::now();
  const sim::Time end = bed.engine.run();
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - t0;

  row.ranks = np;
  row.events = bed.engine.events_executed();
  row.wall_s = wall.count();
  row.events_per_s =
      row.wall_s > 0 ? static_cast<double>(row.events) / row.wall_s : 0;
  row.sim_ms = sim::to_us(end) / 1000.0;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  oqs::bench::TraceSession trace_session(argc, argv);
  std::string json_path;
  int max_ranks = 1024;
  bool fluid = true;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0)
      json_path = arg.substr(sizeof("--json=") - 1);
    else if (arg.rfind("--max-ranks=", 0) == 0)
      max_ranks = std::atoi(arg.c_str() + sizeof("--max-ranks=") - 1);
    else if (arg == "--no-fluid")
      fluid = false;
  }

  std::vector<int> nps;
  for (int np : {64, 128, 256, 512, 1024, 2048})
    if (np <= max_ranks) nps.push_back(np);

  std::printf("DES kernel scaling, 2 ranks/node, fluid_bulk=%s\n",
              fluid ? "on" : "off");
  std::printf("%-8s %-8s %14s %10s %14s %10s %14s %12s\n", "ranks", "nodes",
              "events", "wall_s", "events/s", "sim_ms", "setup_events",
              "setup_wall_s");

  std::string json = "[\n";
  for (int np : nps) {
    const Row r = measure(np, fluid);
    std::printf("%-8d %-8d %14llu %10.3f %14.0f %10.2f %14llu %12.3f\n",
                r.ranks, np / 2, static_cast<unsigned long long>(r.events),
                r.wall_s, r.events_per_s, r.sim_ms,
                static_cast<unsigned long long>(r.setup_events),
                r.setup_wall_s);
    std::fflush(stdout);
    char row[320];
    std::snprintf(row, sizeof(row),
                  "  {\"ranks\": %d, \"nodes\": %d, \"fluid\": %s, "
                  "\"events\": %llu, \"wall_s\": %.4f, "
                  "\"events_per_sec\": %.0f, \"sim_ms\": %.3f, "
                  "\"setup_events\": %llu, \"setup_wall_s\": %.4f},\n",
                  r.ranks, np / 2, fluid ? "true" : "false",
                  static_cast<unsigned long long>(r.events), r.wall_s,
                  r.events_per_s, r.sim_ms,
                  static_cast<unsigned long long>(r.setup_events),
                  r.setup_wall_s);
    json += row;
  }
  std::printf(
      "\nExpected: events per run grow 2.5-3.3x per doubling of ranks. "
      "Parked idle waits replay their poll steps without dispatching them, "
      "both ranks of a node included, so the events left are protocol "
      "work, resumed waits and wire-up, which adds every peer on every "
      "rank (n^2 add_peer calls); the collective-state allgathers take "
      "ceil(log2 n) steps. setup_events and setup_wall_s cover the run "
      "until every rank has left its first barrier. events/s counts "
      "dispatched events only; replaying parked steps takes wall time too, "
      "but no events. "
      "--no-fluid lands at the same sim_ms (the fluid path is "
      "timing-conformant) but a different event total: host-side poll loops "
      "fill fixed wait windows, so their iteration count shifts with poll "
      "phase and can swamp the ~3-events-per-fragment the fluid path folds "
      "away at device level (tests/elan4/fluid_test asserts that saving).\n");

  if (!json_path.empty()) {
    if (json.size() > 2) json.erase(json.size() - 2, 1);  // trailing comma
    json += "]\n";
    if (std::FILE* f = std::fopen(json_path.c_str(), "w")) {
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
      std::printf("# json: %s\n", json_path.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
  }
  return 0;
}
