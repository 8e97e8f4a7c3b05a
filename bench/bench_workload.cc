// Extension benchmark — trace-driven workload replay scenarios.
//
// The microbenchmarks (bench_fig*) measure one message pattern at a time;
// this bench replays synthetic application skeletons over the full
// PML/BML/PTL stack and reports what applications feel: end-to-end goodput
// (delivered payload over job makespan) and per-op tail latency
// (p50/p95/p99). Every payload byte is verified against the replay oracle
// in flight, so a row with verify_failures == 0 is also a conformance
// statement for the scenario it measures.
//
//   bench_workload                           full sweep: 5 skeletons x
//                                            rails {1,2} x loss {0, 2%}
//   bench_workload --skeleton=mix            one skeleton (stencil2d,
//                                            stencil3d, train, shuffle, mix)
//   bench_workload --ranks=64                job size (>= 16 folds 2
//                                            ranks/node like bench_scale)
//   bench_workload --rails=1,2               rail sweep
//   bench_workload --loss=0,0.02             wire drop rates; any loss > 0
//                                            arms the go-back-N stream
//   bench_workload --json=BENCH_workload.json  emit the rows as JSON
//
// "mix" is the job-interference scenario: a stencil2d on the first half of
// the ranks and an all-to-all shuffle on the second half share one fabric;
// the row aggregates both jobs (goodput over the combined span, latency
// over the merged op stream).
#include "common.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "net/fault.h"
#include "workload/workload.h"

namespace {

using namespace oqs;
using namespace oqs::bench;
using namespace oqs::workload;

struct Row {
  std::string skeleton;
  int ranks = 0;
  int rails = 1;
  double loss = 0;
  double goodput_mbps = 0;
  double p50_us = 0, p95_us = 0, p99_us = 0;
  double sim_ms = 0;
  std::uint64_t bytes = 0;
  std::uint64_t ops = 0;
  std::uint64_t verify_failures = 0;
};

// Skeleton configs scale with the rank count so the sweep stays comparable
// across --ranks values: fixed per-rank traffic, near-square grids.
std::vector<Trace> build_jobs(const std::string& skel, int np) {
  auto stencil2d = [](int n) {
    const Grid2 g = factor2(n);
    StencilConfig c;
    c.px = g.px;
    c.py = g.py;
    c.iters = 4;
    c.halo_bytes = 16384;
    c.compute_ns = 20000;
    return make_stencil(c);
  };
  std::vector<Trace> jobs;
  if (skel == "stencil2d") {
    jobs.push_back(stencil2d(np));
  } else if (skel == "stencil3d") {
    const Grid3 g = factor3(np);
    StencilConfig c;
    c.px = g.px;
    c.py = g.py;
    c.pz = g.pz;
    c.iters = 3;
    c.halo_bytes = 8192;
    c.compute_ns = 15000;
    jobs.push_back(make_stencil(c));
  } else if (skel == "train") {
    jobs.push_back(make_training(
        {.ranks = np, .steps = 4, .grad_bytes = 65536, .compute_ns = 50000}));
  } else if (skel == "shuffle") {
    jobs.push_back(make_shuffle(
        {.ranks = np, .rounds = 2, .bytes_per_pair = 4096, .compute_ns = 5000}));
  } else if (skel == "mix") {
    // Interference scenario: halo traffic and an all-to-all shuffle share
    // the fat tree.
    jobs.push_back(stencil2d(np / 2));
    jobs.push_back(make_shuffle({.ranks = np - np / 2, .rounds = 2,
                                 .bytes_per_pair = 4096, .compute_ns = 5000}));
  } else {
    std::fprintf(stderr, "unknown --skeleton=%s\n", skel.c_str());
    std::exit(2);
  }
  return jobs;
}

Row measure(const std::string& skel, int np, int rails, double loss) {
  const int nodes = np >= 16 ? np / 2 : 8;  // 2 ranks/node at scale
  Bed bed(nodes, rails);
  if (loss > 0) {
    net::FaultProfile profile;
    profile.drop = loss;
    bed.net->set_faults(profile, /*seed=*/9);
  }
  mpi::Options opts;
  opts.elan4.rails = rails;
  if (loss > 0) {
    // Wire loss is only survivable with the go-back-N stream armed.
    opts.elan4.reliability = true;
  }

  const std::vector<Trace> traces = build_jobs(skel, np);
  std::vector<const Trace*> jobs;
  for (const Trace& t : traces) jobs.push_back(&t);
  std::vector<Report> reports;
  ReplayOptions ropt;
  ropt.seed = 9;
  auto body = [&](mpi::World& w) { replay_jobs(w, jobs, ropt, &reports); };
  auto shared = std::make_shared<decltype(body)>(std::move(body));
  bed.rt->launch(np, [&bed, shared, opts](rte::Env& env) {
    mpi::World w(env, *bed.net, opts);
    (*shared)(w);
  });
  const sim::Time end = bed.engine.run();

  // Aggregate across jobs: goodput over the combined span, latency over
  // the merged communication-op stream.
  Row row;
  row.skeleton = skel;
  row.ranks = np;
  row.rails = rails;
  row.loss = loss;
  row.sim_ms = sim::to_us(end) / 1000.0;
  sim::Samples ops_us;
  sim::Time t_begin = ~sim::Time{0}, t_end = 0;
  for (const Report& r : reports) {
    for (double x : r.op_us.values()) ops_us.add(x);
    row.bytes += r.bytes_moved;
    row.ops += r.ops_replayed;
    row.verify_failures += r.verify_failures;
    t_begin = std::min(t_begin, r.t_begin);
    t_end = std::max(t_end, r.t_end);
  }
  if (t_end > t_begin)
    row.goodput_mbps =
        static_cast<double>(row.bytes) / sim::to_us(t_end - t_begin);
  row.p50_us = ops_us.percentile(0.50);
  row.p95_us = ops_us.percentile(0.95);
  row.p99_us = ops_us.percentile(0.99);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  oqs::bench::TraceSession trace_session(argc, argv);
  oqs::bench::JsonRows rows(argc, argv);
  std::string skeleton = "all";
  int ranks = 64;
  std::vector<int> rails = {1, 2};
  std::vector<double> losses = {0.0, 0.02};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto list = [](const std::string& s) {
      std::vector<std::string> out;
      std::size_t pos = 0;
      while (pos <= s.size()) {
        const std::size_t c = s.find(',', pos);
        out.push_back(s.substr(pos, c - pos));
        if (c == std::string::npos) break;
        pos = c + 1;
      }
      return out;
    };
    if (arg.rfind("--skeleton=", 0) == 0) {
      skeleton = arg.substr(sizeof("--skeleton=") - 1);
    } else if (arg.rfind("--ranks=", 0) == 0) {
      ranks = std::atoi(arg.c_str() + sizeof("--ranks=") - 1);
    } else if (arg.rfind("--rails=", 0) == 0) {
      rails.clear();
      for (const auto& t : list(arg.substr(sizeof("--rails=") - 1)))
        rails.push_back(std::atoi(t.c_str()));
    } else if (arg.rfind("--loss=", 0) == 0) {
      losses.clear();
      for (const auto& t : list(arg.substr(sizeof("--loss=") - 1)))
        losses.push_back(std::atof(t.c_str()));
    }
  }

  std::vector<std::string> skels;
  if (skeleton == "all")
    skels = {"stencil2d", "stencil3d", "train", "shuffle", "mix"};
  else
    skels = {skeleton};

  std::printf("Workload replay scenarios, %d ranks\n", ranks);
  std::printf("%-10s %-6s %-6s %14s %10s %10s %10s %10s %8s\n", "skeleton",
              "rails", "loss", "goodput_MB/s", "p50_us", "p95_us", "p99_us",
              "sim_ms", "verify");
  bool failed = false;
  for (const std::string& s : skels) {
    for (int r : rails) {
      for (double loss : losses) {
        const Row row = measure(s, ranks, r, loss);
        std::printf("%-10s %-6d %-6.3f %14.1f %10.1f %10.1f %10.1f %10.2f %8llu\n",
                    row.skeleton.c_str(), row.rails, row.loss,
                    row.goodput_mbps, row.p50_us, row.p95_us, row.p99_us,
                    row.sim_ms,
                    static_cast<unsigned long long>(row.verify_failures));
        std::fflush(stdout);
        failed |= row.verify_failures != 0;
        rows.add(
            "{\"skeleton\": \"%s\", \"ranks\": %d, \"rails\": %d, "
            "\"loss\": %.3f, \"goodput_mbps\": %.2f, \"p50_us\": %.2f, "
            "\"p95_us\": %.2f, \"p99_us\": %.2f, \"sim_ms\": %.3f, "
            "\"bytes\": %llu, \"ops\": %llu, \"verify_failures\": %llu}",
            row.skeleton.c_str(), row.ranks, row.rails, row.loss,
            row.goodput_mbps, row.p50_us, row.p95_us, row.p99_us, row.sim_ms,
            static_cast<unsigned long long>(row.bytes),
            static_cast<unsigned long long>(row.ops),
            static_cast<unsigned long long>(row.verify_failures));
      }
    }
  }
  std::printf(
      "\nExpected: the skeletons' 4-16KB messages sit below the multirail "
      "striping regime, so a second rail moves clean goodput only a few "
      "percent, and under loss it helps the all-to-all only slightly, "
      "where retransmission traffic spreads across rails (shuffle p99 "
      "drops ~2%% at 2%% loss). Wire loss at 2%% costs roughly half the goodput "
      "via go-back-N retransmission but never correctness (verify stays "
      "0). Interference lives in the mix row's tail: its p50 matches the "
      "lone stencil's, while p95/p99 stretch several-fold — the shuffle's "
      "all-to-all congests the fat-tree links the halos cross.\n");

  if (!rows.write()) return 1;
  return failed ? 1 : 0;
}
