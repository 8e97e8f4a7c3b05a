// Extension benchmark — collectives framework crossover sweep.
//
// The paper's collective work (§4.1, LA-MPI lineage [33]) offloads the
// fan-out to the NIC; this bench sweeps the routed collectives across the
// selectable algorithm families (reference p2p trees, NIC combining tree,
// hierarchical shared-memory + inter-node) on a testbed scaled from 8 to
// 512 ranks at 2 ranks per node — the paper's dual-CPU node shape. The
// point is the crossover: where the offloaded/hierarchical paths overtake
// the host-driven p2p trees as fan-in traffic and rank count grow.
//
//   bench_coll [--json=coll.json]   also emit the grid as JSON rows, each
//                                   with its run's qdma_drops (the sum of
//                                   every NIC's rx_drops; 0 when clean)
//   bench_coll --max-ranks=64       trim the sweep (CI smoke)
#include "common.h"

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

namespace {

using namespace oqs;
using namespace oqs::bench;

mpi::Options mode_opts(const std::string& mode) {
  using namespace mpi::coll;
  mpi::Options o;
  if (mode == "p2p") {
    o.coll.barrier = BarrierAlg::kDissemination;
    o.coll.bcast = BcastAlg::kBinomial;
    o.coll.reduce = ReduceAlg::kBinomial;
    o.coll.allreduce = AllreduceAlg::kRecursiveDoubling;
    o.coll.hier = false;
    o.coll.nic = false;
  } else if (mode == "nic") {
    o.coll.barrier = BarrierAlg::kNic;
    o.coll.allreduce = AllreduceAlg::kNic;
    o.coll.hier = false;
  } else if (mode == "hier") {
    o.coll.barrier = BarrierAlg::kHier;
    o.coll.bcast = BcastAlg::kHier;
    o.coll.reduce = ReduceAlg::kHier;
    o.coll.allreduce = AllreduceAlg::kHier;
    o.coll.nic = false;
  } else if (mode == "hiernic") {
    o.coll.barrier = BarrierAlg::kHier;
    o.coll.bcast = BcastAlg::kHier;
    o.coll.reduce = ReduceAlg::kHier;
    o.coll.allreduce = AllreduceAlg::kHier;
  }
  return o;
}

enum class Op { kBarrier, kAllreduce8, kAllreduce1K, kBcast1K };

const char* op_name(Op op) {
  switch (op) {
    case Op::kBarrier: return "barrier";
    case Op::kAllreduce8: return "allreduce_8B";
    case Op::kAllreduce1K: return "allreduce_1KB";
    case Op::kBcast1K: return "bcast_1KB";
  }
  return "?";
}

struct Point {
  double us = 0;                // mean time per operation
  std::uint64_t qdma_drops = 0;  // over the whole run, teardown included
};

// One grid point: `np` ranks packed 2 per node.
Point coll_point(Op op, const std::string& mode, int np) {
  Bed bed(np / 2);
  double us = 0;
  auto body = [&](mpi::World& w) {
    auto& c = w.comm();
    std::vector<double> in(128), out(128);
    std::vector<std::uint8_t> buf(1024, 0x2A);
    auto once = [&] {
      switch (op) {
        case Op::kBarrier:
          c.barrier();
          break;
        case Op::kAllreduce8:
          in[0] = c.rank();
          c.allreduce_sum(in.data(), out.data(), 1);
          break;
        case Op::kAllreduce1K:
          for (std::size_t i = 0; i < in.size(); ++i) in[i] = c.rank() + i;
          c.allreduce_sum(in.data(), out.data(), in.size());
          break;
        case Op::kBcast1K:
          c.bcast(buf.data(), buf.size(), dtype::byte_type(), 0);
          break;
      }
    };
    constexpr int kBenchWarmup = 3;
    constexpr int kBenchIters = 16;
    for (int i = 0; i < kBenchWarmup; ++i) once();
    c.barrier();
    const sim::Time t0 = bed.engine.now();
    for (int i = 0; i < kBenchIters; ++i) once();
    c.barrier();
    if (c.rank() == 0) us = sim::to_us(bed.engine.now() - t0) / kBenchIters;
  };
  auto shared = std::make_shared<decltype(body)>(std::move(body));
  const mpi::Options opts = mode_opts(mode);
  bed.rt->launch(np, [&bed, shared, opts](rte::Env& env) {
    mpi::World w(env, *bed.net, opts);
    (*shared)(w);
  });
  bed.engine.run();
  return {us, bed.qdma_drops()};
}

}  // namespace

int main(int argc, char** argv) {
  oqs::bench::TraceSession trace_session(argc, argv);
  oqs::bench::JsonRows rows(argc, argv);
  int max_ranks = 512;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--max-ranks=", 0) == 0)
      max_ranks = std::atoi(arg.c_str() + sizeof("--max-ranks=") - 1);
  }

  const std::vector<std::string> modes = {"p2p", "nic", "hier", "hiernic"};
  std::vector<int> nps;
  for (int np : {8, 16, 32, 64, 128, 256, 512})
    if (np <= max_ranks) nps.push_back(np);
  const std::vector<Op> ops = {Op::kBarrier, Op::kAllreduce8, Op::kAllreduce1K,
                               Op::kBcast1K};

  for (Op op : ops) {
    std::printf("\n%s, 2 ranks/node (us per op)\n", op_name(op));
    std::printf("%-8s", "ranks");
    for (const auto& m : modes) std::printf(" %12s", m.c_str());
    std::printf("\n");
    for (int np : nps) {
      std::printf("%-8d", np);
      for (const auto& m : modes) {
        const Point pt = coll_point(op, m, np);
        std::printf(" %12.2f", pt.us);
        std::fflush(stdout);
        rows.add("{\"op\": \"%s\", \"mode\": \"%s\", \"ranks\": %d, "
                 "\"us\": %.3f, \"qdma_drops\": %llu}",
                 op_name(op), m.c_str(), np, pt.us,
                 static_cast<unsigned long long>(pt.qdma_drops));
      }
      std::printf("\n");
    }
  }
  std::printf(
      "\nExpected: the NIC combining tree holds barrier/small-allreduce "
      "nearly flat in rank count (one tree walk at NIC latency) while the "
      "p2p trees grow with log2(n) host round-trips; the hierarchical "
      "modes halve the wire fan-in by folding each node's second rank over "
      "shared memory first. Crossovers land by 64 ranks.\n");

  return rows.write() ? 0 : 1;
}
