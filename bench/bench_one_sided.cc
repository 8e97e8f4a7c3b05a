// Extension benchmark — MPI-2 one-sided vs two-sided data movement.
//
// The paper targets MPI-2 compliance and cites the InfiniBand one-sided
// work [15,16,18] as contemporaries; this measures what the Elan4 RDMA
// engine buys when the receiver is completely passive: a put+fence epoch
// against a send/recv of the same payload, and per-op cost amortization as
// more operations share one fence.
#include <cstdlib>

#include "common.h"

namespace {

using namespace oqs;
using namespace oqs::bench;

// A fence that reports a faulted RMA op ends the run: the timing would
// measure an epoch that did not move its data.
void fence_or_die(mpi::Window& win) {
  if (Status st = win.fence(); !ok(st)) {
    std::fprintf(stderr, "fence failed: %s\n", to_string(st).data());
    std::exit(1);
  }
}

double put_fence_us(std::size_t bytes, int ops_per_fence) {
  Bed bed;
  double us = 0;
  bed.rt->launch(2, [&](rte::Env& env) {
    mpi::World w(env, *bed.net);
    auto& c = w.comm();
    std::vector<std::uint8_t> exposed(bytes * static_cast<std::size_t>(ops_per_fence), 0);
    mpi::Window win(c, w, exposed.data(), exposed.size());
    std::vector<std::uint8_t> src(bytes, 3);
    c.barrier();
    const sim::Time t0 = bed.engine.now();
    constexpr int kEpochs = 30;
    for (int e = 0; e < kEpochs; ++e) {
      if (c.rank() == 0)
        for (int k = 0; k < ops_per_fence; ++k)
          win.put(1, src.data(), bytes, static_cast<std::size_t>(k) * bytes);
      fence_or_die(win);
    }
    if (c.rank() == 0)
      us = sim::to_us(bed.engine.now() - t0) / (kEpochs * ops_per_fence);
    c.barrier();
    fence_or_die(win);
  });
  bed.engine.run();
  return us;
}

double send_recv_us(std::size_t bytes) {
  mpi::Options opts;
  return ompi_pingpong_us(bytes, opts, {}, 100) * 2.0;  // full round trip
}

}  // namespace

int main(int argc, char** argv) {
  oqs::bench::TraceSession trace_session(argc, argv);
  std::printf("One-sided put+fence vs two-sided send/recv (us per transfer)\n");
  std::printf("%-10s %14s %14s %16s\n", "size", "put+fence", "send+recv-rt",
              "put x8 (amort.)");
  for (std::size_t s : {64ul, 1024ul, 4096ul, 65536ul}) {
    std::printf("%-10zu %14.2f %14.2f %16.2f\n", s, put_fence_us(s, 1),
                send_recv_us(s), put_fence_us(s, 8));
  }
  std::printf(
      "\nExpected: a lone put pays the fence barrier; batching 8 puts per "
      "fence amortizes it below the two-sided cost — the passive-target "
      "advantage of RDMA.\n");
  return 0;
}
