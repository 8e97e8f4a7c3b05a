// §4.1/§5 capability benchmark — dynamic joining of PTL modules.
//
// Not a paper figure, but the paper's first objective: processes claim Elan
// contexts and wire up at arbitrary times. Measures (a) initial job wire-up
// time vs process count, and (b) the latency of dynamically spawning and
// merging one more process into a running job, including the first message
// to it.
#include "common.h"

int main(int argc, char** argv) {
  oqs::bench::TraceSession trace_session(argc, argv);
  using namespace oqs;
  using namespace oqs::bench;

  std::printf("Dynamic join — initial wire-up time vs job size\n");
  std::printf("%-8s %16s\n", "procs", "MPI_Init (ms)");
  for (int n : {2, 4, 8}) {
    Bed bed;
    sim::Time done = 0;
    bed.rt->launch(n, [&](rte::Env& env) {
      mpi::World w(env, *bed.net);
      w.comm().barrier();
      if (w.rank() == 0) done = bed.engine.now();
    });
    bed.engine.run();
    std::printf("%-8d %16.3f\n", n, sim::to_ms(done));
  }

  std::printf("\nDynamic spawn — add one process to a running 4-proc job\n");
  {
    Bed bed;
    sim::Time spawn_start = 0;
    sim::Time merged_at = 0;
    sim::Time first_msg_at = 0;
    bed.rt->launch(4, [&](rte::Env& env) {
      mpi::World w(env, *bed.net);
      w.comm().barrier();
      if (w.rank() == 0) spawn_start = bed.engine.now();
      mpi::Communicator merged = w.spawn_merge(1, [&](mpi::World& cw) {
        std::uint32_t v = 0;
        cw.comm().recv(&v, 4, dtype::byte_type(), 0, 1);
        cw.comm().send(&v, 4, dtype::byte_type(), 0, 2);
        cw.comm().barrier();
      });
      if (w.rank() == 0) {
        merged_at = bed.engine.now();
        std::uint32_t v = 77;
        merged.send(&v, 4, dtype::byte_type(), 4, 1);
        merged.recv(&v, 4, dtype::byte_type(), 4, 2);
        first_msg_at = bed.engine.now();
      }
      merged.barrier();
    });
    bed.engine.run();
    std::printf("  spawn + wire-up + merge : %10.3f ms\n",
                sim::to_ms(merged_at - spawn_start));
    std::printf("  first message roundtrip : %10.3f us\n",
                sim::to_us(first_msg_at - merged_at));
  }
  std::printf(
      "\nExpected: wire-up dominated by management-network round trips "
      "(a few tenths of a ms: publish, the init barrier and one fetch of "
      "every contact record, whatever the job size; what grows with it is "
      "the closing barrier's ceil(log2 n) steps); post-merge traffic runs "
      "at full Elan4 speed.\n");
  return 0;
}
