// Ablation (§6.4 discussion) — where the progress-mode costs come from.
//
// The paper attributes the Table-1 ladder to the interrupt (~10us), the
// threading overhead (~9us), and CPU/interrupt-path contention with default
// affinities. Each sweep below varies exactly one model component and shows
// which observable it moves:
//   * interrupt latency        -> the Interrupt row;
//   * thread handoff latency   -> the One-Thread row;
//   * interrupt-path serialization (default IRQ affinity)
//                               -> the Two-Thread penalty;
//   * cores per node           -> threaded modes under-provisioned at 1 core.
#include "common.h"

int main(int argc, char** argv) {
  oqs::bench::TraceSession trace_session(argc, argv);
  using namespace oqs;
  using namespace oqs::bench;

  // 4KB rows run the default pipelined rendezvous (Table 1 itself measures
  // the paper's RDMA-read scheme; see bench_table1).
  auto run = [](ptl_elan4::Progress pr, const ModelParams& p, std::size_t bytes) {
    mpi::Options o;
    o.elan4.progress = pr;
    return ompi_pingpong_us(bytes, o, p, 150);
  };

  std::printf("Ablation 1 — interrupt latency vs Interrupt-mode 4B latency (us)\n");
  std::printf("%-14s %12s %12s\n", "interrupt_us", "Basic", "Interrupt");
  for (TimeNs irq : {2000u, 5000u, 10000u, 20000u}) {
    ModelParams p;
    p.interrupt_ns = irq;
    if (p.irq_service_ns > irq) p.irq_service_ns = irq;
    std::printf("%-14.1f %12.2f %12.2f\n", irq / 1e3,
                run(ptl_elan4::Progress::kPolling, p, 4),
                run(ptl_elan4::Progress::kInterrupt, p, 4));
  }

  std::printf("\nAblation 2 — thread handoff vs One-Thread 4B latency (us)\n");
  std::printf("%-14s %12s %12s\n", "wakeup_us", "Interrupt", "One Thread");
  for (TimeNs wk : {2000u, 5000u, 8500u, 14000u}) {
    ModelParams p;
    p.thread_wakeup_ns = wk;
    std::printf("%-14.1f %12.2f %12.2f\n", wk / 1e3,
                run(ptl_elan4::Progress::kInterrupt, p, 4),
                run(ptl_elan4::Progress::kOneThread, p, 4));
  }

  std::printf(
      "\nAblation 3 — interrupt latency vs One/Two-Thread 4KB latency (us)\n");
  std::printf("%-14s %12s %12s\n", "interrupt_us", "One Thread", "Two Threads");
  for (TimeNs irq : {4000u, 10000u, 16000u}) {
    ModelParams p;
    p.interrupt_ns = irq;
    if (p.irq_service_ns > irq) p.irq_service_ns = irq;
    std::printf("%-14.1f %12.2f %12.2f\n", irq / 1e3,
                run(ptl_elan4::Progress::kOneThread, p, 4096),
                run(ptl_elan4::Progress::kTwoThreads, p, 4096));
  }

  std::printf("\nAblation 4 — cores per node vs progress modes, 4KB (us)\n");
  std::printf("%-8s %12s %12s %12s %12s\n", "cores", "Basic", "Interrupt",
              "One Thread", "Two Threads");
  for (unsigned cores : {1u, 2u, 4u}) {
    ModelParams p;
    p.cores_per_node = cores;
    std::printf("%-8u %12.2f %12.2f %12.2f %12.2f\n", cores,
                run(ptl_elan4::Progress::kPolling, p, 4096),
                run(ptl_elan4::Progress::kInterrupt, p, 4096),
                run(ptl_elan4::Progress::kOneThread, p, 4096),
                run(ptl_elan4::Progress::kTwoThreads, p, 4096));
  }

  std::printf(
      "\nExpected: sweep 1 tracks interrupt_us ~1:1; sweep 2 tracks "
      "wakeup_us; sweep 3 shows two-thread paying ~2 interrupts per exchange "
      "(its curve grows twice as fast — the completion thread blocks per "
      "event); sweep 4 shows threaded modes suffering on a single core (the "
      "paper's dual-Xeon testbed sits at 2).\n");
  return 0;
}
