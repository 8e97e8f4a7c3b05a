// Table 1 — Thread-based asynchronous progress (us), RDMA-Read scheme.
//
//   Mesg            Basic   Interrupt   One Thread   Two Threads
//   RDMA-Read 4B     3.87     14.70       22.76        27.50
//   RDMA-Read 4KB   15.25     27.16       32.80        47.72
//
// Basic polls; Interrupt blocks in the PTL on device interrupts; One-Thread
// runs a progress thread on the combined queue; Two-Threads adds a separate
// completion-queue thread. Expected shape: each step costs more; the
// interrupt adds ~10us; threading adds several more; one thread beats two
// (CPU/memory contention, default interrupt affinity).
#include "common.h"

int main(int argc, char** argv) {
  oqs::bench::TraceSession trace_session(argc, argv);
  using namespace oqs;
  using namespace oqs::bench;

  struct Mode {
    const char* name;
    ptl_elan4::Progress progress;
  };
  const Mode modes[] = {
      {"Basic", ptl_elan4::Progress::kPolling},
      {"Interrupt", ptl_elan4::Progress::kInterrupt},
      {"One Thread", ptl_elan4::Progress::kOneThread},
      {"Two Threads", ptl_elan4::Progress::kTwoThreads},
  };
  const double paper_4b[] = {3.87, 14.70, 22.76, 27.50};
  const double paper_4k[] = {15.25, 27.16, 32.80, 47.72};

  std::printf("Table 1 — thread-based asynchronous progress, RDMA-Read (us)\n");
  std::printf("%-14s %12s %12s %12s %12s\n", "mode", "4B", "paper-4B", "4KB",
              "paper-4KB");
  for (int i = 0; i < 4; ++i) {
    mpi::Options o;
    // Paper-reproduction row: the monolithic RDMA-read rendezvous at 4KB.
    o.elan4.scheme = ptl_elan4::Scheme::kRdmaRead;
    o.elan4.progress = modes[i].progress;
    const double us4 = ompi_pingpong_us(4, o);
    const double us4k = ompi_pingpong_us(4096, o);
    std::printf("%-14s %12.2f %12.2f %12.2f %12.2f\n", modes[i].name, us4,
                paper_4b[i], us4k, paper_4k[i]);
  }
  std::printf(
      "\nExpected (paper): monotone increase per mode; ~+10us for the "
      "interrupt; one-thread cheaper than two-thread.\n");
  return 0;
}
