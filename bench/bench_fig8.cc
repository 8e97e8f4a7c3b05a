// Figure 8 — Chained DMA and the shared completion queue.
//
// RDMA-Read scheme, 0..16KB, four series: chained FIN_ACK (default),
// Read-NoChain (host-posted FIN_ACK), One-Queue (shared completion queue
// combined with the receive queue), Two-Queue (separate completion queue).
// Expected shape: chaining helps marginally for long messages; the shared
// completion queue costs a little extra, with One-Queue ~ Two-Queue under
// polling.
#include "common.h"

int main(int argc, char** argv) {
  oqs::bench::TraceSession trace_session(argc, argv);
  using namespace oqs;
  using namespace oqs::bench;

  auto opt = [](bool chained, ptl_elan4::Completion c) {
    mpi::Options o;
    // Paper-reproduction column: the monolithic RDMA-read rendezvous, not
    // the pipelined protocol (which would hide the FIN_ACK chaining deltas
    // at 8-16KB).
    o.elan4.scheme = ptl_elan4::Scheme::kRdmaRead;
    o.elan4.chained_fin = chained;
    o.elan4.completion = c;
    return o;
  };

  print_header("Fig. 8 — chained DMA & shared completion queue, one-way latency (us)",
               {"RDMA-Read", "Read-NoChain", "One-Queue", "Two-Queue"});
  for (std::size_t s : {std::size_t{0}, std::size_t{2}, std::size_t{8},
                        std::size_t{32}, std::size_t{128}, std::size_t{512},
                        std::size_t{1024}, std::size_t{2048}, std::size_t{4096},
                        std::size_t{8192}, std::size_t{16384}}) {
    print_row(s, {
      ompi_pingpong_us(s, opt(true, ptl_elan4::Completion::kDirectPoll)),
      ompi_pingpong_us(s, opt(false, ptl_elan4::Completion::kDirectPoll)),
      ompi_pingpong_us(s, opt(true, ptl_elan4::Completion::kSharedCombined)),
      ompi_pingpong_us(s, opt(true, ptl_elan4::Completion::kSharedSeparate)),
    });
  }
  std::printf(
      "\nExpected (paper): NoChain slightly above chained for >=2KB; shared "
      "queues cost ~1-2us; One-Queue ~ Two-Queue.\n");
  return 0;
}
