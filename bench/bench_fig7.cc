// Figure 7 — Performance analysis of basic RDMA read and write.
//
// Six series over 0..4KB (eager threshold 1984 B): RDMA-Read and RDMA-Write
// schemes, each as (a) default no-inline, (b) rendezvous with inlined data,
// (c) with the datatype copy engine enabled ("DTP"). Expected shape:
//  * the datatype engine adds ~0.4 us;
//  * RDMA read beats write beyond the threshold (saves one control packet);
//  * no-inline rendezvous wins for all long sizes.
#include "common.h"

int main(int argc, char** argv) {
  oqs::bench::TraceSession trace_session(argc, argv);
  using namespace oqs;
  using namespace oqs::bench;

  auto opt = [](ptl_elan4::Scheme s, bool inline_rdv, bool dtp) {
    // Paper-reproduction column: the figure measures the monolithic
    // rendezvous of §5 (s is RDMA-read or -write), not the later pipelined
    // protocol.
    mpi::Options o;
    o.elan4.scheme = s;
    o.elan4.inline_rendezvous = inline_rdv;
    o.elan4.use_dtype_engine = dtp;
    return o;
  };

  const std::vector<std::size_t> small = {0, 2, 4, 8, 16, 32, 64, 128, 256, 512};
  const std::vector<std::size_t> large = {512, 1024, 1984, 2048, 4096};

  for (const auto* part : {"(a) very small messages", "(b) small messages"}) {
    const auto& sizes = part[1] == 'a' ? small : large;
    print_header(std::string("Fig. 7") + part + " — one-way latency (us)",
                 {"RDMA-Read", "Read-NoInline", "Read-DTP", "RDMA-Write",
                  "Write-NoInline", "Write-DTP"});
    for (std::size_t s : sizes) {
      print_row(s, {
        ompi_pingpong_us(s, opt(ptl_elan4::Scheme::kRdmaRead, true, false)),
        ompi_pingpong_us(s, opt(ptl_elan4::Scheme::kRdmaRead, false, false)),
        ompi_pingpong_us(s, opt(ptl_elan4::Scheme::kRdmaRead, true, true)),
        ompi_pingpong_us(s, opt(ptl_elan4::Scheme::kRdmaWrite, true, false)),
        ompi_pingpong_us(s, opt(ptl_elan4::Scheme::kRdmaWrite, false, false)),
        ompi_pingpong_us(s, opt(ptl_elan4::Scheme::kRdmaWrite, true, true)),
      });
    }
  }
  std::printf(
      "\nExpected (paper): DTP ~ +0.4us; Read < Write past 1984B; NoInline "
      "best for long messages.\n");
  return 0;
}
