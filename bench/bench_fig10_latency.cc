// Figure 10 (a, b) — Overall latency: Open MPI PTL/Elan4 vs MPICH-QsNetII.
//
// Best PTL configuration per §6.5: chained completion, polling progress
// without the shared completion queue, rendezvous without inlined data.
// Expected shape: MPICH-QsNetII slightly lower for small messages (32-byte
// Tport header + NIC tag matching vs the 64-byte PML header + host
// matching); comparable for large messages.
//
// Extensions beyond the figure:
//   --rails N    multirail latency sweep with the pipelined rendezvous — 1
//                rail vs N rails; eager traffic rides the lowest-latency
//                rail, while the pull fragments of long messages stripe
//                across every rail
//   --ptl tcp    run the Open MPI columns over the TCP PTL instead (it has
//                no rendezvous of its own: long messages take the pipelined
//                fragment schedule there)
#include <cstdlib>
#include <cstring>

#include "common.h"

int main(int argc, char** argv) {
  oqs::bench::TraceSession trace_session(argc, argv);
  using namespace oqs;
  using namespace oqs::bench;

  int rails = 1;
  std::string ptl = "elan4";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--rails") == 0 && i + 1 < argc)
      rails = std::atoi(argv[++i]);
    else if (std::strncmp(argv[i], "--rails=", 8) == 0)
      rails = std::atoi(argv[i] + 8);
    else if (std::strcmp(argv[i], "--ptl") == 0 && i + 1 < argc)
      ptl = argv[++i];
    else if (std::strncmp(argv[i], "--ptl=", 6) == 0)
      ptl = argv[i] + 6;
  }
  if (rails < 1) rails = 1;

  // Paper-reproduction columns measure the monolithic rendezvous; the
  // pipelined protocol has its own crossover table below.
  mpi::Options read_o;
  read_o.elan4.scheme = ptl_elan4::Scheme::kRdmaRead;
  mpi::Options write_o;
  write_o.elan4.scheme = ptl_elan4::Scheme::kRdmaWrite;
  if (ptl == "tcp") {
    read_o.use_elan4 = write_o.use_elan4 = false;
    read_o.use_tcp = write_o.use_tcp = true;
  }
  mpi::Options pipe_o = read_o;
  pipe_o.elan4.scheme = ptl_elan4::Scheme::kPipelined;

  const std::vector<std::size_t> small = {0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024};
  const std::vector<std::size_t> large = {2048, 4096, 8192, 16384, 32768, 65536,
                                          131072, 262144, 524288, 1048576};

  if (rails > 1) {
    mpi::Options multi = pipe_o;
    multi.elan4.rails = rails;
    const std::string col = std::to_string(rails) + "-rail";
    print_header("Multirail latency (us), pipelined rendezvous",
                 {"1-rail", col});
    for (std::size_t s : large) {
      const int iters = s >= 262144 ? 40 : 120;
      print_row(s, {ompi_pingpong_us(s, pipe_o, {}, iters, 1),
                    ompi_pingpong_us(s, multi, {}, iters, rails)});
    }
    std::printf(
        "\nExpected: within a few %% while a message is pushed whole behind "
        "the RTS (up to one pull fragment); once it splits into pull "
        "fragments they stripe across the rails, cutting the wire-time term "
        "toward 1/%d.\n", rails);
    return 0;
  }

  const bool tcp = ptl == "tcp";
  print_header("Fig. 10a — small message latency (us)",
               {"MPICH-QsNetII", tcp ? "PTL-TCP" : "PTL-RDMA-Read",
                tcp ? "PTL-TCP" : "PTL-RDMA-Write"});
  for (std::size_t s : small)
    print_row(s, {mpich_pingpong_us(s), ompi_pingpong_us(s, read_o),
                  ompi_pingpong_us(s, write_o)});

  print_header("Fig. 10b — large message latency (us)",
               {"MPICH-QsNetII", tcp ? "PTL-TCP" : "PTL-RDMA-Read",
                tcp ? "PTL-TCP" : "PTL-RDMA-Write"});
  for (std::size_t s : large) {
    const int iters = s >= 262144 ? 40 : 120;
    print_row(s, {mpich_pingpong_us(s, {}, iters),
                  ompi_pingpong_us(s, read_o, {}, iters),
                  ompi_pingpong_us(s, write_o, {}, iters)});
  }
  std::printf(
      "\nExpected (paper): MPICH lower by ~1us for small messages; all three "
      "comparable at large sizes.\n");

  // Crossover: monolithic vs pipelined rendezvous latency. Eager messages
  // (<= eager_limit) take the identical code path in both configurations;
  // just above it the pipeline pushes the whole message behind the RTS and
  // skips the pull round trip entirely.
  print_header("Crossover — monolithic vs pipelined one-way latency (us)",
               {"monolithic", "pipelined", "ratio"});
  for (std::size_t s : {std::size_t{0}, std::size_t{512}, std::size_t{1024},
                        std::size_t{1984}, std::size_t{2048}, std::size_t{4096},
                        std::size_t{8192}, std::size_t{16384},
                        std::size_t{32768}, std::size_t{65536}}) {
    const double mono = ompi_pingpong_us(s, read_o);
    const double pipe = ompi_pingpong_us(s, pipe_o);
    print_row(s, {mono, pipe, pipe / mono});
  }
  std::printf(
      "\nExpected: identical through the eager limit (1984B with reliability "
      "off); pipelined lower from 2KB (pushed payload skips the pull round "
      "trip).\n");
  return 0;
}
