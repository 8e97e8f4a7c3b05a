// Figure 10 (c, d) — Overall bandwidth: Open MPI PTL/Elan4 vs MPICH-QsNetII.
//
// Blocking-send streaming (each message completes before the next posts).
// Expected shape: comparable at small and very large sizes; Open MPI
// noticeably worse in the middle range, where the per-message rendezvous
// handshake is not amortized while Tport pipelines the whole message in the
// NIC; both saturate near the PCI-X rate at 1MB.
//
// Extensions beyond the figure:
//   --rails N           multirail sweep — 1 rail vs N rails (pipelined
//                       fragments stripe across rails), plus a per-rail
//                       byte/retransmit breakdown at the largest size
//   --ptl tcp           run the Open MPI columns over the TCP PTL instead
//                       (it has no rendezvous of its own: every column
//                       there runs the pipelined fragment schedule)
//   --frag-size N       pipelined-rendezvous pull fragment size in bytes
//   --pipeline-depth N  in-flight pull fragments per rail
//   --push-frags N      eager-sized frames pushed behind the RTS
//   --monolithic        skip the pipelined columns and crossover table
//
// The paper columns always measure the monolithic rendezvous (the §5
// protocol); the crossover table then replays the same stream test with the
// pipelined protocol to show where fragment streaming overtakes the single
// handshake-bound RDMA.
#include <cstdlib>
#include <cstring>

#include "common.h"

int main(int argc, char** argv) {
  oqs::bench::TraceSession trace_session(argc, argv);
  using namespace oqs;
  using namespace oqs::bench;

  int rails = 1;
  std::string ptl = "elan4";
  std::size_t frag_size = 0;  // 0 = ModelParams default
  int depth = 0;              // 0 = ModelParams default
  int push_frags = -1;        // -1 = ModelParams default
  bool monolithic_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--rails") == 0 && i + 1 < argc)
      rails = std::atoi(argv[++i]);
    else if (std::strncmp(argv[i], "--rails=", 8) == 0)
      rails = std::atoi(argv[i] + 8);
    else if (std::strcmp(argv[i], "--ptl") == 0 && i + 1 < argc)
      ptl = argv[++i];
    else if (std::strncmp(argv[i], "--ptl=", 6) == 0)
      ptl = argv[i] + 6;
    else if (std::strcmp(argv[i], "--frag-size") == 0 && i + 1 < argc)
      frag_size = static_cast<std::size_t>(std::atoll(argv[++i]));
    else if (std::strncmp(argv[i], "--frag-size=", 12) == 0)
      frag_size = static_cast<std::size_t>(std::atoll(argv[i] + 12));
    else if (std::strcmp(argv[i], "--pipeline-depth") == 0 && i + 1 < argc)
      depth = std::atoi(argv[++i]);
    else if (std::strncmp(argv[i], "--pipeline-depth=", 17) == 0)
      depth = std::atoi(argv[i] + 17);
    else if (std::strcmp(argv[i], "--push-frags") == 0 && i + 1 < argc)
      push_frags = std::atoi(argv[++i]);
    else if (std::strncmp(argv[i], "--push-frags=", 13) == 0)
      push_frags = std::atoi(argv[i] + 13);
    else if (std::strcmp(argv[i], "--monolithic") == 0)
      monolithic_only = true;
  }
  if (rails < 1) rails = 1;

  // Paper columns reproduce the monolithic rendezvous of §5.
  mpi::Options read_o;
  read_o.elan4.scheme = ptl_elan4::Scheme::kRdmaRead;
  mpi::Options write_o;
  write_o.elan4.scheme = ptl_elan4::Scheme::kRdmaWrite;
  if (ptl == "tcp") {
    read_o.use_elan4 = write_o.use_elan4 = false;
    read_o.use_tcp = write_o.use_tcp = true;
  }
  // The pipelined configuration under test: same transport, the fragment
  // schedule tuned from the command line (unset = ModelParams defaults).
  mpi::Options pipe_o = read_o;
  pipe_o.elan4.scheme = ptl_elan4::Scheme::kPipelined;
  ModelParams pipe_p;
  if (frag_size > 0) pipe_p.pipeline_frag_bytes = frag_size;
  if (depth > 0) pipe_p.pipeline_depth = depth;
  if (push_frags >= 0) pipe_p.pipeline_push_frags = push_frags;

  const std::vector<std::size_t> small = {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024};
  const std::vector<std::size_t> large = {2048, 4096, 8192, 16384, 32768, 65536,
                                          131072, 262144, 524288, 1048576};

  if (rails > 1) {
    // Multirail sweep with the pipelined protocol: the pull fragment is the
    // striping unit, so any message that splits into several fragments fans
    // out across every live rail — there is no whole-message threshold.
    mpi::Options multi = pipe_o;
    multi.elan4.rails = rails;
    const std::string col = std::to_string(rails) + "-rail";
    print_header("Multirail bandwidth (MB/s), RDMA-read scheme, pipelined",
                 {"1-rail", col, "speedup"});
    for (std::size_t s : large) {
      const int count = s >= 262144 ? 16 : 48;
      const double one = ompi_stream_mbps(s, pipe_o, pipe_p, count, 1);
      const double many = ompi_stream_mbps(s, multi, pipe_p, count, rails);
      print_row(s, {one, many, many / one});
    }

    std::vector<RailStat> stats;
    const std::size_t probe = 1048576;
    ompi_stream_mbps(probe, multi, pipe_p, 16, rails, &stats);
    std::printf("\nPer-rail breakdown at %s (receiver side — the puller moves "
                "the fragments):\n", size_label(probe).c_str());
    std::printf("%-10s %14s %14s\n", "rail", "tx_bytes", "retransmits");
    for (const RailStat& r : stats)
      std::printf("%-10s %14llu %14llu\n", r.name.c_str(),
                  static_cast<unsigned long long>(r.tx_bytes),
                  static_cast<unsigned long long>(r.retransmissions));
    std::printf(
        "\nExpected: fragment striping engages as soon as a message splits "
        "(a few fragment sizes), approaching %dx at 1MB (each rail is an "
        "independent NIC + link).\n", rails);
    return 0;
  }

  const bool tcp = ptl == "tcp";
  print_header("Fig. 10c — small message bandwidth (MB/s)",
               {"MPICH-QsNetII", tcp ? "PTL-TCP" : "PTL-RDMA-Read",
                tcp ? "PTL-TCP" : "PTL-RDMA-Write"});
  for (std::size_t s : small)
    print_row(s, {mpich_stream_mbps(s), ompi_stream_mbps(s, read_o),
                  ompi_stream_mbps(s, write_o)});

  print_header("Fig. 10d — large message bandwidth (MB/s)",
               {"MPICH-QsNetII", tcp ? "PTL-TCP" : "PTL-RDMA-Read",
                tcp ? "PTL-TCP" : "PTL-RDMA-Write"});
  for (std::size_t s : large) {
    const int count = s >= 262144 ? 16 : 48;
    print_row(s, {mpich_stream_mbps(s, {}, count),
                  ompi_stream_mbps(s, read_o, {}, count),
                  ompi_stream_mbps(s, write_o, {}, count)});
  }
  std::printf(
      "\nExpected (paper): Open MPI notably below MPICH in the middle range "
      "(rendezvous vs Tport pipelining); convergence near the PCI-X limit at "
      "1MB.\n");

  if (monolithic_only) return 0;

  // Crossover: the same blocking stream, monolithic vs pipelined rendezvous.
  // Eager messages (< ~2KB) take the same path in both; the interesting
  // band is 4-64KB, where the monolithic protocol pays one full handshake +
  // registration before any payload moves, while the pipeline pushes
  // fragments behind the RTS and overlaps MMU mapping with the pulls.
  print_header(
      std::string("Crossover — monolithic vs pipelined rendezvous (MB/s)") +
          (frag_size != 0 || depth != 0
               ? " [frag=" + std::to_string(frag_size) +
                     " depth=" + std::to_string(depth) + "]"
               : ""),
      {"monolithic", "pipelined", "speedup"});
  for (std::size_t s : large) {
    const int count = s >= 262144 ? 16 : 48;
    const double mono = ompi_stream_mbps(s, read_o, {}, count);
    const double pipe = ompi_stream_mbps(s, pipe_o, pipe_p, count);
    print_row(s, {mono, pipe, pipe / mono});
  }
  std::printf(
      "\nExpected: >=2x at 2-4KB and ~1.4x at 8KB (full-push fold streams "
      "the payload behind the RTS); within a few %% of monolithic from 16KB "
      "up, where the old protocol already ran near wire saturation.\n");
  return 0;
}
