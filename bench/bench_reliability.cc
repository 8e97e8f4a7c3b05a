// Extension benchmark — the price and payoff of end-to-end reliability
// (LA-MPI heritage; Open MPI's §3 fault-tolerance objective).
//
// Three views: what CRC32C framing + verified rendezvous payloads cost on a
// clean wire; delivered goodput as wire corruption rises; and delivered
// goodput as frames are dropped outright, where the ack-clocked go-back-N
// (cumulative acks, retransmission timer, bounded window) carries the
// channel — with the recovery effort itself (retransmissions, timer
// expiries) reported next to the goodput.
//
// Fault knobs (all deterministic; same seed -> same schedule):
//   --drop=P --corrupt=P --dup=P --delay=P   per-packet probabilities for a
//                                            custom row in the loss table
//   --fault-seed=N                           RNG seed for that row
//   --json=BENCH_reliability.json            also emit every row as JSON
//                                            (CI smoke-tests the artifact)
// plus the common --trace=/--metrics options from bench/common.h.
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "net/fault.h"

namespace {

using namespace oqs;
using namespace oqs::bench;

struct LossResult {
  double mbps = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t rtx_timeouts = 0;
  std::uint64_t drops = 0;
};

LossResult goodput_under_faults(const net::FaultProfile& profile,
                                std::uint64_t seed, std::size_t bytes,
                                int count) {
  mpi::Options opts;
  opts.elan4.reliability = true;
  Bed bed;
  if (profile.any()) bed.net->set_faults(profile, seed);
  LossResult res;
  bed.rt->launch(2, [&](rte::Env& env) {
    mpi::World w(env, *bed.net, opts);
    auto& c = w.comm();
    std::vector<std::uint8_t> buf(bytes, 5);
    c.barrier();
    const sim::Time t0 = bed.engine.now();
    if (c.rank() == 0) {
      for (int i = 0; i < count; ++i)
        c.send(buf.data(), bytes, dtype::byte_type(), 1, 0);
      std::uint8_t tok = 0;
      c.recv(&tok, 1, dtype::byte_type(), 1, 1);
      res.mbps = static_cast<double>(bytes) * count /
                 sim::to_us(bed.engine.now() - t0);
    } else {
      for (int i = 0; i < count; ++i)
        c.recv(buf.data(), bytes, dtype::byte_type(), 0, 0);
      std::uint8_t tok = 1;
      c.send(&tok, 1, dtype::byte_type(), 0, 1);
    }
    c.barrier();
    res.retransmissions += w.elan4_ptl()->retransmissions();
    res.rtx_timeouts += w.elan4_ptl()->rtx_timeouts();
    c.barrier();
  });
  bed.engine.run();
  if (bed.net->faults() != nullptr) res.drops = bed.net->faults()->drops();
  return res;
}

double parse_flag(int argc, char** argv, const char* name, double fallback) {
  const std::size_t len = std::strlen(name);
  for (int i = 1; i < argc; ++i)
    if (std::strncmp(argv[i], name, len) == 0)
      return std::atof(argv[i] + len);
  return fallback;
}

}  // namespace

int main(int argc, char** argv) {
  oqs::bench::TraceSession trace_session(argc, argv);
  oqs::bench::JsonRows rows(argc, argv);

  std::printf("Reliability overhead on a clean wire (one-way latency, us)\n");
  std::printf("%-10s %12s %12s\n", "size", "off", "on");
  for (std::size_t s : {4ul, 1024ul, 4096ul, 65536ul}) {
    mpi::Options off;
    mpi::Options on;
    on.elan4.reliability = true;
    const double off_us = ompi_pingpong_us(s, off, {}, 150);
    const double on_us = ompi_pingpong_us(s, on, {}, 150);
    std::printf("%-10zu %12.2f %12.2f\n", s, off_us, on_us);
    rows.add("{\"table\": \"overhead\", \"size\": %zu, "
             "\"off_us\": %.3f, \"on_us\": %.3f}",
             s, off_us, on_us);
  }

  std::printf("\nGoodput under wire corruption (16KB messages, MB/s)\n");
  std::printf("%-14s %12s\n", "corrupt-rate", "goodput");
  for (double p : {0.0, 0.005, 0.02, 0.05}) {
    net::FaultProfile prof;
    prof.corrupt = p;
    const LossResult r = goodput_under_faults(prof, 99, 16384, 48);
    std::printf("%-14.3f %12.2f\n", p, r.mbps);
    rows.add("{\"table\": \"corrupt\", \"rate\": %.3f, "
             "\"goodput_mbps\": %.3f, \"retransmissions\": %llu, "
             "\"rtx_timeouts\": %llu, \"drops\": %llu}",
             p, r.mbps, static_cast<unsigned long long>(r.retransmissions),
             static_cast<unsigned long long>(r.rtx_timeouts),
             static_cast<unsigned long long>(r.drops));
  }

  std::printf(
      "\nGoodput under frame loss (1KB eager messages, go-back-N recovery)\n");
  std::printf("%-14s %12s %10s %10s %10s\n", "drop-rate", "goodput", "rtx",
              "timeouts", "drops");
  for (double p : {0.0, 0.01, 0.02, 0.05, 0.10}) {
    net::FaultProfile prof;
    prof.drop = p;
    const LossResult r = goodput_under_faults(prof, 99, 1024, 400);
    std::printf("%-14.3f %12.2f %10llu %10llu %10llu\n", p, r.mbps,
                static_cast<unsigned long long>(r.retransmissions),
                static_cast<unsigned long long>(r.rtx_timeouts),
                static_cast<unsigned long long>(r.drops));
    rows.add("{\"table\": \"drop\", \"rate\": %.3f, "
             "\"goodput_mbps\": %.3f, \"retransmissions\": %llu, "
             "\"rtx_timeouts\": %llu, \"drops\": %llu}",
             p, r.mbps, static_cast<unsigned long long>(r.retransmissions),
             static_cast<unsigned long long>(r.rtx_timeouts),
             static_cast<unsigned long long>(r.drops));
  }

  // Custom fault mix from the command line (defaults add nothing).
  net::FaultProfile custom;
  custom.drop = parse_flag(argc, argv, "--drop=", 0.0);
  custom.corrupt = parse_flag(argc, argv, "--corrupt=", 0.0);
  custom.duplicate = parse_flag(argc, argv, "--dup=", 0.0);
  custom.delay = parse_flag(argc, argv, "--delay=", 0.0);
  const auto seed = static_cast<std::uint64_t>(
      parse_flag(argc, argv, "--fault-seed=", 1.0));
  if (custom.any()) {
    const LossResult r = goodput_under_faults(custom, seed, 1024, 400);
    std::printf(
        "\nCustom mix (drop=%.3f corrupt=%.3f dup=%.3f delay=%.3f seed=%llu)\n"
        "%-14s %12.2f %10llu %10llu %10llu\n",
        custom.drop, custom.corrupt, custom.duplicate, custom.delay,
        static_cast<unsigned long long>(seed), "goodput", r.mbps,
        static_cast<unsigned long long>(r.retransmissions),
        static_cast<unsigned long long>(r.rtx_timeouts),
        static_cast<unsigned long long>(r.drops));
  }

  std::printf(
      "\nExpected: checksums cost a fixed slice per message (growing with "
      "size at the CRC rate); goodput degrades smoothly with corruption and "
      "with loss while every byte still arrives intact (tests assert "
      "integrity) — the retransmission columns show what the recovery "
      "cost.\n");

  return rows.write() ? 0 : 1;
}
