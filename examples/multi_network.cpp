// multi_network — concurrent message passing over multiple networks, the
// Open MPI design requirement that shaped the PTL (paper §3).
//
// Part 1: one job runs with BOTH the Elan4 PTL and the TCP PTL active.
//         Eager messages take the best rail (Elan4); each long message's
//         pull fragments stripe across Elan4 AND TCP, bandwidth-weighted,
//         while per-sender ordering is preserved across networks. Exits
//         nonzero if TCP carried nothing or ordering broke.
// Part 2: the multirail extension — two Elan4 rails striping one message.
#include <cstdio>
#include <vector>

#include "openqs.h"

int main() {
  using namespace oqs;
  int failures = 0;

  // ---------------- Part 1: Elan4 + TCP, one PML -----------------
  {
    sim::Engine engine;
    ModelParams params;
    elan4::QsNet qsnet(engine, params, 8);
    rte::Runtime rte(engine, qsnet);

    mpi::Options opts;
    opts.use_elan4 = true;
    opts.use_tcp = true;

    rte.launch(2, [&](rte::Env& env) {
      mpi::World world(env, qsnet, opts);
      auto& comm = world.comm();
      constexpr std::size_t kBytes = 256 * 1024;
      if (comm.rank() == 0) {
        std::printf("[multinet] PTLs active: %zu (elan4 + tcp), long messages "
                    "striped across both\n", world.pml().num_ptls());
        const sim::Time t0 = engine.now();
        for (int i = 0; i < 10; ++i) {
          std::vector<std::uint8_t> msg(kBytes, static_cast<std::uint8_t>(i));
          comm.send(msg.data(), msg.size(), dtype::byte_type(), 1, 7);
        }
        std::printf("[multinet] 10 x 256KB over both networks: %.1f us\n",
                    sim::to_us(engine.now() - t0));
      } else {
        bool ok = true;
        for (int i = 0; i < 10; ++i) {
          std::vector<std::uint8_t> msg(kBytes, 0);
          comm.recv(msg.data(), msg.size(), dtype::byte_type(), 0, 7);
          // Ordering must hold even though each message's fragments used
          // physical networks with wildly different latency.
          ok &= msg.front() == static_cast<std::uint8_t>(i) &&
                msg.back() == static_cast<std::uint8_t>(i);
        }
        std::printf("[multinet] cross-network ordering: %s\n",
                    ok ? "preserved" : "VIOLATED");
        if (!ok) ++failures;
      }
      comm.barrier();
      if (comm.rank() == 0) {
        // The sender answers each TCP pull with the fragment's bytes.
        for (std::size_t i = 0; i < world.pml().num_ptls(); ++i) {
          pml::Ptl& p = world.pml().ptl(i);
          if (p.name() != "tcp") continue;
          const std::uint64_t tx = static_cast<ptl_tcp::PtlTcp&>(p).tx_bytes();
          std::printf("[multinet] tcp rail sent %llu bytes of pulled "
                      "fragments\n", static_cast<unsigned long long>(tx));
          if (tx == 0) ++failures;
        }
      }
    });
    engine.run();
  }

  // ---------------- Part 2: multirail striping -----------------
  {
    std::printf("\n[multirail] 1MB transfer, one vs two Elan4 rails\n");
    for (int rails : {1, 2}) {
      sim::Engine engine;
      ModelParams params;
      elan4::QsNet qsnet(engine, params, 8, 64, /*rails=*/2);
      rte::Runtime rte(engine, qsnet);
      mpi::Options opts;
      opts.elan4.rails = rails;
      double mbps = 0;
      rte.launch(2, [&](rte::Env& env) {
        mpi::World world(env, qsnet, opts);
        auto& comm = world.comm();
        std::vector<std::uint8_t> buf(1 << 20, 0x77);
        comm.barrier();
        const sim::Time t0 = engine.now();
        if (comm.rank() == 0) {
          comm.send(buf.data(), buf.size(), dtype::byte_type(), 1, 0);
          std::uint8_t tok;
          comm.recv(&tok, 1, dtype::byte_type(), 1, 1);
          mbps = static_cast<double>(buf.size()) / sim::to_us(engine.now() - t0);
        } else {
          comm.recv(buf.data(), buf.size(), dtype::byte_type(), 0, 0);
          std::uint8_t tok = 1;
          comm.send(&tok, 1, dtype::byte_type(), 0, 1);
        }
        comm.barrier();
      });
      engine.run();
      std::printf("[multirail]   %d rail(s): %.0f MB/s\n", rails, mbps);
    }
  }
  return failures == 0 ? 0 : 1;
}
