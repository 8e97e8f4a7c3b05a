// Concurrent multi-network support: TCP-only operation, BML striping
// across Elan4 + TCP, and the multirail Elan4 extension.
#include <gtest/gtest.h>

#include "ptl/tcp/ptl_tcp.h"
#include "testbed.h"

namespace oqs {
namespace {

using test::TestBed;

TEST(MultiNet, TcpOnlyStackMovesData) {
  mpi::Options opts;
  opts.use_elan4 = false;
  opts.use_tcp = true;
  TestBed bed;
  bed.run_mpi(2, [&](mpi::World& w) {
    auto& c = w.comm();
    for (std::size_t bytes : {16ul, 60000ul, 300000ul}) {  // eager and chunked
      std::vector<std::uint8_t> buf(bytes, static_cast<std::uint8_t>(bytes >> 8));
      if (c.rank() == 0) {
        c.send(buf.data(), bytes, dtype::byte_type(), 1, 0);
      } else {
        std::vector<std::uint8_t> got(bytes, 0);
        c.recv(got.data(), bytes, dtype::byte_type(), 0, 0);
        EXPECT_EQ(got, buf);
      }
    }
    c.barrier();
  }, opts);
}

TEST(MultiNet, TcpIsMuchSlowerThanElan4) {
  auto measure = [](bool tcp) {
    mpi::Options opts;
    opts.use_elan4 = !tcp;
    opts.use_tcp = tcp;
    TestBed bed;
    double us = 0;
    bed.run_mpi(2, [&](mpi::World& w) {
      auto& c = w.comm();
      std::uint32_t v = 0;
      c.barrier();
      const sim::Time t0 = w.net().engine().now();
      for (int i = 0; i < 30; ++i) {
        if (c.rank() == 0) {
          c.send(&v, 4, dtype::byte_type(), 1, 0);
          c.recv(&v, 4, dtype::byte_type(), 1, 0);
        } else {
          c.recv(&v, 4, dtype::byte_type(), 0, 0);
          c.send(&v, 4, dtype::byte_type(), 0, 0);
        }
      }
      if (c.rank() == 0) us = sim::to_us(w.net().engine().now() - t0) / 60.0;
      c.barrier();
    }, opts);
    return us;
  };
  const double elan = measure(false);
  const double tcp = measure(true);
  // The motivation of the paper: kernel TCP is an order of magnitude off.
  EXPECT_GT(tcp, 8 * elan);
}

TEST(MultiNet, LongMessagesStripeAcrossBothNetworks) {
  // One job drives both networks: eager traffic takes the best rail (Elan4),
  // while each long message's pull fragments fan out over Elan4 AND TCP.
  // All 10 must arrive intact and in send order. With Elan4 reliability on,
  // the BML's per-fragment checksums cover the pulls over TCP too, and the
  // lossless socket path never needs a re-pull.
  for (const bool reliability : {false, true}) {
    SCOPED_TRACE(reliability ? "elan4 reliability on" : "elan4 reliability off");
    mpi::Options opts;
    opts.use_elan4 = true;
    opts.use_tcp = true;
    opts.elan4.reliability = reliability;
    const std::uint64_t crc_retries_before =
        obs::metrics().counter("bml.stripe.crc_retries").value();
    TestBed bed;
    bed.run_mpi(2, [&](mpi::World& w) {
      auto& c = w.comm();
      // Large enough that TCP's bandwidth-weighted share of the pull
      // fragments is nonzero even beside two Elan4 rails.
      constexpr std::size_t kBytes = 1 << 20;
      if (c.rank() == 0) {
        for (int i = 0; i < 10; ++i) {
          std::vector<std::uint8_t> buf(kBytes, static_cast<std::uint8_t>(i));
          c.send(buf.data(), buf.size(), dtype::byte_type(), 1, 4);
        }
      } else {
        for (int i = 0; i < 10; ++i) {
          std::vector<std::uint8_t> buf(kBytes, 0);
          c.recv(buf.data(), buf.size(), dtype::byte_type(), 0, 4);
          EXPECT_EQ(buf, std::vector<std::uint8_t>(kBytes, static_cast<std::uint8_t>(i)))
              << "message " << i;
        }
      }
      c.barrier();
      // Eager traffic never picks TCP, so any bytes the sender put on its
      // socket answered pulls of payload fragments.
      if (c.rank() == 0) {
        for (std::size_t i = 0; i < w.pml().num_ptls(); ++i) {
          const pml::Ptl& p = w.pml().ptl(i);
          if (p.name() == "tcp") {
            EXPECT_GT(static_cast<const ptl_tcp::PtlTcp&>(p).tx_bytes(), 0u);
          }
        }
      }
      c.barrier();
    }, opts);
    EXPECT_EQ(obs::metrics().counter("bml.stripe.crc_retries").value(),
              crc_retries_before);
  }
}

TEST(MultiNet, BestWeightPrefersElan4) {
  mpi::Options opts;
  opts.use_elan4 = true;
  opts.use_tcp = true;
  TestBed bed;
  bed.run_mpi(2, [&](mpi::World& w) {
    auto& c = w.comm();
    std::uint32_t v = 7;
    c.barrier();
    const sim::Time t0 = w.net().engine().now();
    if (c.rank() == 0) {
      c.send(&v, 4, dtype::byte_type(), 1, 0);
      c.recv(&v, 4, dtype::byte_type(), 1, 0);
    } else {
      c.recv(&v, 4, dtype::byte_type(), 0, 0);
      c.send(&v, 4, dtype::byte_type(), 0, 0);
    }
    const double us = sim::to_us(w.net().engine().now() - t0);
    // TCP alone would take >60us; Elan4 must have been chosen.
    EXPECT_LT(us, 30.0);
    c.barrier();
  }, opts);
}

TEST(MultiNet, BlockedReceiveParksBesideTcp) {
  // With Elan4 and TCP both wired the wait's round is both rails' poll
  // points, the TCP one a probe of its socket inbox: an idle stretch parks,
  // and the receive completes at the instant the spinning rounds gave.
  mpi::Options opts;
  opts.use_tcp = true;
  TestBed bed;
  bed.pin_transport = true;
  std::size_t parked = 0;
  sim::Time received = 0;
  bed.run_mpi(2, [&](mpi::World& w) {
    auto& c = w.comm();
    std::uint32_t v = 7;
    if (c.rank() == 0) {
      w.net().engine().sleep(100 * sim::kUs);
      parked = w.net().engine().parked_waits();
      c.send(&v, 4, dtype::byte_type(), 1, 0);
    } else {
      c.recv(&v, 4, dtype::byte_type(), 0, 0);
      received = w.net().engine().now();
    }
  }, opts);
  EXPECT_EQ(parked, 1u);
  // Init's modex is one registry fetch: a round trip plus 80 B of records.
  EXPECT_EQ(received, 434989u);
}

TEST(MultiNet, MultirailStripesLargeMessages) {
  mpi::Options opts;
  opts.elan4.rails = 2;
  TestBed bed(8, /*rails=*/2);
  bed.run_mpi(2, [&](mpi::World& w) {
    auto& c = w.comm();
    const std::size_t bytes = 1 << 20;
    std::vector<std::uint8_t> buf(bytes);
    for (std::size_t i = 0; i < bytes; ++i)
      buf[i] = static_cast<std::uint8_t>(i * 7);
    if (c.rank() == 0) {
      c.send(buf.data(), bytes, dtype::byte_type(), 1, 0);
    } else {
      std::vector<std::uint8_t> got(bytes, 0);
      c.recv(got.data(), bytes, dtype::byte_type(), 0, 0);
      EXPECT_EQ(got, buf);
    }
    c.barrier();
  }, opts);
}

TEST(MultiNet, MultirailImprovesBandwidth) {
  auto measure = [](int rails) {
    mpi::Options opts;
    opts.elan4.rails = rails;
    TestBed bed(8, 2);
    bed.pin_transport = true;  // explicit 1-rail vs 2-rail comparison
    double mbps = 0;
    bed.run_mpi(2, [&](mpi::World& w) {
      auto& c = w.comm();
      const std::size_t bytes = 1 << 20;
      std::vector<std::uint8_t> buf(bytes, 1);
      c.barrier();
      const sim::Time t0 = w.net().engine().now();
      if (c.rank() == 0) {
        c.send(buf.data(), bytes, dtype::byte_type(), 1, 0);
        std::uint8_t fin = 0;
        c.recv(&fin, 1, dtype::byte_type(), 1, 1);
      } else {
        c.recv(buf.data(), bytes, dtype::byte_type(), 0, 0);
        std::uint8_t fin = 1;
        c.send(&fin, 1, dtype::byte_type(), 0, 1);
      }
      if (c.rank() == 0)
        mbps = static_cast<double>(bytes) / sim::to_us(w.net().engine().now() - t0);
      c.barrier();
    }, opts);
    return mbps;
  };
  const double one = measure(1);
  const double two = measure(2);
  // Two rails should clearly beat one on a 1MB transfer (PCI-X is shared
  // per NIC in our model, and each rail has its own NIC).
  EXPECT_GT(two, one * 1.4);
}

}  // namespace
}  // namespace oqs
