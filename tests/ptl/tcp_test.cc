// Direct tests of the Ethernet substrate and the TCP PTL frame protocol.
#include <gtest/gtest.h>

#include "net/ethernet.h"
#include "testbed.h"

namespace oqs {
namespace {

struct RecordingSink final : net::EthNet::Sink {
  std::vector<std::pair<int, std::vector<std::uint8_t>>> frames;
  void eth_deliver(int src, std::vector<std::uint8_t> frame) override {
    frames.emplace_back(src, std::move(frame));
  }
};

TEST(EthNet, DeliversFramesWithLatencyAndSerialization) {
  sim::Engine engine;
  ModelParams p;
  net::EthNet eth(engine, p);
  RecordingSink a;
  RecordingSink b;
  const int addr_a = eth.attach(&a);
  const int addr_b = eth.attach(&b);

  sim::Time t1 = 0;
  sim::Time t2 = 0;
  engine.schedule(0, [&] {
    eth.send(addr_a, addr_b, std::vector<std::uint8_t>(11000, 1));
    eth.send(addr_a, addr_b, std::vector<std::uint8_t>(11000, 2));
  });
  engine.run();
  ASSERT_EQ(b.frames.size(), 2u);
  EXPECT_EQ(b.frames[0].first, addr_a);
  // Wire time for 11KB at 110MB/s = 100us; latency 30us.
  t1 = p.eth_latency_ns + 2 * ModelParams::xfer_ns(11000, p.tcp_wire_mbps);
  t2 = t1;  // both serialized on a's tx port
  EXPECT_GT(t1, 0u);
  (void)t2;
  EXPECT_TRUE(a.frames.empty());
}

TEST(EthNet, DetachedSinkDropsSilently) {
  sim::Engine engine;
  ModelParams p;
  net::EthNet eth(engine, p);
  RecordingSink a;
  const int addr_a = eth.attach(&a);
  RecordingSink b;
  const int addr_b = eth.attach(&b);
  eth.detach(addr_b);
  eth.send(addr_a, addr_b, {1, 2, 3});
  engine.run();
  EXPECT_TRUE(b.frames.empty());
}

TEST(PtlTcp, EagerAndChunkedPathsVerifiedOverStack) {
  // End-to-end through the MPI layer with only TCP enabled, exercising the
  // rendezvous/chunk protocol with non-contiguous datatypes.
  mpi::Options opts;
  opts.use_elan4 = false;
  opts.use_tcp = true;
  test::TestBed bed;
  bed.run_mpi(2, [&](mpi::World& w) {
    auto& c = w.comm();
    // Non-contiguous on both sides across the chunked path.
    auto t = dtype::Datatype::vec(5000, 3, 4, dtype::byte_type());
    std::vector<std::uint8_t> mem(t->extent() + 4, 0xEE);
    if (c.rank() == 0) {
      for (std::size_t i = 0; i < mem.size(); ++i)
        mem[i] = static_cast<std::uint8_t>(i * 13);
      c.send(mem.data(), 1, t, 1, 0);
    } else {
      c.recv(mem.data(), 1, t, 0, 0);
      for (std::size_t k = 0; k < 5000; ++k) {
        for (std::size_t j = 0; j < 3; ++j)
          ASSERT_EQ(mem[k * 4 + j], static_cast<std::uint8_t>((k * 4 + j) * 13));
        if (k + 1 < 5000) {
          ASSERT_EQ(mem[k * 4 + 3], 0xEE);
        }
      }
    }
    c.barrier();
  }, opts);
}

TEST(PtlTcp, ManyMessagesKeepOrder) {
  mpi::Options opts;
  opts.use_elan4 = false;
  opts.use_tcp = true;
  test::TestBed bed;
  bed.run_mpi(2, [&](mpi::World& w) {
    auto& c = w.comm();
    if (c.rank() == 0) {
      for (std::uint32_t i = 0; i < 25; ++i) {
        // Alternate eager and chunked sizes.
        std::vector<std::uint8_t> buf(i % 2 ? 100u : 100000u,
                                      static_cast<std::uint8_t>(i));
        c.send(buf.data(), buf.size(), dtype::byte_type(), 1, 0);
      }
    } else {
      for (std::uint32_t i = 0; i < 25; ++i) {
        std::vector<std::uint8_t> buf(i % 2 ? 100u : 100000u, 0xFF);
        c.recv(buf.data(), buf.size(), dtype::byte_type(), 0, 0);
        ASSERT_EQ(buf[0], static_cast<std::uint8_t>(i));
        ASSERT_EQ(buf.back(), static_cast<std::uint8_t>(i));
      }
    }
    c.barrier();
  }, opts);
}

}  // namespace
}  // namespace oqs
