// Device-level hardware broadcast: fabric multicast, the global event
// table, faults, and dead-member handling.
#include <gtest/gtest.h>

#include <numeric>

#include "elan4/device.h"
#include "elan4/qsnet.h"
#include "net/fabric.h"

namespace oqs::elan4 {
namespace {

struct HwBcastFixture : ::testing::Test {
  sim::Engine engine;
  ModelParams params;
  std::unique_ptr<QsNet> net;
  std::vector<std::unique_ptr<Elan4Device>> devs;

  void SetUp() override {
    net = std::make_unique<QsNet>(engine, params, 4);
    for (int i = 0; i < 4; ++i) devs.push_back(net->open(i));
  }
};

TEST_F(HwBcastFixture, DeliversToAllMembersAndFiresEvents) {
  std::vector<std::uint8_t> src(5000);
  std::iota(src.begin(), src.end(), 1);
  std::vector<std::vector<std::uint8_t>> dst(3, std::vector<std::uint8_t>(5000, 0));

  engine.spawn("t", [&] {
    // Symmetric setup: every device maps a 5000-byte region and allocates
    // one event, in the same order -> same E4 address and event index.
    std::vector<E4Addr> addrs;
    std::vector<E4Event*> evs;
    for (int i = 0; i < 4; ++i) {
      void* base = i == 0 ? static_cast<void*>(src.data())
                          : static_cast<void*>(dst[static_cast<std::size_t>(i - 1)].data());
      addrs.push_back(devs[static_cast<std::size_t>(i)]->map(base, 5000));
      evs.push_back(devs[static_cast<std::size_t>(i)]->alloc_event("hb"));
      evs.back()->init(1);
    }
    ASSERT_EQ(addrs[0], addrs[1]);
    ASSERT_EQ(addrs[0], addrs[3]);
    const int idx = evs[0]->index();

    E4Event* done = devs[0]->alloc_event("inject");
    done->init(1);
    devs[0]->hw_broadcast({devs[1]->vpid(), devs[2]->vpid(), devs[3]->vpid()},
                          addrs[0], 5000, idx, done);
    done->wait_block();
    // Receivers' events fire when their copy lands.
    for (int i = 1; i < 4; ++i) evs[static_cast<std::size_t>(i)]->wait_block();
    for (int i = 0; i < 3; ++i) EXPECT_EQ(dst[static_cast<std::size_t>(i)], src);
  });
  engine.run();
}

TEST_F(HwBcastFixture, LatencyFlatInFanout) {
  // One packet's worth of time regardless of member count.
  auto one_shot = [&](int members) {
    std::vector<std::uint8_t> buf(1024, 7);
    sim::Time done_at = 0;
    engine.spawn("t", [&, members] {
      std::vector<Vpid> group;
      std::vector<E4Event*> evs;
      std::vector<E4Addr> addrs;
      for (int i = 0; i < 4; ++i) {
        addrs.push_back(devs[static_cast<std::size_t>(i)]->map(buf.data(), 1024));
        evs.push_back(devs[static_cast<std::size_t>(i)]->alloc_event("e"));
        evs.back()->init(1);
      }
      for (int i = 1; i <= members; ++i) group.push_back(devs[static_cast<std::size_t>(i)]->vpid());
      const int idx = evs[0]->index();
      const sim::Time t0 = engine.now();
      devs[0]->hw_broadcast(group, addrs[0], 1024, idx, nullptr);
      evs[static_cast<std::size_t>(members)]->wait_block();  // farthest member
      done_at = engine.now() - t0;
      for (int i = 0; i < 4; ++i) devs[static_cast<std::size_t>(i)]->unmap(addrs[static_cast<std::size_t>(i)]);
    });
    engine.run();
    return done_at;
  };
  const sim::Time one = one_shot(1);
  const sim::Time three = one_shot(3);
  // Replication in the switch: three members cost within 10% of one.
  EXPECT_LT(three, one + one / 10);
}

TEST_F(HwBcastFixture, DeadMembersAreSkipped) {
  std::vector<std::uint8_t> buf(256, 3);
  engine.spawn("t", [&] {
    std::vector<E4Addr> addrs;
    std::vector<E4Event*> evs;
    for (int i = 0; i < 4; ++i) {
      addrs.push_back(devs[static_cast<std::size_t>(i)]->map(buf.data(), 256));
      evs.push_back(devs[static_cast<std::size_t>(i)]->alloc_event("e"));
      evs.back()->init(1);
    }
    const int idx = evs[0]->index();
    const Vpid dead = devs[2]->vpid();
    devs[2]->close();
    devs[0]->hw_broadcast({devs[1]->vpid(), dead, devs[3]->vpid()}, addrs[0],
                          256, idx, nullptr);
    evs[1]->wait_block();
    evs[3]->wait_block();
    EXPECT_FALSE(evs[2]->done());
    EXPECT_GE(net->nic(0).rx_drops(), 1u);
  });
  engine.run();
}

TEST_F(HwBcastFixture, UnmappedSourceFaults) {
  engine.spawn("t", [&] {
    E4Event* done = devs[0]->alloc_event("inj");
    done->init(1);
    devs[0]->hw_broadcast({devs[1]->vpid()}, 0xBAD00000, 128, 0, done);
    done->wait_block();
    EXPECT_EQ(done->status(), Status::kFault);
  });
  engine.run();
}

TEST(FabricMulticast, SharedInjectionSerializedEjection) {
  sim::Engine engine;
  ModelParams p;
  p.hop_ns = 100;
  p.link_startup_ns = 0;
  p.link_mbps = 1000.0;
  net::Fabric f(engine, p, 4);

  std::vector<sim::Time> arrivals(3, 0);
  f.multicast(0, {1, 2, 3}, 1000,
              [&](std::size_t i) { arrivals[i] = engine.now(); });
  // A second multicast right behind: must queue on the injection link once,
  // not once per member.
  std::vector<sim::Time> second(3, 0);
  f.multicast(0, {1, 2, 3}, 1000,
              [&](std::size_t i) { second[i] = engine.now(); });
  engine.run();
  for (sim::Time t : arrivals) EXPECT_EQ(t, 1200u);  // like a unicast packet
  for (sim::Time t : second) EXPECT_EQ(t, 2200u);    // one serialization behind
}

}  // namespace
}  // namespace oqs::elan4
