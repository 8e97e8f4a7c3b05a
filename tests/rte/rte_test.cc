// RTE: OOB messaging, registry/name-service, launch and spawn.
#include <gtest/gtest.h>

#include "elan4/qsnet.h"
#include "rte/runtime.h"

namespace oqs::rte {
namespace {

struct RteFixture : ::testing::Test {
  sim::Engine engine;
  ModelParams params;
  std::unique_ptr<elan4::QsNet> net;
  std::unique_ptr<Runtime> rt;

  void SetUp() override {
    net = std::make_unique<elan4::QsNet>(engine, params, 4);
    rt = std::make_unique<Runtime>(engine, *net);
  }
};

TEST_F(RteFixture, OobDeliversTaggedMessages) {
  Oob& oob = rt->oob();
  const int a = oob.add_endpoint();
  const int b = oob.add_endpoint();
  std::vector<int> got;
  engine.spawn("recv", [&] {
    OobMsg m = oob.recv(b, /*tag=*/2);
    got.push_back(m.tag);
    EXPECT_EQ(m.src, a);
    m = oob.recv(b, 1);  // the earlier tag-1 message is still queued
    got.push_back(m.tag);
  });
  engine.spawn("send", [&] {
    oob.send(a, b, 1, {0x01});
    oob.send(a, b, 2, {0x02});
  });
  engine.run();
  EXPECT_EQ(got, (std::vector<int>{2, 1}));
}

TEST_F(RteFixture, OobChargesManagementLatency) {
  Oob& oob = rt->oob();
  const int a = oob.add_endpoint();
  const int b = oob.add_endpoint();
  sim::Time arrive = 0;
  engine.spawn("recv", [&] {
    oob.recv(b, kAnyTag);
    arrive = engine.now();
  });
  engine.spawn("send", [&] { oob.send(a, b, 0, std::vector<std::uint8_t>(900)); });
  engine.run();
  EXPECT_GE(arrive, params.oob_latency_ns);
  EXPECT_GE(arrive, params.oob_latency_ns +
                        ModelParams::xfer_ns(900, params.oob_mbps) - 1);
}

TEST_F(RteFixture, OobToRemovedEndpointIsDropped) {
  Oob& oob = rt->oob();
  const int a = oob.add_endpoint();
  const int b = oob.add_endpoint();
  oob.remove_endpoint(b);
  oob.send(a, b, 0, {1});
  engine.run();  // must not crash; message silently dropped
}

TEST_F(RteFixture, RegistryGetBlocksUntilPut) {
  Registry& reg = rt->registry();
  std::vector<std::uint8_t> got;
  engine.spawn("getter", [&] { got = reg.get("k"); });
  engine.spawn("putter", [&] {
    engine.sleep(500 * sim::kUs);
    reg.put("k", {9, 8, 7});
  });
  engine.run();
  EXPECT_EQ(got, (std::vector<std::uint8_t>{9, 8, 7}));
}

TEST_F(RteFixture, RegistryStampsEachPut) {
  // A value fetched at some instant is stale once its key is put again:
  // the resolver that skips a second round trip relies on this.
  Registry& reg = rt->registry();
  sim::Time fetched = 0;
  bool stale_before = true;
  bool stale_after = false;
  engine.spawn("p", [&] {
    reg.put("k", {1});
    reg.get("k");
    fetched = engine.now();
    stale_before = reg.republished_after("k", fetched);
    reg.put("k", {2});
    stale_after = reg.republished_after("k", fetched);
  });
  engine.run();
  EXPECT_FALSE(stale_before);
  EXPECT_TRUE(stale_after);
  EXPECT_TRUE(reg.republished_after("never-put", fetched));
  EXPECT_EQ(reg.peek("k"), (std::vector<std::uint8_t>{2}));
}

TEST_F(RteFixture, RegistryFetchIsOneRoundTripForEveryKey) {
  // Present keys come back in one round trip plus the reply's bytes; a
  // missing one holds the fetch until it is put, then costs a re-probe.
  Registry& reg = rt->registry();
  const sim::Time rtt = 2 * params.oob_latency_ns;
  sim::Time present = 0;
  sim::Time fetched_late = 0;
  sim::Time put_at = 0;
  engine.spawn("p", [&] {
    reg.put("a", std::vector<std::uint8_t>(300));
    reg.put("b", std::vector<std::uint8_t>(600));
    const sim::Time t0 = engine.now();
    reg.fetch({"a", "b"});
    present = engine.now() - t0;
    reg.fetch({"a", "c"});
    fetched_late = engine.now();
  });
  engine.spawn("late", [&] {
    engine.sleep(5 * sim::kMs);
    reg.put("c", std::vector<std::uint8_t>(100));
    put_at = engine.now();
  });
  engine.run();
  EXPECT_EQ(present, rtt + ModelParams::xfer_ns(900, params.oob_mbps));
  ASSERT_GT(put_at, 0u);
  EXPECT_EQ(fetched_late,
            put_at + rtt + ModelParams::xfer_ns(400, params.oob_mbps));
}

TEST_F(RteFixture, RegistryBarrierHoldsUntilAllArrive) {
  Registry& reg = rt->registry();
  int through = 0;
  sim::Time last_enter = 0;
  std::vector<sim::Time> exits;
  for (int i = 0; i < 3; ++i) {
    engine.spawn("p", [&, i] {
      engine.sleep(static_cast<sim::Time>(i) * 100 * sim::kUs);
      last_enter = std::max(last_enter, engine.now());
      reg.barrier("b", 3);
      exits.push_back(engine.now());
      ++through;
    });
  }
  engine.run();
  EXPECT_EQ(through, 3);
  for (sim::Time t : exits) EXPECT_GE(t, last_enter);
}

TEST_F(RteFixture, LaunchPlacesRoundRobin) {
  std::vector<int> nodes;
  rt->launch(6, [&](Env& env) { nodes.push_back(env.node); });
  engine.run();
  EXPECT_EQ(nodes, (std::vector<int>{0, 1, 2, 3, 0, 1}));
}

TEST_F(RteFixture, LaunchHonorsExplicitPlacement) {
  std::vector<int> nodes;
  rt->launch(3, [&](Env& env) { nodes.push_back(env.node); }, {2, 2, 0});
  engine.run();
  EXPECT_EQ(nodes, (std::vector<int>{2, 2, 0}));
}

TEST_F(RteFixture, SpawnOneCreatesLiveProcess) {
  int spawned_index = -1;
  rt->launch(2, [&](Env& env) {
    if (env.world_index == 0) {
      env.rte->spawn_one(3, [&](Env& cenv) {
        spawned_index = cenv.world_index;
        EXPECT_EQ(cenv.node, 3);
      });
    }
  });
  engine.run();
  EXPECT_EQ(spawned_index, 2);  // after the two launched processes
  EXPECT_EQ(rt->processes_launched(), 3);
}

TEST_F(RteFixture, PodSerializationRoundTrips) {
  std::vector<std::uint8_t> buf;
  put_pod(buf, std::int32_t{-5});
  put_pod(buf, std::uint64_t{0xDEADBEEFCAFEull});
  put_pod(buf, double{2.5});
  std::size_t off = 0;
  EXPECT_EQ(get_pod<std::int32_t>(buf, off), -5);
  EXPECT_EQ(get_pod<std::uint64_t>(buf, off), 0xDEADBEEFCAFEull);
  EXPECT_EQ(get_pod<double>(buf, off), 2.5);
  EXPECT_EQ(off, buf.size());
}

}  // namespace
}  // namespace oqs::rte
