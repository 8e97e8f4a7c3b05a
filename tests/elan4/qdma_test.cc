// QDMA end-to-end: delivery, integrity, ordering, limits, failure modes.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "elan4/device.h"
#include "base/log.h"
#include "elan4/qsnet.h"
#include "obs/metrics.h"
#include "sim/rng.h"

namespace oqs::elan4 {
namespace {

struct QdmaFixture : ::testing::Test {
  sim::Engine engine;
  ModelParams params;
  std::unique_ptr<QsNet> net;

  void SetUp() override { net = std::make_unique<QsNet>(engine, params, 4); }
};

TEST_F(QdmaFixture, DeliversPayloadIntact) {
  auto d0 = net->open(0);
  auto d1 = net->open(1);
  std::vector<std::uint8_t> msg(777);
  std::iota(msg.begin(), msg.end(), 0);
  bool verified = false;

  engine.spawn("recv", [&] {
    QdmaQueue* q = d1->create_queue(16);
    engine.sleep(1);  // let the sender learn the queue id out of band
    d1->queue_wait(q);
    QdmaQueue::Slot s;
    ASSERT_TRUE(q->consume(&s));
    EXPECT_EQ(s.data, msg);
    EXPECT_EQ(s.src, d0->vpid());
    verified = true;
  });
  engine.spawn("send", [&] {
    engine.sleep(10);
    EXPECT_EQ(d0->post_qdma(d1->vpid(), 1, msg), Status::kOk);
  });
  engine.run();
  EXPECT_TRUE(verified);
}

TEST_F(QdmaFixture, PreservesOrderFromOneSender) {
  auto d0 = net->open(0);
  auto d1 = net->open(1);
  QdmaQueue* q = nullptr;
  std::vector<int> got;

  engine.spawn("recv", [&] {
    q = d1->create_queue(64);
    for (int i = 0; i < 20; ++i) {
      d1->queue_wait(q);
      QdmaQueue::Slot s;
      ASSERT_TRUE(q->consume(&s));
      got.push_back(s.data[0]);
    }
  });
  engine.spawn("send", [&] {
    engine.sleep(100);
    for (int i = 0; i < 20; ++i) {
      std::vector<std::uint8_t> m{static_cast<std::uint8_t>(i)};
      d0->post_qdma(d1->vpid(), 1, m);
    }
  });
  engine.run();
  ASSERT_EQ(got.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], i);
}

TEST_F(QdmaFixture, PayloadIsSnapshottedBeforeThePostCharge) {
  // post_qdma suspends its caller for the host post cost. A second fiber
  // that rewrites and frees the source buffer inside that window must not
  // change what lands: the device copied the bytes on entry.
  auto d0 = net->open(0);
  auto d1 = net->open(1);
  ASSERT_GT(params.host_qdma_post_ns, 1u);
  auto src = std::make_unique<std::vector<std::uint8_t>>(64);
  std::iota(src->begin(), src->end(), 7);
  const std::vector<std::uint8_t> original = *src;
  QdmaQueue* q = nullptr;
  bool landed = false;

  engine.spawn("recv", [&] {
    q = d1->create_queue(8);
    d1->queue_wait(q);
    QdmaQueue::Slot s;
    ASSERT_TRUE(q->consume(&s));
    EXPECT_EQ(s.data, original);
    landed = true;
  });
  engine.spawn("send", [&] {
    EXPECT_EQ(d0->post_qdma(d1->vpid(), q->id(), *src), Status::kOk);
  });
  engine.spawn("vandal", [&] {
    engine.sleep(1);  // inside the sender's post charge
    std::fill(src->begin(), src->end(), 0xEE);
    src.reset();
  });
  engine.run();
  EXPECT_EQ(src, nullptr);
  EXPECT_TRUE(landed);
}

TEST_F(QdmaFixture, RejectsOversizedMessage) {
  auto d0 = net->open(0);
  auto d1 = net->open(1);
  engine.spawn("send", [&] {
    std::vector<std::uint8_t> big(2049);
    EXPECT_EQ(d0->post_qdma(d1->vpid(), 1, big), Status::kBadParam);
    std::vector<std::uint8_t> max(2048);
    EXPECT_EQ(d0->post_qdma(d1->vpid(), 1, max), Status::kOk);
  });
  engine.run();
}

TEST_F(QdmaFixture, LocalEventFiresOnInjection) {
  auto d0 = net->open(0);
  auto d1 = net->open(1);
  engine.spawn("t", [&] {
    d1->create_queue(8);
    E4Event* done = d0->alloc_event("send-done");
    done->init(1);
    std::vector<std::uint8_t> m(128, 0xAB);
    d0->post_qdma(d1->vpid(), 1, m, done);
    done->wait_block();
    EXPECT_TRUE(done->done());
  });
  engine.run();
}

TEST_F(QdmaFixture, QueueOverflowCountsDrops) {
  auto d0 = net->open(0);
  auto d1 = net->open(1);
  QdmaQueue* q = nullptr;
  engine.spawn("t", [&] {
    q = d1->create_queue(/*num_slots=*/4);
    std::vector<std::uint8_t> m(8, 1);
    for (int i = 0; i < 10; ++i) d0->post_qdma(d1->vpid(), q->id(), m);
    engine.sleep(1'000'000);
    EXPECT_EQ(q->pending(), 4u);
    EXPECT_EQ(q->overflows(), 6u);
  });
  engine.run();
}

TEST_F(QdmaFixture, PostToReleasedVpidIsDropped) {
  auto d0 = net->open(0);
  auto d1 = net->open(1);
  auto d2 = net->open(2);
  const Vpid dead = d1->vpid();
  constexpr int kPosts = 5;
  constexpr int kNoSuchQueue = 99;
  obs::Counter& drops = obs::metrics().counter("elan4.nic.dead_vpid_drops");
  const std::uint64_t drops_before = drops.value();
  const log::Level saved = log::level();
  log::set_level(log::Level::kWarn);
  ::testing::internal::CaptureStderr();
  engine.spawn("t", [&] {
    d1->close();
    std::vector<std::uint8_t> m(8, 1);
    for (int i = 0; i < kPosts; ++i) {
      EXPECT_EQ(d0->post_qdma(dead, 1, m), Status::kOk);  // accepted locally
      EXPECT_EQ(d0->post_qdma(d2->vpid(), kNoSuchQueue, m), Status::kOk);
    }
    engine.sleep(1'000'000);
  });
  engine.run();
  const std::string err = ::testing::internal::GetCapturedStderr();
  log::set_level(saved);
  // Every drop is counted: dead-vpid drops at the sender's NIC (resolution
  // time), unknown-queue drops at the receiver's. Each NIC logs only its
  // first.
  EXPECT_EQ(net->nic(0).rx_drops(), static_cast<std::uint64_t>(kPosts));
  EXPECT_EQ(net->nic(2).rx_drops(), static_cast<std::uint64_t>(kPosts));
  EXPECT_EQ(drops.value() - drops_before, static_cast<std::uint64_t>(kPosts));
  auto count = [&err](const std::string& what) {
    std::size_t n = 0;
    for (std::size_t at = err.find(what); at != std::string::npos;
         at = err.find(what, at + 1))
      ++n;
    return n;
  };
  EXPECT_EQ(count("QDMA to dead vpid"), 1u) << err;
  EXPECT_EQ(count("QDMA for unknown queue"), 1u) << err;
  EXPECT_EQ(count("WARN"), 2u) << err;
}

TEST_F(QdmaFixture, LoopbackSameNodeBetweenContexts) {
  auto a = net->open(2);
  auto b = net->open(2);  // second process on the same node
  ASSERT_TRUE(a && b);
  EXPECT_NE(a->vpid(), b->vpid());
  bool got = false;
  engine.spawn("t", [&] {
    QdmaQueue* q = b->create_queue(8);
    std::vector<std::uint8_t> m{42};
    a->post_qdma(b->vpid(), q->id(), m);
    b->queue_wait(q);
    QdmaQueue::Slot s;
    ASSERT_TRUE(q->consume(&s));
    EXPECT_EQ(s.data[0], 42);
    got = true;
  });
  engine.run();
  EXPECT_TRUE(got);
}

TEST_F(QdmaFixture, ManyToOneAllArrive) {
  auto d0 = net->open(0);
  auto d1 = net->open(1);
  auto d2 = net->open(2);
  auto d3 = net->open(3);
  QdmaQueue* q = nullptr;
  engine.spawn("setup", [&] { q = d0->create_queue(256); });
  for (auto* d : {d1.get(), d2.get(), d3.get()}) {
    engine.spawn("send", [&, d] {
      engine.sleep(50);
      for (int i = 0; i < 30; ++i) {
        std::vector<std::uint8_t> m{static_cast<std::uint8_t>(d->vpid())};
        d->post_qdma(d0->vpid(), 1, m);
      }
    });
  }
  engine.run();
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(q->total_posted(), 90u);
  EXPECT_EQ(q->overflows(), 0u);
}

}  // namespace
}  // namespace oqs::elan4
