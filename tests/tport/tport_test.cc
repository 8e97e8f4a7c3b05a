// Tport semantics: NIC-side matching, unexpected buffering, wildcards,
// fragmentation, truncation.
#include "tport/tport.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "elan4/qsnet.h"

namespace oqs::tport {
namespace {

struct TportFixture : ::testing::Test {
  sim::Engine engine;
  ModelParams params;
  std::unique_ptr<elan4::QsNet> net;
  std::unique_ptr<TportDomain> domain;

  void SetUp() override {
    net = std::make_unique<elan4::QsNet>(engine, params, 4);
    domain = std::make_unique<TportDomain>(*net);
  }
};

TEST_F(TportFixture, TaggedSendRecvRoundtrip) {
  Tport a(*domain, 0);
  Tport b(*domain, 1);
  std::vector<std::uint8_t> payload(500);
  std::iota(payload.begin(), payload.end(), 9);
  engine.spawn("b", [&] {
    std::vector<std::uint8_t> buf(500, 0);
    Tport::RxReq* r = b.recv(a.vpid(), 77, ~0ull, buf.data(), buf.size());
    b.wait(r);
    EXPECT_EQ(r->len, 500u);
    EXPECT_EQ(r->tag, 77u);
    EXPECT_EQ(buf, payload);
  });
  engine.spawn("a", [&] {
    Tport::TxReq* t = a.send(b.vpid(), 77, payload.data(), payload.size());
    a.wait(t);
    EXPECT_TRUE(t->done);
  });
  engine.run();
}

TEST_F(TportFixture, BlockedWaitParksOnItsFlag) {
  // A receive posted long before its message: the wait's charged flag reads
  // park until the flag is written, and it returns when they would have.
  Tport a(*domain, 0);
  Tport b(*domain, 1);
  std::vector<std::uint8_t> payload(64, 1);
  std::size_t parked = 0;
  sim::Time received = 0;
  engine.spawn("b", [&] {
    std::vector<std::uint8_t> buf(64, 0);
    b.wait(b.recv(a.vpid(), 3, ~0ull, buf.data(), buf.size()));
    received = engine.now();
  });
  engine.spawn("a", [&] {
    engine.sleep(200 * sim::kUs);
    parked = engine.parked_waits();
    a.wait(a.send(b.vpid(), 3, payload.data(), payload.size()));
  });
  engine.run();
  EXPECT_EQ(parked, 1u);
  EXPECT_EQ(received, 202700u);
}

TEST_F(TportFixture, UnexpectedMessageBuffersOnNic) {
  Tport a(*domain, 0);
  Tport b(*domain, 1);
  std::vector<std::uint8_t> payload(2000, 0x3C);
  engine.spawn("a", [&] { a.wait(a.send(b.vpid(), 5, payload.data(), 2000)); });
  engine.spawn("b", [&] {
    engine.sleep(500 * sim::kUs);  // message arrives long before the post
    EXPECT_GT(b.unexpected_bytes(), 0u);
    std::vector<std::uint8_t> buf(2000, 0);
    Tport::RxReq* r = b.recv(kAnyVpid, 5, ~0ull, buf.data(), buf.size());
    b.wait(r);
    EXPECT_EQ(buf, payload);
    EXPECT_EQ(b.unexpected_bytes(), 0u);
  });
  engine.run();
}

TEST_F(TportFixture, RecvClaimsInFlightMessage) {
  // Post lands while a long message is still streaming in fragments.
  Tport a(*domain, 0);
  Tport b(*domain, 1);
  const std::size_t len = 1 << 20;
  std::vector<std::uint8_t> payload(len, 0x5A);
  engine.spawn("a", [&] { a.wait(a.send(b.vpid(), 1, payload.data(), len)); });
  engine.spawn("b", [&] {
    // 1MB takes ~1.2ms; post the receive mid-flight.
    engine.sleep(300 * sim::kUs);
    std::vector<std::uint8_t> buf(len, 0);
    Tport::RxReq* r = b.recv(kAnyVpid, 1, ~0ull, buf.data(), buf.size());
    b.wait(r);
    EXPECT_EQ(buf, payload);
  });
  engine.run();
}

TEST_F(TportFixture, TagMaskAndAnySource) {
  Tport a(*domain, 0);
  Tport b(*domain, 1);
  Tport c(*domain, 2);
  engine.spawn("senders", [&] {
    // Buffers must outlive the nonblocking sends: the NIC reads host
    // memory at injection time.
    std::uint32_t x = 1;
    std::uint32_t y = 2;
    Tport::TxReq* tx1 = a.send(c.vpid(), 0x1010, &x, 4);
    Tport::TxReq* tx2 = b.send(c.vpid(), 0x1020, &y, 4);
    a.wait(tx1);
    b.wait(tx2);
  });
  engine.spawn("c", [&] {
    // Mask matches the 0x10?0 family from any source: both arrive.
    std::uint32_t v1 = 0;
    std::uint32_t v2 = 0;
    Tport::RxReq* r1 = c.recv(kAnyVpid, 0x1000, 0xFF0F, &v1, 4);
    Tport::RxReq* r2 = c.recv(kAnyVpid, 0x1000, 0xFF0F, &v2, 4);
    c.wait(r1);
    c.wait(r2);
    EXPECT_EQ(v1 + v2, 3u);
  });
  engine.run();
}

TEST_F(TportFixture, TruncationFlagsAndClamps) {
  Tport a(*domain, 0);
  Tport b(*domain, 1);
  std::vector<std::uint8_t> payload(300);
  std::iota(payload.begin(), payload.end(), 0);
  engine.spawn("a", [&] { a.wait(a.send(b.vpid(), 9, payload.data(), 300)); });
  engine.spawn("b", [&] {
    std::vector<std::uint8_t> buf(100, 0);
    Tport::RxReq* r = b.recv(kAnyVpid, 9, ~0ull, buf.data(), buf.size());
    b.wait(r);
    EXPECT_TRUE(r->truncated);
    EXPECT_EQ(r->len, 100u);
    payload.resize(100);
    EXPECT_EQ(buf, payload);
  });
  engine.run();
}

TEST_F(TportFixture, ZeroByteMessageMatches) {
  Tport a(*domain, 0);
  Tport b(*domain, 1);
  engine.spawn("a", [&] { a.wait(a.send(b.vpid(), 3, nullptr, 0)); });
  engine.spawn("b", [&] {
    Tport::RxReq* r = b.recv(a.vpid(), 3, ~0ull, nullptr, 0);
    b.wait(r);
    EXPECT_EQ(r->len, 0u);
    EXPECT_FALSE(r->truncated);
  });
  engine.run();
}

TEST_F(TportFixture, ManyMessagesKeepOrderPerPair) {
  Tport a(*domain, 0);
  Tport b(*domain, 1);
  // Each message needs its own live buffer until its send completes.
  static std::uint32_t values[50];
  engine.spawn("a", [&] {
    std::vector<Tport::TxReq*> txs;
    for (std::uint32_t i = 0; i < 50; ++i) {
      values[i] = i;
      txs.push_back(a.send(b.vpid(), 1, &values[i], 4));
    }
    for (auto* t : txs) a.wait(t);
  });
  engine.spawn("b", [&] {
    for (std::uint32_t i = 0; i < 50; ++i) {
      std::uint32_t v = 999;
      Tport::RxReq* r = b.recv(a.vpid(), 1, ~0ull, &v, 4);
      b.wait(r);
      EXPECT_EQ(v, i);
    }
  });
  engine.run();
}

TEST_F(TportFixture, SendToDeadOrUnregisteredVpidFails) {
  Tport a(*domain, 0);
  elan4::Vpid dead;
  {
    Tport tmp(*domain, 1);
    dead = tmp.vpid();
  }  // tmp's Elan context is released: the vpid is no longer live
  auto raw = net->open(2);  // live context with no Tport behind it
  const elan4::Vpid unregistered = raw->vpid();
  engine.spawn("a", [&] {
    std::uint32_t v = 7;
    Tport::TxReq* t1 = a.send(dead, 1, &v, 4);
    EXPECT_TRUE(t1->done);
    EXPECT_TRUE(t1->failed);
    Tport::TxReq* t2 = a.send(unregistered, 1, &v, 4);
    EXPECT_TRUE(t2->done);
    EXPECT_TRUE(t2->failed);
    // wait() on a failed request returns immediately; failure stays visible.
    a.wait(t1);
    EXPECT_TRUE(t1->failed);
    a.wait(t2);  // reclaims t1, whose completion wait() already observed
    EXPECT_TRUE(t2->failed);
  });
  engine.run();
}

TEST_F(TportFixture, SuccessfulSendIsNotFlaggedFailed) {
  Tport a(*domain, 0);
  Tport b(*domain, 1);
  std::uint32_t x = 11;
  engine.spawn("b", [&] {
    std::uint32_t v = 0;
    Tport::RxReq* r = b.recv(a.vpid(), 2, ~0ull, &v, 4);
    b.wait(r);
    EXPECT_EQ(v, 11u);
  });
  engine.spawn("a", [&] {
    Tport::TxReq* t = a.send(b.vpid(), 2, &x, 4);
    a.wait(t);
    EXPECT_TRUE(t->done);
    EXPECT_FALSE(t->failed);
  });
  engine.run();
}

TEST_F(TportFixture, RequestTablesStayBoundedOverLongRuns) {
  Tport a(*domain, 0);
  Tport b(*domain, 1);
  constexpr std::uint32_t kMsgs = 400;
  static std::uint32_t values[kMsgs];
  std::size_t max_tx = 0;
  std::size_t max_rx = 0;
  engine.spawn("a", [&] {
    for (std::uint32_t i = 0; i < kMsgs; ++i) {
      values[i] = i;
      Tport::TxReq* t = a.send(b.vpid(), 1, &values[i], 4);
      a.wait(t);
      EXPECT_TRUE(t->done);  // fields stay readable after wait()
      max_tx = std::max(max_tx, a.outstanding_tx());
    }
  });
  engine.spawn("b", [&] {
    for (std::uint32_t i = 0; i < kMsgs; ++i) {
      std::uint32_t v = 999;
      Tport::RxReq* r = b.recv(a.vpid(), 1, ~0ull, &v, 4);
      b.wait(r);
      EXPECT_EQ(v, i);
      max_rx = std::max(max_rx, b.outstanding_rx());
    }
  });
  engine.run();
  // Completed requests are reaped once observed: the tables never grow with
  // the message count (the old behaviour kept every request for the life of
  // the Tport).
  EXPECT_LE(max_tx, 2u);
  EXPECT_LE(max_rx, 2u);
  EXPECT_LE(a.outstanding_tx(), 1u);
  EXPECT_LE(b.outstanding_rx(), 1u);
}

TEST_F(TportFixture, PeerFailureErrorsPendingRecvsAndReapsSlots) {
  // libelan-style exception delivery: when the capability layer declares a
  // vpid failed, receives pinned to it must error out (done + failed) and
  // their table slots must be reclaimed by the lazy reap — not leak for
  // the life of the Tport. Wildcard receives stay live: another peer can
  // still satisfy them.
  Tport a(*domain, 0);
  Tport b(*domain, 1);
  Tport c(*domain, 2);
  engine.spawn("c", [&] {
    engine.sleep(200 * sim::kUs);  // after b's peer_failed below
    std::uint32_t v = 7;
    c.wait(c.send(b.vpid(), 9, &v, 4));
    std::uint32_t v2 = 8;
    c.wait(c.send(b.vpid(), 77, &v2, 4));
  });
  engine.spawn("b", [&] {
    std::vector<std::uint8_t> b1(64, 0), b2(64, 0);
    std::uint32_t w = 0;
    Tport::RxReq* r1 = b.recv(a.vpid(), 1, ~0ull, b1.data(), b1.size());
    Tport::RxReq* r2 = b.recv(a.vpid(), 2, ~0ull, b2.data(), b2.size());
    Tport::RxReq* rw = b.recv(kAnyVpid, 9, ~0ull, &w, 4);
    EXPECT_EQ(b.outstanding_rx(), 3u);
    b.peer_failed(a.vpid());
    // The pinned receives completed in error without any network traffic.
    b.wait(r1);
    EXPECT_TRUE(r1->failed);
    b.wait(r2);
    EXPECT_TRUE(r2->failed);
    // The wildcard survived the purge and c's message satisfies it.
    b.wait(rw);
    EXPECT_FALSE(rw->failed);
    EXPECT_EQ(w, 7u);
    EXPECT_EQ(rw->src, c.vpid());
    // Regression: the next API entry reaps every observed request — the
    // failed ones must not pin rx_reqs_ slots forever.
    std::uint32_t w2 = 0;
    Tport::RxReq* r3 = b.recv(kAnyVpid, 77, ~0ull, &w2, 4);
    EXPECT_EQ(b.outstanding_rx(), 1u);
    b.wait(r3);
    EXPECT_EQ(w2, 8u);
  });
  engine.run();
}

}  // namespace
}  // namespace oqs::tport
