// PML matching semantics in isolation, via a mock PTL: posted/unexpected
// queues, wildcards, per-sender sequence reordering across PTLs, blocking
// waits, instrumentation probes.
#include <gtest/gtest.h>

#include <deque>
#include <memory>

#include "pml/pml.h"

namespace oqs::pml {
namespace {

// A poll round with no points: the test drives delivery by hand.
class NoPoints : public sim::PollPlan {
 public:
  int watch(sim::IdleWait&) override { return 0; }
  bool quiet() const override { return true; }
  sim::Time point_ns() const override { return ModelParams{}.host_poll_ns; }
};

// A PTL that packs everything inline and parks frames in a queue the test
// pumps by hand — including out of order, as if they raced over two rails.
class MockPtl final : public Ptl, public NoPoints {
 public:
  MockPtl(std::string name, double weight) : name_(std::move(name)), weight_(weight) {}

  Pml* peer_pml = nullptr;

  const std::string& name() const override { return name_; }
  std::size_t eager_limit() const override { return 1 << 20; }
  double bandwidth_weight() const override { return weight_; }
  std::vector<std::uint8_t> contact() const override { return {}; }
  Status add_peer(int gid, const ContactInfo&) override {
    peers_.insert(gid);
    return Status::kOk;
  }
  bool reaches(int gid) const override { return peers_.count(gid) > 0; }

  void send_first(SendRequest& req) override {
    auto frag = std::make_unique<FirstFrag>();
    frag->hdr = req.hdr;
    frag->hdr.kind = FragKind::kEager;
    frag->inline_data.resize(req.total_bytes());
    req.convertor.pack(frag->inline_data.data(), req.total_bytes());
    pending.push_back(std::move(frag));
    // Buffered completion.
    req.add_progress(req.total_bytes());
  }

  int progress() override { return 0; }
  sim::PollPlan& poll_plan() override { return *this; }
  int sweep(std::size_t, bool) override { return progress(); }
  void finalize() override {}

  // Deliver the i-th pending frame into the receiving PML.
  void pump(std::size_t index = 0) {
    ASSERT_LT(index, pending.size());
    auto it = pending.begin() + static_cast<std::ptrdiff_t>(index);
    std::unique_ptr<FirstFrag> f = std::move(*it);
    pending.erase(it);
    f->ptl = this;
    peer_pml->incoming_first(std::move(f));
  }
  void pump_all() {
    while (!pending.empty()) pump(0);
  }

  std::deque<std::unique_ptr<FirstFrag>> pending;

 private:
  std::string name_;
  double weight_;
  std::set<int> peers_;
};

struct PmlFixture : ::testing::Test {
  sim::Engine engine;
  ModelParams params;
  sim::Cpu cpu{engine, 2, 0};
  std::unique_ptr<Pml> sender;
  std::unique_ptr<Pml> receiver;
  MockPtl* tx = nullptr;  // sender-side module

  void SetUp() override {
    sim::ProcessCtx cs{&engine, &cpu, &params, /*gid=*/0};
    sim::ProcessCtx cr{&engine, &cpu, &params, /*gid=*/1};
    sender = std::make_unique<Pml>(cs);
    receiver = std::make_unique<Pml>(cr);
    auto ptl = std::make_unique<MockPtl>("mock", 100.0);
    tx = ptl.get();
    tx->peer_pml = receiver.get();
    tx->add_peer(1, {});
    sender->add_ptl(std::move(ptl));
    // Receiver side needs its own (unused-for-send) module for symmetry.
    auto rptl = std::make_unique<MockPtl>("mock", 100.0);
    rptl->peer_pml = sender.get();
    rptl->add_peer(0, {});
    receiver->add_ptl(std::move(rptl));
  }

  // All PML entry points charge CPU, so calls run inside a fiber.
  void in_fiber(std::function<void()> fn) {
    engine.spawn("test", std::move(fn));
    engine.run();
  }

  void send_bytes(const void* buf, std::size_t n, int tag,
                  std::unique_ptr<SendRequest>* out) {
    *out = std::make_unique<SendRequest>(engine, dtype::byte_type(), buf, n);
    sender->start_send(**out, /*ctx=*/0, /*src_rank=*/0, /*dst_rank=*/1, tag,
                       /*dst_gid=*/1);
  }
};

TEST_F(PmlFixture, PostedReceiveMatchesArrival) {
  in_fiber([&] {
    std::uint32_t v = 0xABCD;
    std::uint32_t got = 0;
    RecvRequest rr(engine, dtype::byte_type(), &got, 4);
    rr.ctx = 0;
    rr.src_rank = 0;
    rr.tag = 5;
    receiver->post_recv(rr);
    std::unique_ptr<SendRequest> sr;
    send_bytes(&v, 4, 5, &sr);
    tx->pump_all();
    EXPECT_TRUE(rr.complete());
    EXPECT_EQ(got, 0xABCDu);
    EXPECT_EQ(receiver->unexpected_count(), 0u);
  });
}

TEST_F(PmlFixture, UnexpectedArrivalMatchesLaterPost) {
  in_fiber([&] {
    std::uint32_t v = 7;
    std::unique_ptr<SendRequest> sr;
    send_bytes(&v, 4, 9, &sr);
    tx->pump_all();
    EXPECT_EQ(receiver->unexpected_count(), 1u);
    std::uint32_t got = 0;
    RecvRequest rr(engine, dtype::byte_type(), &got, 4);
    rr.ctx = 0;
    rr.src_rank = kAnySource;
    rr.tag = 9;
    receiver->post_recv(rr);
    EXPECT_TRUE(rr.complete());
    EXPECT_EQ(got, 7u);
  });
}

TEST_F(PmlFixture, WildcardTakesEarliestUnexpected) {
  in_fiber([&] {
    std::uint32_t a = 1;
    std::uint32_t b = 2;
    std::unique_ptr<SendRequest> s1;
    std::unique_ptr<SendRequest> s2;
    send_bytes(&a, 4, 10, &s1);
    send_bytes(&b, 4, 20, &s2);
    tx->pump_all();
    std::uint32_t got = 0;
    RecvRequest rr(engine, dtype::byte_type(), &got, 4);
    rr.ctx = 0;
    rr.src_rank = kAnySource;
    rr.tag = kAnyTag;
    receiver->post_recv(rr);
    EXPECT_EQ(got, 1u);  // arrival order, not tag order
  });
}

TEST_F(PmlFixture, TagSelectivityAcrossUnexpected) {
  in_fiber([&] {
    std::uint32_t a = 1;
    std::uint32_t b = 2;
    std::unique_ptr<SendRequest> s1;
    std::unique_ptr<SendRequest> s2;
    send_bytes(&a, 4, 10, &s1);
    send_bytes(&b, 4, 20, &s2);
    tx->pump_all();
    std::uint32_t got = 0;
    RecvRequest rr(engine, dtype::byte_type(), &got, 4);
    rr.ctx = 0;
    rr.src_rank = 0;
    rr.tag = 20;
    receiver->post_recv(rr);
    EXPECT_EQ(got, 2u);
    EXPECT_EQ(receiver->unexpected_count(), 1u);  // tag 10 still queued
  });
}

TEST_F(PmlFixture, ContextSeparatesTraffic) {
  in_fiber([&] {
    std::uint32_t v = 3;
    std::unique_ptr<SendRequest> sr =
        std::make_unique<SendRequest>(engine, dtype::byte_type(), &v, 4);
    sender->start_send(*sr, /*ctx=*/7, 0, 1, /*tag=*/0, 1);
    tx->pump_all();
    std::uint32_t got = 0;
    RecvRequest rr(engine, dtype::byte_type(), &got, 4);
    rr.ctx = 8;  // different communicator
    rr.src_rank = kAnySource;
    rr.tag = kAnyTag;
    receiver->post_recv(rr);
    EXPECT_FALSE(rr.complete());
    EXPECT_EQ(receiver->unexpected_count(), 1u);
    EXPECT_EQ(receiver->posted_count(), 1u);
    // The receive never matches: cancel before it goes out of scope.
    receiver->cancel(rr);
    EXPECT_TRUE(rr.complete());
    EXPECT_EQ(rr.status(), Status::kShutdown);
    EXPECT_EQ(receiver->posted_count(), 0u);
  });
}

TEST_F(PmlFixture, OutOfOrderArrivalsAreHeldForSequence) {
  in_fiber([&] {
    std::uint32_t vals[3] = {10, 20, 30};
    std::unique_ptr<SendRequest> s[3];
    for (int i = 0; i < 3; ++i) send_bytes(&vals[i], 4, 1, &s[i]);
    ASSERT_EQ(tx->pending.size(), 3u);
    // Deliver in reverse: seq 3, then 2, then 1.
    tx->pump(2);
    EXPECT_EQ(receiver->unexpected_count(), 0u);  // held, not admitted
    tx->pump(1);
    EXPECT_EQ(receiver->unexpected_count(), 0u);
    tx->pump(0);
    EXPECT_EQ(receiver->unexpected_count(), 3u);  // admitted 1,2,3 in order

    // Receives now match in send order.
    for (int i = 0; i < 3; ++i) {
      std::uint32_t got = 0;
      RecvRequest rr(engine, dtype::byte_type(), &got, 4);
      rr.ctx = 0;
      rr.src_rank = 0;
      rr.tag = 1;
      receiver->post_recv(rr);
      EXPECT_EQ(got, vals[i]);
    }
  });
}

TEST_F(PmlFixture, SendToUnknownPeerFails) {
  in_fiber([&] {
    std::uint32_t v = 1;
    auto sr = std::make_unique<SendRequest>(engine, dtype::byte_type(), &v, 4);
    sender->start_send(*sr, 0, 0, 1, 0, /*dst_gid=*/42);
    EXPECT_TRUE(sr->complete());
    EXPECT_EQ(sr->status(), Status::kUnreachable);
  });
}

TEST_F(PmlFixture, ProbesObserveTraffic) {
  in_fiber([&] {
    int sends_probed = 0;
    int delivers_probed = 0;
    sender->probe_send_to_ptl = [&] { ++sends_probed; };
    receiver->probe_deliver_to_pml = [&] { ++delivers_probed; };
    std::uint32_t v = 1;
    std::unique_ptr<SendRequest> sr;
    send_bytes(&v, 4, 0, &sr);
    tx->pump_all();
    EXPECT_EQ(sends_probed, 1);
    EXPECT_EQ(delivers_probed, 1);
  });
}

// A blocking-capable rail whose completions only ever surface from
// progress_blocking() — polling it yields nothing.
class BlockingMockPtl final : public Ptl, public NoPoints {
 public:
  explicit BlockingMockPtl(std::string name) : name_(std::move(name)) {}

  Request* target = nullptr;  // completed on the first blocking wait
  bool wired_v = true;
  int progress_calls = 0;
  int blocking_calls = 0;

  const std::string& name() const override { return name_; }
  std::size_t eager_limit() const override { return 1 << 20; }
  double bandwidth_weight() const override { return 1.0; }
  std::vector<std::uint8_t> contact() const override { return {}; }
  Status add_peer(int, const ContactInfo&) override { return Status::kOk; }
  bool reaches(int) const override { return true; }
  bool wired() const override { return wired_v; }
  bool blocking_capable() const override { return true; }
  void send_first(SendRequest&) override {}
  int progress() override {
    ++progress_calls;
    return 0;
  }
  sim::PollPlan& poll_plan() override { return *this; }
  int sweep(std::size_t, bool) override { return progress(); }
  int progress_blocking() override {
    ++blocking_calls;
    if (target != nullptr && !target->complete()) target->finish(Status::kOk);
    return 1;
  }
  void finalize() override {}

 private:
  std::string name_;
};

TEST_F(PmlFixture, WaitBlocksOnSoleWiredBlockingRail) {
  // Two PTL modules are constructed, but only one has live endpoints: the
  // blocking gate counts *wired* rails, so the dormant module must not
  // force the wait into its polling loop. (The old single-PTL gate would
  // spin on progress() forever here.)
  in_fiber([&] {
    sim::ProcessCtx c{&engine, &cpu, &params, /*gid=*/0};
    Pml p(c);
    auto irq = std::make_unique<BlockingMockPtl>("irq");
    auto dormant = std::make_unique<BlockingMockPtl>("dormant");
    dormant->wired_v = false;
    BlockingMockPtl* b = irq.get();
    p.add_ptl(std::move(irq));
    p.add_ptl(std::move(dormant));

    std::uint32_t sink = 0;
    RecvRequest rr(engine, dtype::byte_type(), &sink, 4);
    b->target = &rr;
    p.wait(rr);
    EXPECT_TRUE(rr.complete());
    EXPECT_EQ(b->blocking_calls, 1);
    EXPECT_LE(b->progress_calls, 2);
  });
}

}  // namespace
}  // namespace oqs::pml
