// E4 event semantics: countdown, blocking waits, chaining, and the Fig. 5
// count-reset race that motivates the shared completion queue.
#include "elan4/event.h"

#include <gtest/gtest.h>

#include "elan4/device.h"
#include "elan4/qsnet.h"

namespace oqs::elan4 {
namespace {

TEST(E4Event, CountOneTriggersOnSingleFire) {
  sim::Engine e;
  ModelParams p;
  E4Event ev(e, p, nullptr, "t");
  ev.init(1);
  EXPECT_FALSE(ev.done());
  ev.fire();
  EXPECT_TRUE(ev.done());
  EXPECT_EQ(ev.triggers(), 1u);
}

TEST(E4Event, CountNWaitsForAllCompletions) {
  sim::Engine e;
  ModelParams p;
  E4Event ev(e, p, nullptr, "t");
  ev.init(3);
  ev.fire();
  ev.fire();
  EXPECT_FALSE(ev.done());
  ev.fire();
  EXPECT_TRUE(ev.done());
}

TEST(E4Event, FireOnSpentEventIsLost) {
  // Fig. 5d: once the count is <= 0, further completions vanish.
  sim::Engine e;
  ModelParams p;
  E4Event ev(e, p, nullptr, "t");
  ev.init(1);
  ev.fire();
  ev.fire();  // lost
  EXPECT_EQ(ev.lost_fires(), 1u);
  EXPECT_EQ(ev.triggers(), 1u);
  // Re-arming now cannot recover the lost completion.
  ev.reset_count(1);
  EXPECT_FALSE(ev.done());
}

TEST(E4Event, ResetRaceLosesWakeups) {
  // The paper's scenario: host blocks on a count-1 event while two RDMAs are
  // outstanding. The first completion wakes it; it re-arms with
  // reset_count(1), but the second completion fired in between — lost.
  // The host then blocks forever (here: the waiter never resumes).
  sim::Engine e;
  ModelParams p;
  p.interrupt_ns = 100;
  E4Event ev(e, p, nullptr, "race");
  ev.init(1);

  int wakeups = 0;
  bool gave_up = false;
  e.spawn("host", [&] {
    ev.wait_block();
    ++wakeups;          // first RDMA observed
    e.sleep(500);       // host-side processing window...
    ev.reset_count(1);  // ...during which the second RDMA completed
    // The host would block forever; model a watchdog to end the test.
    sim::Time deadline = e.now() + 100000;
    while (!ev.done() && e.now() < deadline) e.sleep(1000);
    gave_up = !ev.done();
  });
  e.schedule(1000, [&] { ev.fire(); });  // RDMA #1
  e.schedule(1200, [&] { ev.fire(); });  // RDMA #2 — lands before the reset
  e.run();
  EXPECT_EQ(wakeups, 1);
  EXPECT_EQ(ev.lost_fires(), 1u);
  EXPECT_TRUE(gave_up) << "second completion should have been lost";
}

TEST(E4Event, BlockedWaiterPaysInterruptLatency) {
  sim::Engine e;
  ModelParams p;
  p.interrupt_ns = 10000;
  E4Event ev(e, p, nullptr, "irq");
  ev.init(1);
  sim::Time woke = 0;
  e.spawn("host", [&] {
    ev.wait_block();
    woke = e.now();
  });
  e.schedule(5000, [&] { ev.fire(); });
  e.run();
  EXPECT_EQ(woke, 5000u + 10000u);
}

TEST(E4Event, WaitAfterDoneReturnsWithoutBlocking) {
  sim::Engine e;
  ModelParams p;
  E4Event ev(e, p, nullptr, "t");
  ev.init(1);
  ev.fire();
  sim::Time woke = 1;
  e.spawn("host", [&] {
    ev.wait_block();
    woke = e.now();
  });
  e.run();
  EXPECT_EQ(woke, 0u);
}

TEST(E4Event, ChainedCommandRunsOnNic) {
  // Chain a QDMA to an event; firing the event must deliver the QDMA into a
  // queue on another node without any host involvement.
  sim::Engine e;
  ModelParams p;
  QsNet net(e, p, 2);
  auto d0 = net.open(0);
  auto d1 = net.open(1);
  ASSERT_TRUE(d0 && d1);
  bool checked = false;

  e.spawn("setup", [&] {
    QdmaQueue* q = d1->create_queue(8);
    E4Event* ev = d0->alloc_event("chain-src");
    ev->init(1);
    std::vector<std::uint8_t> fin{0xF1, 0xF2};
    QdmaCmd cmd;
    cmd.src_vpid = d0->vpid();
    cmd.dest_vpid = d1->vpid();
    cmd.dest_queue = q->id();
    cmd.data = fin;
    ev->chain(cmd);

    ev->fire();  // as if an RDMA completed
    // Wait for the chained QDMA to land remotely.
    d1->queue_wait(q);
    QdmaQueue::Slot slot;
    ASSERT_TRUE(q->consume(&slot));
    EXPECT_EQ(slot.data, fin);
    EXPECT_EQ(slot.src, d0->vpid());
    checked = true;
  });
  e.run();
  EXPECT_TRUE(checked);
}

TEST(E4Event, ClosedDeviceLeavesNoEventsInItsContextsTable) {
  // A released context's next owner must not inherit dangling entries: its
  // events would otherwise land after them at unrelated indices.
  sim::Engine e;
  ModelParams p;
  QsNet net(e, p, 2);
  ContextId ctx = 0;
  {
    auto dev = net.open(0);
    ASSERT_TRUE(dev);
    ctx = dev->context();
    for (int i = 0; i < 3; ++i) dev->alloc_event("gone");
    EXPECT_EQ(dev->nic().event_table_live(ctx), 3u);
  }
  auto again = net.open(0);
  ASSERT_TRUE(again);
  ASSERT_EQ(again->context(), ctx) << "the freed context is claimed again";
  EXPECT_EQ(again->nic().event_table_live(ctx), 0u);
  EXPECT_EQ(again->alloc_event("fresh")->index(), 0)
      << "the lowest free index is reused";
}

TEST(E4Event, StatusPropagatesFromFire) {
  sim::Engine e;
  ModelParams p;
  E4Event ev(e, p, nullptr, "t");
  ev.init(1);
  ev.fire(Status::kFault);
  EXPECT_TRUE(ev.done());
  EXPECT_EQ(ev.status(), Status::kFault);
}

}  // namespace
}  // namespace oqs::elan4
