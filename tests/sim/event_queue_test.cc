// Event queue: (when, seq) dispatch order — FIFO among ties, which a heap
// gets from seq alone, against a reference heap on mixed and tie-heavy
// workloads — plus the pooled-node storage paths (inline, heap-holder
// fallback, teardown).
#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <random>
#include <utility>
#include <vector>

namespace oqs::sim {
namespace {

// Pops everything, returning (when, id) in dispatch order.
std::vector<std::pair<Time, int>> drain(EventQueue& q, std::vector<int>& ids) {
  std::vector<std::pair<Time, int>> out;
  while (!q.empty()) {
    const Time next = q.next_time();
    Time when = 0;
    EventQueue::Event* e = q.pop(&when);
    EXPECT_EQ(when, next);
    const std::size_t before = ids.size();
    EventQueue::run(e);
    q.recycle(e);
    EXPECT_EQ(ids.size(), before + 1);
    out.emplace_back(when, ids.back());
  }
  return out;
}

TEST(EventQueue, SameInstantIsFifo) {
  EventQueue q;
  std::vector<int> ids;
  for (int i = 0; i < 1000; ++i) q.push(42, [&ids, i] { ids.push_back(i); });
  std::vector<int> sink;
  auto order = drain(q, ids);
  ASSERT_EQ(order.size(), 1000u);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)].first, 42u);
    EXPECT_EQ(order[static_cast<std::size_t>(i)].second, i);
  }
  (void)sink;
}

// Interleaved pushes and pops against a (when, seq) reference heap, each
// push `offset()` past the last pop (the engine never pushes into the past).
void matches_reference(std::mt19937& rng,
                       const std::function<Time()>& offset) {
  std::uniform_int_distribution<int> coin(0, 99);

  using Ref = std::pair<Time, std::uint64_t>;  // (when, seq)
  auto cmp = [](const Ref& a, const Ref& b) { return a > b; };
  std::priority_queue<Ref, std::vector<Ref>, decltype(cmp)> ref(cmp);

  EventQueue q;
  std::vector<int> ids;
  std::uint64_t seq = 0;
  Time floor = 0;

  for (int step = 0; step < 20000; ++step) {
    const bool push = q.empty() || coin(rng) < 60;
    if (push) {
      const Time when = floor + offset();
      const int id = static_cast<int>(seq);
      q.push(when, [&ids, id] { ids.push_back(id); });
      ref.emplace(when, seq);
      ++seq;
    } else {
      const auto [ref_when, ref_seq] = ref.top();
      ref.pop();
      Time when = 0;
      EventQueue::Event* e = q.pop(&when);
      EventQueue::run(e);
      q.recycle(e);
      ASSERT_EQ(when, ref_when);
      ASSERT_EQ(static_cast<std::uint64_t>(ids.back()), ref_seq);
      floor = when;
    }
  }
  while (!ref.empty()) {
    const auto [ref_when, ref_seq] = ref.top();
    ref.pop();
    Time when = 0;
    EventQueue::Event* e = q.pop(&when);
    EventQueue::run(e);
    q.recycle(e);
    ASSERT_EQ(when, ref_when);
    ASSERT_EQ(static_cast<std::uint64_t>(ids.back()), ref_seq);
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, MatchesReferenceHeapOnRandomWorkload) {
  std::mt19937 rng(12345);
  {
    SCOPED_TRACE("near spacing with far-future outliers");
    std::uniform_int_distribution<Time> near_t(0, 5000);
    std::uniform_int_distribution<Time> far_t(0, 50'000'000);
    std::uniform_int_distribution<int> coin(0, 99);
    matches_reference(rng, [&] {
      return coin(rng) < 90 ? near_t(rng) % 5000 : far_t(rng);
    });
  }
  {
    // A heap is not stable: with most pushes tied, FIFO order among them
    // comes only from seq.
    SCOPED_TRACE("a handful of instants, most pushes tied");
    constexpr std::array<Time, 4> kInstants = {0, 1, 64, 1000};
    std::uniform_int_distribution<std::size_t> pick(0, kInstants.size() - 1);
    matches_reference(rng, [&] { return kInstants[pick(rng)]; });
  }
}

TEST(EventQueue, WidelySpacedEventsPopInTimeOrder) {
  // Events 10 ms apart, pushed latest first, pop in time order.
  EventQueue q;
  std::vector<int> ids;
  constexpr Time kGap = 10'000'000;
  for (int i = 0; i < 200; ++i) {
    q.push(static_cast<Time>(199 - i) * kGap,
           [&ids, i] { ids.push_back(199 - i); });
  }
  auto order = drain(q, ids);
  ASSERT_EQ(order.size(), 200u);
  for (int i = 0; i < 200; ++i)
    EXPECT_EQ(order[static_cast<std::size_t>(i)].second, i);
}

TEST(EventQueue, RepeatedInstantsPopInTimeThenFifoOrder) {
  // Cycling through ~1000 distinct timestamps, twelve pushes each: order
  // is (when, seq) throughout.
  EventQueue q;
  std::vector<int> ids;
  for (int i = 0; i < 12000; ++i) {
    const Time when = static_cast<Time>(i % 997);
    q.push(when, [&ids, i] { ids.push_back(i); });
  }
  auto order = drain(q, ids);
  ASSERT_EQ(order.size(), 12000u);
  for (std::size_t i = 1; i < order.size(); ++i) {
    ASSERT_LE(order[i - 1].first, order[i].first);
    if (order[i - 1].first == order[i].first) {
      ASSERT_LT(order[i - 1].second, order[i].second);  // FIFO among ties
    }
  }
}

TEST(EventQueue, LargeCallableTakesHeapHolderPath) {
  EventQueue q;
  std::array<std::uint8_t, 256> big{};  // > kInlineBytes, by design
  static_assert(sizeof(big) > EventQueue::kInlineBytes);
  big[0] = 1;
  big[255] = 99;
  int sum = 0;
  q.push(10, [big, &sum] { sum = big[0] + big[255]; });
  Time when = 0;
  EventQueue::Event* e = q.pop(&when);
  EventQueue::run(e);
  q.recycle(e);
  EXPECT_EQ(when, 10u);
  EXPECT_EQ(sum, 100);
}

TEST(EventQueue, DestructorReleasesPendingCallables) {
  // Pending events (inline, far-future, oversized) own resources; the
  // queue's destructor must release them without running the callables.
  auto near_res = std::make_shared<int>(1);
  auto far_res = std::make_shared<int>(2);
  auto big_res = std::make_shared<int>(3);
  bool ran = false;
  {
    EventQueue q;
    q.push(5, [near_res, &ran] { ran = true; });
    q.push(Time{1} << 50, [far_res, &ran] { ran = true; });
    std::array<std::uint8_t, 200> pad{};
    q.push(7, [big_res, pad, &ran] {
      ran = true;
      (void)pad;
    });
    EXPECT_EQ(near_res.use_count(), 2);
    EXPECT_EQ(far_res.use_count(), 2);
    EXPECT_EQ(big_res.use_count(), 2);
  }
  EXPECT_FALSE(ran);
  EXPECT_EQ(near_res.use_count(), 1);
  EXPECT_EQ(far_res.use_count(), 1);
  EXPECT_EQ(big_res.use_count(), 1);
}

TEST(EventQueue, NodesAreRecycledNotLeaked) {
  // Steady-state schedule/dispatch must reuse pooled nodes: after the first
  // burst fills the pool, churning the same depth allocates no new slabs.
  EventQueue q;
  std::vector<int> ids;
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 64; ++i)
      q.push(static_cast<Time>(round * 10 + i % 3), [&ids, i] { ids.push_back(i); });
    while (!q.empty()) {
      Time when = 0;
      EventQueue::Event* e = q.pop(&when);
      EventQueue::run(e);
      q.recycle(e);
    }
  }
  EXPECT_EQ(ids.size(), 6400u);
}

}  // namespace
}  // namespace oqs::sim
