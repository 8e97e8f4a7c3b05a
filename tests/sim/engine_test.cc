// Engine semantics: time ordering, FIFO ties, fiber lifecycle.
#include "sim/engine.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <vector>

#include <sys/mman.h>
#include <unistd.h>

namespace oqs::sim {
namespace {

TEST(Engine, ExecutesEventsInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule(30, [&] { order.push_back(3); });
  e.schedule(10, [&] { order.push_back(1); });
  e.schedule(20, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 30u);
}

TEST(Engine, SameInstantEventsRunFifo) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) e.schedule(5, [&, i] { order.push_back(i); });
  e.run();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Engine, NestedSchedulingAdvancesTime) {
  Engine e;
  Time second = 0;
  e.schedule(10, [&] { e.schedule(15, [&] { second = e.now(); }); });
  e.run();
  EXPECT_EQ(second, 25u);
}

TEST(Engine, RunUntilStopsAtDeadline) {
  Engine e;
  int ran = 0;
  e.schedule(10, [&] { ++ran; });
  e.schedule(100, [&] { ++ran; });
  e.run_until(50);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(e.now(), 50u);
  e.run();
  EXPECT_EQ(ran, 2);
}

TEST(Engine, StopHaltsTheLoop) {
  Engine e;
  int ran = 0;
  e.schedule(10, [&] {
    ++ran;
    e.stop();
  });
  e.schedule(20, [&] { ++ran; });
  e.run();
  EXPECT_EQ(ran, 1);
}

TEST(Engine, FiberRunsAndCompletes) {
  Engine e;
  bool done = false;
  e.spawn("f", [&] { done = true; });
  e.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(e.live_fibers(), 0u);
}

TEST(Engine, FiberSleepAdvancesSimTime) {
  Engine e;
  Time woke = 0;
  e.spawn("sleeper", [&] {
    e.sleep(1000);
    e.sleep(234);
    woke = e.now();
  });
  e.run();
  EXPECT_EQ(woke, 1234u);
}

TEST(Engine, ManyFibersInterleaveDeterministically) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    e.spawn("w" + std::to_string(i), [&, i] {
      for (int k = 0; k < 3; ++k) {
        order.push_back(i * 10 + k);
        e.sleep(10);
      }
    });
  }
  e.run();
  ASSERT_EQ(order.size(), 15u);
  // Round-robin by step: all fibers do step k before any does step k+1.
  for (int k = 0; k < 3; ++k)
    for (int i = 0; i < 5; ++i)
      EXPECT_EQ(order[static_cast<std::size_t>(k * 5 + i)], i * 10 + k);
}

TEST(Engine, ParkAndUnpark) {
  Engine e;
  bool resumed = false;
  Fiber* f = e.spawn("parked", [&] {
    e.park();
    resumed = true;
  });
  e.schedule(500, [&] { e.unpark(f); });
  e.run();
  EXPECT_TRUE(resumed);
  EXPECT_EQ(e.now(), 500u);
}

TEST(Engine, DeepFiberStackSurvives) {
  Engine e;
  // Recurse a few thousand frames to exercise the fiber stack.
  std::function<int(int)> rec = [&](int n) -> int {
    if (n == 0) return 0;
    volatile char pad[64] = {};
    (void)pad;
    return 1 + rec(n - 1);
  };
  int depth = 0;
  e.spawn("deep", [&] { depth = rec(1500); });
  e.run();
  EXPECT_EQ(depth, 1500);
}

TEST(Engine, NestedRunFromFiberDefersReap) {
  Engine e;
  bool inner_done = false;
  std::size_t held_during_outer = 0;
  e.spawn("outer", [&] {
    e.spawn("inner", [&] { inner_done = true; });
    e.run_until(e.now() + 100);
    // The inner fiber finished inside the nested run, but freeing its stack
    // must wait until the engine loop owns the host stack again: the reap is
    // deferred, so both fibers are still held here.
    held_during_outer = e.fiber_count();
  });
  e.run();
  EXPECT_TRUE(inner_done);
  EXPECT_EQ(held_during_outer, 2u);
  EXPECT_EQ(e.fiber_count(), 0u);
}

TEST(Engine, StackPoolReusesReapedStacks) {
  Engine e;
  e.spawn("a", [] {});
  e.run();
  EXPECT_EQ(e.stacks_allocated(), 1u);
  EXPECT_EQ(e.pooled_stacks(), 1u);
  e.spawn("b", [] {});
  e.run();
  EXPECT_EQ(e.stacks_allocated(), 1u);  // recycled, not freshly allocated
  EXPECT_EQ(e.pooled_stacks(), 1u);
}

// Resident pages among the whole pages within [base, base + bytes), or -1
// with errno set when the range is not mapped (mincore's ENOMEM).
long resident_pages(const char* base, std::size_t bytes) {
  const auto page = static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
  const auto lo = (reinterpret_cast<std::uintptr_t>(base) + page - 1) & ~(page - 1);
  const auto hi = (reinterpret_cast<std::uintptr_t>(base) + bytes) & ~(page - 1);
  std::vector<unsigned char> in_core((hi - lo) / page);
  if (mincore(reinterpret_cast<void*>(lo), hi - lo, in_core.data()) != 0)
    return -1;
  long n = 0;
  for (unsigned char c : in_core) n += c & 1;
  return n;
}

TEST(Engine, StackPagesCommitOnTouchAndUnmapWithTheEngine) {
  constexpr std::size_t kBytes = 1 << 20;
  const auto pages = static_cast<long>(kBytes / sysconf(_SC_PAGESIZE));
  const char* base = nullptr;
  long resident_while_running = -1;
  {
    Engine e;
    e.set_stack_bytes(kBytes);
    Fiber* f = e.spawn("shallow", [&] {
      resident_while_running = resident_pages(base, kBytes);
    });
    base = f->stack_base_for_test();
    e.run();
    // A shallow fiber touches the canary page and a few pages at the top;
    // the rest of its stack was never committed.
    EXPECT_GT(resident_while_running, 0);
    EXPECT_LE(resident_while_running, pages / 8) << "of " << pages;
    ASSERT_EQ(e.pooled_stacks(), 1u);
    EXPECT_GE(resident_pages(base, kBytes), 0);  // pooled: still mapped
  }
  // The engine returned its pooled stack to the OS.
  errno = 0;
  EXPECT_EQ(resident_pages(base, kBytes), -1);
  EXPECT_EQ(errno, ENOMEM);
}

TEST(Engine, StackCanaryDetectsOverflow) {
  Engine e;
  Fiber* f = e.spawn("clobber", [] {});
  // Simulate an overflow: scribble the canary region at the stack bottom.
  std::memset(f->stack_base_for_test(), 0, kStackCanaryBytes);
  e.run();
  EXPECT_EQ(e.stack_canary_violations(), 1u);
  EXPECT_EQ(e.pooled_stacks(), 0u);  // a violated stack is never reused
}

#if defined(__SANITIZE_ADDRESS__)
#define OQS_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define OQS_TEST_ASAN 1
#endif
#endif

// A pointer into a reaped fiber's frame is the bug class that parked waits
// (records in fiber frames) make easy to write. Under ASan a pooled stack
// is poisoned, so reading through such a pointer faults at once.
TEST(EngineDeathTest, ReadingAReapedFibersLocalFaultsUnderAsan) {
#ifndef OQS_TEST_ASAN
  GTEST_SKIP() << "needs AddressSanitizer";
#else
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Engine e;
        volatile int* saved = nullptr;
        e.spawn("short-lived", [&saved] {
          volatile int local = 42;
          saved = &local;
        });
        e.run();
        std::printf("%d\n", *saved);
      },
      "AddressSanitizer");
#endif
}

TEST(Engine, StackSizeKnobClampsAndDropsStalePool) {
  Engine e;
  e.set_stack_bytes(1);  // clamped to the floor
  EXPECT_EQ(e.stack_bytes(), 64u * 1024);
  e.spawn("small", [] {});
  e.run();
  EXPECT_EQ(e.pooled_stacks(), 1u);
  e.set_stack_bytes(128 * 1024);  // pooled stacks of the old size are dropped
  EXPECT_EQ(e.pooled_stacks(), 0u);
  e.spawn("larger", [] {});
  e.run();
  EXPECT_EQ(e.stacks_allocated(), 2u);
}

}  // namespace
}  // namespace oqs::sim
