// CPU model: core limits, FIFO handoff, context-switch charging.
#include "sim/cpu.h"

#include "sim/node.h"

#include <gtest/gtest.h>

namespace oqs::sim {
namespace {

TEST(Cpu, SingleFiberRunsUncontended) {
  Engine e;
  Cpu cpu(e, 2, 100);
  e.spawn("a", [&] {
    cpu.compute(1000);
    EXPECT_EQ(e.now(), 1000u);
    cpu.compute(500);
    EXPECT_EQ(e.now(), 1500u);
  });
  e.run();
  // Same fiber kept the core: no context switches charged.
  EXPECT_EQ(cpu.switches(), 0u);
}

TEST(Cpu, TwoCoresRunTwoFibersInParallel) {
  Engine e;
  Cpu cpu(e, 2, 0);
  Time end_a = 0;
  Time end_b = 0;
  e.spawn("a", [&] {
    cpu.compute(1000);
    end_a = e.now();
  });
  e.spawn("b", [&] {
    cpu.compute(1000);
    end_b = e.now();
  });
  e.run();
  EXPECT_EQ(end_a, 1000u);
  EXPECT_EQ(end_b, 1000u);
}

TEST(Cpu, ThirdFiberQueuesOnTwoCores) {
  Engine e;
  Cpu cpu(e, 2, 0);
  Time end_c = 0;
  e.spawn("a", [&] { cpu.compute(1000); });
  e.spawn("b", [&] { cpu.compute(1000); });
  e.spawn("c", [&] {
    cpu.compute(500);
    end_c = e.now();
  });
  e.run();
  // c waits for a core freed at t=1000, then runs 500ns.
  EXPECT_EQ(end_c, 1500u);
}

TEST(Cpu, ContextSwitchChargedOnOccupantChange) {
  Engine e;
  Cpu cpu(e, 1, 250);
  Time end_b = 0;
  e.spawn("a", [&] { cpu.compute(1000); });
  e.spawn("b", [&] {
    cpu.compute(1000);
    end_b = e.now();
  });
  e.run();
  // b starts at 1000, pays the switch, runs 1000.
  EXPECT_EQ(end_b, 2250u);
  EXPECT_EQ(cpu.switches(), 1u);
}

TEST(Cpu, ReapedOccupantStillCountsAsAnotherFiber) {
  // Each fiber is spawned only after the previous one finished and was
  // reaped, so the allocator tends to hand every new Fiber the same
  // address. The core must still see N distinct occupants.
  constexpr int kFibers = 5;
  Engine e;
  Cpu cpu(e, 1, 250);
  for (int i = 0; i < kFibers; ++i) {
    e.spawn("f" + std::to_string(i), [&] { cpu.compute(100); });
    e.run();
  }
  EXPECT_EQ(cpu.switches(), static_cast<std::uint64_t>(kFibers - 1));
  EXPECT_EQ(e.now(), kFibers * 100u + (kFibers - 1) * 250u);
}

TEST(Cpu, FifoFairnessUnderLoad) {
  Engine e;
  Cpu cpu(e, 1, 0);
  std::vector<int> finish_order;
  for (int i = 0; i < 4; ++i)
    e.spawn("f" + std::to_string(i), [&, i] {
      cpu.compute(100);
      finish_order.push_back(i);
    });
  e.run();
  EXPECT_EQ(finish_order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(e.now(), 400u);
}

TEST(Node, IrqPathSerializesConcurrentInterrupts) {
  Engine e;
  oqs::ModelParams p;
  Node node(e, 0, p);
  // Two interrupts requested at the same instant: the second completes one
  // service time after the first (default IRQ affinity, one CPU handles all).
  const Time t1 = node.irq_reserve(0, 4000);
  const Time t2 = node.irq_reserve(0, 4000);
  EXPECT_EQ(t1, 4000u);
  EXPECT_EQ(t2, 8000u);
  // A later interrupt after the path drained is not delayed.
  const Time t3 = node.irq_reserve(20000, 4000);
  EXPECT_EQ(t3, 24000u);
}

TEST(Cpu, MemoryContentionSlowsConcurrentWork) {
  Engine e;
  Cpu cpu(e, 2, 0, /*memory_contention=*/0.5);
  Time end_a = 0;
  Time end_b = 0;
  e.spawn("a", [&] {
    cpu.compute(1000);
    end_a = e.now();
  });
  e.spawn("b", [&] {
    cpu.compute(1000);
    end_b = e.now();
  });
  e.run();
  // The second fiber starts while the first occupies a core: it pays the
  // shared-bus penalty (the first acquired when no other core was busy).
  EXPECT_EQ(end_a, 1000u);
  EXPECT_EQ(end_b, 1500u);
}

TEST(Cpu, BusyAccountingSumsWork) {
  Engine e;
  Cpu cpu(e, 2, 0);
  e.spawn("a", [&] { cpu.compute(300); });
  e.spawn("b", [&] { cpu.compute(200); });
  e.run();
  EXPECT_EQ(cpu.busy_ns(), 500u);
}

}  // namespace
}  // namespace oqs::sim
