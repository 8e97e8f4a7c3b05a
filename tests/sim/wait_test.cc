// The host wait primitive: each cadence's period, charging and sweep rule.
#include "sim/process.h"

#include <gtest/gtest.h>

namespace oqs::sim {
namespace {

struct Host {
  Engine engine;
  Cpu cpu{engine, 2, 0};
  ModelParams params;
  ProcessCtx ctx{&engine, &cpu, &params, 0};

  // Runs `body` in a fiber; returns the simulated time and the events it
  // took, both measured from inside the fiber.
  template <class Body>
  std::pair<Time, std::uint64_t> run(Body body) {
    Time elapsed = 0;
    std::uint64_t events = 0;
    engine.spawn("waiter", [&] {
      const Time t0 = engine.now();
      const std::uint64_t e0 = engine.events_executed();
      body();
      elapsed = engine.now() - t0;
      events = engine.events_executed() - e0;
    });
    engine.run();
    return {elapsed, events};
  }
};

constexpr int kSteps = 7;

TEST(Wait, EmptySweepsYieldOnePollPeriodEach) {
  Host h;
  int sweeps = 0;
  const auto [elapsed, events] = h.run([&] {
    EXPECT_TRUE(h.ctx.wait_until(
        Cadence::kPoll, [&] { return sweeps == kSteps; },
        [&] { return ++sweeps, 0; }));
  });
  EXPECT_EQ(sweeps, kSteps);
  EXPECT_EQ(elapsed, kSteps * h.params.host_poll_ns);
  EXPECT_EQ(events, static_cast<std::uint64_t>(kSteps));
  EXPECT_EQ(h.cpu.busy_ns(), 0u) << "a poll yield is not charged";
}

TEST(Wait, ProductiveSweepRechecksWithoutIdling) {
  Host h;
  int sweeps = 0;
  const auto [elapsed, events] = h.run([&] {
    h.ctx.wait_until(Cadence::kPoll, [&] { return sweeps == kSteps; },
                     [&] { return ++sweeps <= 3 ? 1 : 0; });
  });
  EXPECT_EQ(elapsed, (kSteps - 3) * h.params.host_poll_ns);
  EXPECT_EQ(events, static_cast<std::uint64_t>(kSteps - 3));
}

TEST(Wait, SocketAndThreadedCadencesScaleThePollPeriod) {
  Host h;
  int sweeps = 0;
  int checks = 0;
  const auto [elapsed, events] = h.run([&] {
    h.ctx.wait_until(Cadence::kSocketPoll, [&] { return sweeps == kSteps; },
                     [&] { return ++sweeps, 0; });
    // Progress threads own the queues: the caller's sweep never runs.
    h.ctx.wait_until(Cadence::kThreaded, [&] { return ++checks > kSteps; },
                     [&] { return ++sweeps, 1; });
  });
  EXPECT_EQ(sweeps, kSteps);
  EXPECT_EQ(elapsed, kSteps * 14 * h.params.host_poll_ns);
  EXPECT_EQ(events, static_cast<std::uint64_t>(2 * kSteps));
}

TEST(Wait, ThreadExitYieldsOneMicrosecond) {
  Host h;
  int checks = 0;
  const auto [elapsed, events] = h.run([&] {
    h.ctx.wait_until(Cadence::kThreadExit, [&] { return ++checks > kSteps; });
  });
  EXPECT_EQ(elapsed, kSteps * kUs);
  EXPECT_EQ(events, static_cast<std::uint64_t>(kSteps));
}

TEST(Wait, EventWordSpinChargesEveryRead) {
  Host h;
  int checks = 0;
  const auto [elapsed, events] = h.run([&] {
    h.ctx.wait_until(Cadence::kEventWord, [&] { return ++checks > kSteps; });
  });
  EXPECT_EQ(h.cpu.busy_ns(), kSteps * h.params.host_poll_ns);
  EXPECT_EQ(elapsed, kSteps * h.params.host_poll_ns);
  EXPECT_EQ(events, static_cast<std::uint64_t>(kSteps));
}

TEST(Wait, ShmFlagChargesOneReadAfterItsYields) {
  Host h;
  int checks = 0;
  const auto [elapsed, events] = h.run([&] {
    h.ctx.wait_until(Cadence::kShmFlag, [&] { return ++checks > kSteps; });
  });
  EXPECT_EQ(h.cpu.busy_ns(), h.params.shm_flag_ns);
  EXPECT_EQ(elapsed, (kSteps + 1) * h.params.shm_flag_ns);
  EXPECT_EQ(events, static_cast<std::uint64_t>(kSteps + 1));
}

TEST(Wait, AbortReturnsWithoutAnotherIdleStep) {
  for (Cadence c : {Cadence::kPoll, Cadence::kSocketPoll, Cadence::kThreaded,
                    Cadence::kThreadExit, Cadence::kEventWord,
                    Cadence::kShmFlag}) {
    Host h;
    int checks = 0;
    int sweeps = 0;
    const auto [elapsed, events] = h.run([&] {
      EXPECT_FALSE(h.ctx.wait_until(
          c, [&] { return ++checks, false; }, [&] { return ++sweeps, 0; },
          [] { return true; }));
    });
    EXPECT_EQ(checks, 1);
    EXPECT_EQ(sweeps, 0);
    EXPECT_EQ(elapsed, 0u);
    EXPECT_EQ(events, 0u);
    EXPECT_EQ(h.cpu.busy_ns(), 0u) << "no flag read after an abort";
  }
}

TEST(Wait, DoneWinsOverAbort) {
  Host h;
  const auto [elapsed, events] = h.run([&] {
    EXPECT_TRUE(h.ctx.wait_until(Cadence::kPoll, [] { return true; },
                                 kNoSweep, [] { return true; }));
  });
  EXPECT_EQ(elapsed, 0u);
  EXPECT_EQ(events, 0u);
}

}  // namespace
}  // namespace oqs::sim
