// The host wait primitive: each cadence's period, charging and sweep rule.
#include "sim/process.h"

#include <gtest/gtest.h>

#include <utility>

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

// A sweep in a round that declines to describe itself (watch() returns -1,
// as a dirty round does), so the wait dispatches every step: these tests
// pin the steps themselves.
template <class Sweep>
class Opaque final : public PollPlan {
 public:
  explicit Opaque(Sweep sweep) : sweep_(std::move(sweep)) {}
  int sweep(std::size_t, bool) override { return sweep_(); }
  int watch(IdleWait&) override { return -1; }
  bool quiet() const override { return false; }
  Time point_ns() const override { return 0; }

 private:
  Sweep sweep_;
};

int no_sweep() { return 0; }

template <class Done, class Sweep = int (*)(), class Abort = Never>
bool spin(const ProcessCtx& ctx, Cadence c, Done done, Sweep sweep = no_sweep,
          Abort abort = {}) {
  Opaque<Sweep> plan(std::move(sweep));
  return ctx.wait_until(c, watched(nullptr, std::move(done)), &plan,
                        watched(nullptr, std::move(abort)));
}

TEST(Wait, EmptySweepsYieldOnePollPeriodEach) {
  Host h;
  int sweeps = 0;
  const auto [elapsed, events] = h.run([&] {
    EXPECT_TRUE(spin(
        h.ctx, Cadence::kPoll, [&] { return sweeps == kSteps; },
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
    spin(h.ctx, Cadence::kPoll, [&] { return sweeps == kSteps; },
                     [&] { return ++sweeps <= 3 ? 1 : 0; });
  });
  EXPECT_EQ(elapsed, (kSteps - 3) * h.params.host_poll_ns);
  EXPECT_EQ(events, static_cast<std::uint64_t>(kSteps - 3));
}

TEST(Wait, ThreadedCadenceScalesThePollPeriod) {
  Host h;
  int sweeps = 0;
  int checks = 0;
  const auto [elapsed, events] = h.run([&] {
    // Progress threads own the queues: the caller's sweep never runs.
    spin(h.ctx, Cadence::kThreaded, [&] { return ++checks > kSteps; },
                     [&] { return ++sweeps, 1; });
  });
  EXPECT_EQ(sweeps, 0);
  EXPECT_EQ(elapsed, kSteps * 10 * h.params.host_poll_ns);
  EXPECT_EQ(events, static_cast<std::uint64_t>(kSteps));
}

TEST(Wait, ThreadExitYieldsOneMicrosecond) {
  Host h;
  int checks = 0;
  const auto [elapsed, events] = h.run([&] {
    spin(h.ctx, Cadence::kThreadExit, [&] { return ++checks > kSteps; });
  });
  EXPECT_EQ(elapsed, kSteps * kUs);
  EXPECT_EQ(events, static_cast<std::uint64_t>(kSteps));
}

TEST(Wait, EventWordSpinChargesEveryRead) {
  Host h;
  int checks = 0;
  const auto [elapsed, events] = h.run([&] {
    spin(h.ctx, Cadence::kEventWord, [&] { return ++checks > kSteps; });
  });
  EXPECT_EQ(h.cpu.busy_ns(), kSteps * h.params.host_poll_ns);
  EXPECT_EQ(elapsed, kSteps * h.params.host_poll_ns);
  EXPECT_EQ(events, static_cast<std::uint64_t>(kSteps));
}

TEST(Wait, ShmFlagChargesOneReadAfterItsYields) {
  Host h;
  int checks = 0;
  const auto [elapsed, events] = h.run([&] {
    spin(h.ctx, Cadence::kShmFlag, [&] { return ++checks > kSteps; });
  });
  EXPECT_EQ(h.cpu.busy_ns(), h.params.shm_flag_ns);
  EXPECT_EQ(elapsed, (kSteps + 1) * h.params.shm_flag_ns);
  EXPECT_EQ(events, static_cast<std::uint64_t>(kSteps + 1));
}

TEST(Wait, AbortReturnsWithoutAnotherIdleStep) {
  for (Cadence c : {Cadence::kPoll, Cadence::kThreaded, Cadence::kThreadExit,
                    Cadence::kEventWord, Cadence::kShmFlag}) {
    Host h;
    int checks = 0;
    int sweeps = 0;
    const auto [elapsed, events] = h.run([&] {
      EXPECT_FALSE(spin(h.ctx, c, [&] { return ++checks, false; },
                        [&] { return ++sweeps, 0; }, [] { return true; }));
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
    EXPECT_TRUE(spin(h.ctx, Cadence::kPoll, [] { return true; },
                                 no_sweep, [] { return true; }));
  });
  EXPECT_EQ(elapsed, 0u);
  EXPECT_EQ(events, 0u);
}

}  // namespace
}  // namespace oqs::sim
