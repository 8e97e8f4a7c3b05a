// Wall-clock microbenchmarks of the simulator's real compute kernels
// (google-benchmark): event queue, fiber switching, datatype pack/unpack,
// CRC32C, an idle poll wait. These measure the reproduction infrastructure
// itself, not the simulated network.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "base/checksum.h"
#include "dtype/datatype.h"
#include "elan4/qdma.h"
#include "sim/engine.h"
#include "sim/process.h"

namespace {

using namespace oqs;

void BM_EventQueueThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine e;
    int sink = 0;
    for (int i = 0; i < 10000; ++i)
      e.schedule(static_cast<sim::Time>(i % 997), [&sink] { ++sink; });
    e.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_EventQueueThroughput);

// The classic hold pattern at a steady queue depth: `depth` events
// pending, each dispatch schedules one successor at a random delay in
// [0, 4096) ns until 200,000 successors have been scheduled, then the last
// `depth` drain. BM_EventQueueThroughput bulk-loads and drains, which
// favours a bucketed queue; the workloads hold instead, at mean depths at
// pop of about 24 (p2p_pair), 290 (mix_loss) and 11,600 (ring_scale),
// which the three depths bracket.
struct Hold {
  sim::Engine* engine;
  std::uint64_t x;     // xorshift64 state
  std::uint64_t left;  // successors still to schedule
  void step() {
    if (left == 0) return;
    --left;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    engine->schedule(x % 4096, [this] { step(); });
  }
};

void BM_EventQueueHold(benchmark::State& state) {
  const auto depth = static_cast<std::uint64_t>(state.range(0));
  constexpr std::uint64_t kHolds = 200'000;
  std::uint64_t events = 0;
  for (auto _ : state) {
    sim::Engine e;
    Hold hold{&e, 0x9E3779B97F4A7C15ull, kHolds};
    for (std::uint64_t i = 0; i < depth; ++i)
      e.schedule(i % 4096, [&hold] { hold.step(); });
    e.run();
    events += e.events_executed();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_EventQueueHold)->ArgName("depth")->Arg(32)->Arg(512)->Arg(16384);

void BM_FiberSwitch(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine e;
    e.spawn("switcher", [&e] {
      for (int i = 0; i < 2000; ++i) e.sleep(1);
    });
    e.run();
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_FiberSwitch);

void BM_ConvertorPackContiguous(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint8_t> src(n, 3);
  std::vector<std::uint8_t> wire(n);
  auto t = dtype::Datatype::contiguous(n, dtype::byte_type());
  for (auto _ : state) {
    dtype::Convertor c(t, src.data(), 1);
    benchmark::DoNotOptimize(c.pack(wire.data(), wire.size()));
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ConvertorPackContiguous)->Arg(4096)->Arg(1 << 20);

void BM_ConvertorPackVector(benchmark::State& state) {
  const std::size_t blocks = static_cast<std::size_t>(state.range(0));
  auto t = dtype::Datatype::vec(blocks, 8, 12, dtype::double_type());
  std::vector<double> mem(blocks * 12 + 8, 1.0);
  std::vector<std::uint8_t> wire(t->size());
  for (auto _ : state) {
    dtype::Convertor c(t, mem.data(), 1);
    benchmark::DoNotOptimize(c.pack(wire.data(), wire.size()));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(t->size()));
}
BENCHMARK(BM_ConvertorPackVector)->Arg(64)->Arg(4096);

// The kernel crc32c dispatches to (SSE4.2 where the CPU has it) and the
// table-driven reference, at the same sizes, so one run shows both rates.
void crc32c_bench(benchmark::State& state,
                  std::uint32_t (*kernel)(const void*, std::size_t, std::uint32_t)) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint8_t> buf(n, 0xA5);
  for (auto _ : state)
    benchmark::DoNotOptimize(kernel(buf.data(), buf.size(), 0));
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
void BM_Crc32c(benchmark::State& state) { crc32c_bench(state, crc32c); }
BENCHMARK(BM_Crc32c)->Arg(64)->Arg(2048)->Arg(16 << 10)->Arg(64 << 10);
void BM_Crc32cReference(benchmark::State& state) {
  crc32c_bench(state, crc32c_reference);
}
BENCHMARK(BM_Crc32cReference)->Arg(64)->Arg(2048)->Arg(16 << 10)->Arg(64 << 10);

// One fiber polls a QDMA receive queue (one host_poll_ns charge and a probe
// per round, then an idle step) until a timer lands a message 1 ms of
// simulated time later. parked:0 hands wait_until a plan that declines to
// describe its round, so every idle step is dispatched (how every wait ran
// before idle waits could park); parked:1 hands it the same round with its
// description, so it parks on the queue. Reported as wall ns per simulated
// microsecond of waiting.
class QueuePoll final : public sim::PollPlan {
 public:
  QueuePoll(const sim::ProcessCtx& ctx, elan4::QdmaQueue& q, bool parks)
      : ctx_(ctx), q_(q), parks_(parks) {}
  int sweep(std::size_t /*from*/, bool paid) override {
    int n = 0;
    elan4::QdmaQueue::Slot slot;
    for (;; paid = false) {
      if (!paid) ctx_.compute(ctx_.params->host_poll_ns);
      if (!q_.consume(&slot)) break;
      ++n;
    }
    got_ += n;
    return n;
  }
  int watch(sim::IdleWait& w) override {
    return parks_ && w.watch(&q_.signal()) ? 1 : -1;
  }
  bool quiet() const override { return !q_.has_pending(); }
  sim::Time point_ns() const override { return ctx_.params->host_poll_ns; }
  int got() const { return got_; }

 private:
  const sim::ProcessCtx& ctx_;
  elan4::QdmaQueue& q_;
  bool parks_;
  int got_ = 0;
};

void BM_IdleWait(benchmark::State& state) {
  constexpr sim::Time kWait = sim::kMs;
  const bool parked = state.range(0) != 0;
  for (auto _ : state) {
    sim::Engine e;
    sim::Cpu cpu(e, 2, 0);
    ModelParams params;
    const sim::ProcessCtx ctx{&e, &cpu, &params, 0};
    elan4::QdmaQueue q(e, params, nullptr, 0, 2048, 64);
    QueuePoll plan(ctx, q, parked);
    e.schedule(kWait, [&q] { q.post(0, std::vector<std::uint8_t>(64)); });
    e.spawn("poller", [&] {
      ctx.wait_until(sim::Cadence::kPoll,
                     sim::watched(nullptr, [&plan] { return plan.got() > 0; }),
                     &plan);
    });
    e.run();
  }
  // An inverted rate of (simulated us * 1e-9) per wall second reads as wall
  // ns per simulated us.
  state.counters["wall_ns_per_sim_us"] = benchmark::Counter(
      static_cast<double>(kWait) / 1e3 * 1e-9,
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_IdleWait)->ArgName("parked")->Arg(0)->Arg(1);

// Two fibers on one 2-core Cpu each poll their own QDMA queue until a
// timer lands a message in both 1 ms later: their contended charges
// interleave, so parked (parked:1) the Cpu replays both in one joint
// replay. wall_ns_per_step divides the wall time by the steps the spinning
// twins dispatch, so under parked:1 it is the replay's cost per step.
std::uint64_t idle_wait_pair(bool parked) {
  constexpr sim::Time kWait = sim::kMs;
  sim::Engine e;
  sim::Cpu cpu(e, 2, 900, 0.35);
  ModelParams params;
  const sim::ProcessCtx ctx{&e, &cpu, &params, 0};
  elan4::QdmaQueue q0(e, params, nullptr, 0, 2048, 64);
  elan4::QdmaQueue q1(e, params, nullptr, 1, 2048, 64);
  QueuePoll plan0(ctx, q0, parked);
  QueuePoll plan1(ctx, q1, parked);
  e.schedule(kWait, [&] {
    q0.post(0, std::vector<std::uint8_t>(64));
    q1.post(0, std::vector<std::uint8_t>(64));
  });
  for (QueuePoll* plan : {&plan0, &plan1}) {
    e.spawn("poller", [&ctx, plan] {
      ctx.wait_until(sim::Cadence::kPoll,
                     sim::watched(nullptr, [plan] { return plan->got() > 0; }),
                     plan);
    });
  }
  e.run();
  return e.events_executed();
}

void BM_IdleWaitPair(benchmark::State& state) {
  const bool parked = state.range(0) != 0;
  const auto steps = static_cast<double>(idle_wait_pair(false));
  for (auto _ : state) idle_wait_pair(parked);
  state.counters["wall_ns_per_sim_us"] = benchmark::Counter(
      static_cast<double>(sim::kMs) / 1e3 * 1e-9,
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
  state.counters["wall_ns_per_step"] = benchmark::Counter(
      steps * 1e-9, benchmark::Counter::kIsIterationInvariantRate |
                        benchmark::Counter::kInvert);
}
BENCHMARK(BM_IdleWaitPair)->ArgName("parked")->Arg(0)->Arg(1);

}  // namespace

BENCHMARK_MAIN();
