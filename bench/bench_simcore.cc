// Wall-clock microbenchmarks of the simulator's real compute kernels
// (google-benchmark): event queue, fiber switching, datatype pack/unpack,
// CRC32C. These measure the reproduction infrastructure itself, not the
// simulated network.
#include <benchmark/benchmark.h>

#include <vector>

#include "base/checksum.h"
#include "dtype/datatype.h"
#include "sim/engine.h"

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

}  // namespace

BENCHMARK_MAIN();
