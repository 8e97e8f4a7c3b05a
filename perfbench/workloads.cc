#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "sim/rng.h"
#include "sim/stats.h"
#include "workload/skeleton.h"

namespace oqs::perfbench {

namespace {

using workload::Op;
using workload::OpKind;
using workload::Trace;

// Iteration counts keep every workload above 1000 sampled ops, so at least
// ten samples lie beyond each p99.
constexpr int kPairIters = 300;
constexpr std::uint64_t kPairMaxLog2 = 20;  // sizes span 1 B .. 1 MiB
constexpr int kRingRanks = 256;
constexpr int kRingRounds = 4;
constexpr std::uint64_t kRingBytes = 64 * 1024;
constexpr int kMixRanks = 64;
constexpr int kMixStencilIters = 24;
constexpr int kMixShuffleRounds = 6;

// Uniform in [0, 1) from the top 53 bits: unlike the std distributions,
// the mapping is the same on every standard library.
double unit(sim::Rng& rng) {
  return static_cast<double>(rng.next_u64() >> 11) * 0x1p-53;
}

Op compute(std::uint64_t ns) {
  Op op;
  op.kind = OpKind::kCompute;
  op.cost_ns = ns;
  return op;
}

Op p2p(OpKind kind, int peer, std::uint64_t bytes, int tag) {
  Op op;
  op.kind = kind;
  op.peer = peer;
  op.bytes = bytes;
  op.tag = tag;
  return op;
}

// Blocking ping-pong between two ranks. Sizes are a stratified log-uniform
// draw: one size from each of kPairIters equal slices of [0, 20] in log2,
// visited in a seeded order. Every size is log-uniform, and the total
// bytes, which set the run's cost, barely move from seed to seed.
Trace make_pair(std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<std::uint64_t> sizes(kPairIters);
  for (int k = 0; k < kPairIters; ++k) {
    const double l = (k + unit(rng)) * static_cast<double>(kPairMaxLog2) / kPairIters;
    sizes[static_cast<std::size_t>(k)] =
        std::max<std::uint64_t>(1, static_cast<std::uint64_t>(std::llround(std::exp2(l))));
  }
  for (std::size_t i = sizes.size() - 1; i > 0; --i)
    std::swap(sizes[i], sizes[rng.next_u64() % (i + 1)]);

  Trace t;
  t.name = "p2p_pair";
  t.ranks.resize(2);
  for (int i = 0; i < kPairIters; ++i) {
    const std::uint64_t b = sizes[static_cast<std::size_t>(i)];
    t.ranks[0].push_back(p2p(OpKind::kSend, 1, b, i));
    t.ranks[0].push_back(p2p(OpKind::kRecv, 1, b, i));
    t.ranks[1].push_back(p2p(OpKind::kRecv, 0, b, i));
    t.ranks[1].push_back(p2p(OpKind::kSend, 0, b, i));
  }
  return t;
}

// Ring exchange at scale: per round a compute block of seeded length
// (1-2 us, the same on every rank), a 64 KiB sendrecv to the ring
// neighbour, an 8 B allreduce and a barrier. The compute length shifts
// later ops against the ranks' poll loops, so seeds differ slightly in
// timing without skewing the ranks against each other.
Trace make_ring(std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<std::uint64_t> compute_ns(kRingRounds);
  for (auto& ns : compute_ns) ns = 1000 + rng.next_u64() % 1000;
  Trace t;
  t.name = "ring_scale";
  t.ranks.resize(kRingRanks);
  for (int r = 0; r < kRingRanks; ++r) {
    auto& ops = t.ranks[static_cast<std::size_t>(r)];
    for (int round = 0; round < kRingRounds; ++round) {
      ops.push_back(compute(compute_ns[static_cast<std::size_t>(round)]));
      Op x = p2p(OpKind::kSendRecv, (r + 1) % kRingRanks, kRingBytes, round);
      x.peer2 = (r + kRingRanks - 1) % kRingRanks;
      x.bytes2 = kRingBytes;
      ops.push_back(x);
      Op ar;
      ar.kind = OpKind::kAllreduce;
      ar.bytes = 8;
      ops.push_back(ar);
      Op b;
      b.kind = OpKind::kBarrier;
      ops.push_back(b);
    }
  }
  return t;
}

}  // namespace

int Workload::ranks() const {
  int n = 0;
  for (const Trace& j : jobs) n += j.nranks();
  return n;
}

bool make_workload(const std::string& name, std::uint64_t seed, Workload* out) {
  Workload w;
  w.name = name;
  w.seed = seed;
  if (name == "p2p_pair") {
    w.nodes = 8;
    w.jobs.push_back(make_pair(seed));
  } else if (name == "ring_scale") {
    w.nodes = kRingRanks / 2;
    w.jobs.push_back(make_ring(seed));
  } else if (name == "mix_loss") {
    // bench_workload's "mix" scenario: a stencil2d halo job and an
    // all-to-all shuffle share one two-rail fabric under 2% wire loss.
    w.nodes = kMixRanks / 2;
    w.rails = 2;
    w.loss = 0.02;
    const workload::Grid2 g = workload::factor2(kMixRanks / 2);
    workload::StencilConfig sc;
    sc.px = g.px;
    sc.py = g.py;
    sc.iters = kMixStencilIters;
    sc.halo_bytes = 16384;
    sc.compute_ns = 20000;
    w.jobs.push_back(workload::make_stencil(sc));
    w.jobs.push_back(workload::make_shuffle({.ranks = kMixRanks / 2,
                                             .rounds = kMixShuffleRounds,
                                             .bytes_per_pair = 4096,
                                             .compute_ns = 5000}));
  } else {
    return false;
  }
  *out = std::move(w);
  return true;
}

std::uint64_t comm_ops(const Trace& t) {
  std::uint64_t n = 0;
  for (const auto& ops : t.ranks)
    for (const Op& op : ops) n += op.kind != OpKind::kCompute;
  return n;
}

Tail tail_of(const std::vector<double>& samples) {
  sim::Samples s;
  for (double x : samples) s.add(x);
  Tail t;
  t.count = samples.size();
  t.p50 = s.percentile(0.50);
  t.p99 = s.percentile(0.99);
  t.beyond_p99 = static_cast<std::size_t>(
      std::count_if(samples.begin(), samples.end(),
                    [&](double x) { return x > t.p99; }));
  return t;
}

}  // namespace oqs::perfbench
