// Tests for the benchmark's own code: trace generation and tail statistics.
#include "workloads.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace oqs::perfbench {
namespace {

const std::vector<std::string> kNames = {"p2p_pair", "ring_scale", "mix_loss"};

std::vector<std::string> serialized(const std::string& name, std::uint64_t seed) {
  Workload w;
  EXPECT_TRUE(make_workload(name, seed, &w));
  std::vector<std::string> out;
  for (const workload::Trace& t : w.jobs) out.push_back(workload::serialize(t));
  return out;
}

TEST(PerfbenchTrace, SameSeedGivesByteIdenticalTraces) {
  for (const std::string& name : kNames)
    EXPECT_EQ(serialized(name, 7), serialized(name, 7)) << name;
}

// mix_loss draws its seed-dependent inputs (payloads, fault schedule) in the
// library, from Workload::seed; the other two differ in the ops themselves.
TEST(PerfbenchTrace, DifferentSeedsGiveDifferentInputs) {
  EXPECT_NE(serialized("p2p_pair", 1), serialized("p2p_pair", 2));
  EXPECT_NE(serialized("ring_scale", 1), serialized("ring_scale", 2));
  Workload a, b;
  ASSERT_TRUE(make_workload("mix_loss", 1, &a));
  ASSERT_TRUE(make_workload("mix_loss", 2, &b));
  EXPECT_NE(a.seed, b.seed);
  EXPECT_GT(a.loss, 0.0);
}

TEST(PerfbenchTrace, UnknownNameIsRejected) {
  Workload w;
  EXPECT_FALSE(make_workload("nope", 1, &w));
}

TEST(PerfbenchTrace, EveryWorkloadSamplesEnoughOpsForP99) {
  for (const std::string& name : kNames) {
    Workload w;
    ASSERT_TRUE(make_workload(name, 3, &w));
    std::uint64_t ops = 0;
    for (const workload::Trace& t : w.jobs) ops += comm_ops(t);
    EXPECT_GE(ops, 1000u) << name;
  }
}

TEST(PerfbenchTrace, PairSizesSpanOneByteToOneMebibyte) {
  Workload w;
  ASSERT_TRUE(make_workload("p2p_pair", 5, &w));
  std::uint64_t lo = ~0ull, hi = 0, eager = 0, n = 0;
  for (const workload::Op& op : w.jobs[0].ranks[0]) {
    lo = std::min(lo, op.bytes);
    hi = std::max(hi, op.bytes);
    eager += op.bytes <= 1984;
    ++n;
  }
  EXPECT_LE(lo, 2u);
  EXPECT_GT(hi, 900u * 1024);
  EXPECT_LE(hi, 1024u * 1024);
  // Log-uniform over 2^0..2^20: about 11/20 of the sizes sit at or below
  // the 1984 B eager limit.
  EXPECT_NEAR(static_cast<double>(eager) / static_cast<double>(n), 10.95 / 20, 0.02);
}

TEST(PerfbenchTail, PercentilesInterpolateLikeSimSamples) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  const Tail t = tail_of(v);
  EXPECT_EQ(t.count, 1000u);
  EXPECT_DOUBLE_EQ(t.p50, 500.5);
  EXPECT_NEAR(t.p99, 990.01, 1e-9);
  EXPECT_EQ(t.beyond_p99, 10u);
  EXPECT_TRUE(tail_resolved(t));
}

TEST(PerfbenchTail, TooFewSamplesBeyondP99IsUnresolved) {
  std::vector<double> v;
  for (int i = 1; i <= 900; ++i) v.push_back(i);
  const Tail t = tail_of(v);
  EXPECT_NEAR(t.p99, 891.01, 1e-9);
  EXPECT_EQ(t.beyond_p99, 9u);
  EXPECT_FALSE(tail_resolved(t));
}

TEST(PerfbenchTail, TiesAtTheTopDoNotCountAsBeyond) {
  std::vector<double> v(2000, 1.0);
  for (int i = 0; i < 15; ++i) v[static_cast<std::size_t>(i)] = 5.0;
  const Tail t = tail_of(v);
  EXPECT_DOUBLE_EQ(t.p99, 1.0);
  EXPECT_EQ(t.beyond_p99, 15u);
  std::vector<double> flat(2000, 3.0);
  EXPECT_FALSE(tail_resolved(tail_of(flat)));
}

TEST(PerfbenchTail, EmptyInputIsUnresolved) {
  const Tail t = tail_of({});
  EXPECT_EQ(t.count, 0u);
  EXPECT_FALSE(tail_resolved(t));
}

}  // namespace
}  // namespace oqs::perfbench
