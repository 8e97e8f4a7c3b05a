// Collectives framework: every selectable algorithm against a serial
// oracle (deliberately on non-power-of-two communicators), in-place
// aliasing conformance, determinism under same-seed replay, behaviour
// under fault injection with two rails, and the hardware-broadcast
// event-table leak regression.
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "obs/metrics.h"
#include "testbed.h"

namespace oqs {
namespace {

using test::TestBed;

// Force one collectives mode. "auto" leaves everything at kAuto (and is
// then still subject to the OQS_TEST_COLL CI hook, like any other test).
mpi::Options coll_opts(const std::string& mode) {
  using namespace mpi::coll;
  mpi::Options o;
  if (mode == "p2p") {
    o.coll.barrier = BarrierAlg::kDissemination;
    o.coll.bcast = BcastAlg::kBinomial;
    o.coll.reduce = ReduceAlg::kBinomial;
    o.coll.allreduce = AllreduceAlg::kRecursiveDoubling;
    o.coll.hier = false;
    o.coll.nic = false;
  } else if (mode == "rsag") {
    o.coll.allreduce = AllreduceAlg::kRsAg;
    o.coll.hier = false;
    o.coll.nic = false;
  } else if (mode == "linear") {
    o.coll.reduce = ReduceAlg::kLinear;
    o.coll.hier = false;
    o.coll.nic = false;
  } else if (mode == "nic") {
    o.coll.barrier = BarrierAlg::kNic;
    o.coll.bcast = BcastAlg::kNic;
    o.coll.allreduce = AllreduceAlg::kNic;
    o.coll.hier = false;
  } else if (mode == "hier") {
    o.coll.barrier = BarrierAlg::kHier;
    o.coll.bcast = BcastAlg::kHier;
    o.coll.reduce = ReduceAlg::kHier;
    o.coll.allreduce = AllreduceAlg::kHier;
    o.coll.nic = false;
  } else if (mode == "hiernic") {
    o.coll.barrier = BarrierAlg::kHier;
    o.coll.bcast = BcastAlg::kHier;
    o.coll.reduce = ReduceAlg::kHier;
    o.coll.allreduce = AllreduceAlg::kHier;
  }
  return o;
}

// Hierarchical modes get a 4-node bed so communicators actually share
// nodes (np > 4 puts two ranks on some nodes — exactly the paper's
// dual-CPU testbed shape); the flat modes run on the default 8-node bed.
int bed_nodes(const std::string& mode) {
  return mode == "hier" || mode == "hiernic" ? 4 : 8;
}

// Every algorithm, every non-power-of-two size (plus 8 for the hier modes'
// leaders-tree shape), one body exercising all four routed collectives
// against serially computed expectations.
void run_conformance(const std::string& mode, int np,
                     const net::FaultProfile& faults = {},
                     std::uint64_t seed = 1, int rails = 1,
                     bool reliability = false) {
  TestBed bed(bed_nodes(mode), rails);
  bed.net->set_faults(faults, seed);
  mpi::Options opts = coll_opts(mode);
  // Fault-injection runs need the end-to-end reliability protocol: without
  // it frames ride the guaranteed class (wire faults never apply) and a
  // corrupted payload would land undetected.
  opts.elan4.reliability = reliability;
  const std::uint64_t hw0 = obs::metrics().counter("coll.bcast.nic").value();
  bed.run_mpi(
      np,
      [&](mpi::World& w) {
        auto& c = w.comm();
        const double ranksum = static_cast<double>(np) * (np + 1) / 2.0;
        for (int iter = 0; iter < 3; ++iter) {
          c.barrier();
          // Small allreduce (fits the NIC slot) with an odd count.
          {
            std::vector<double> in(13), out(13);
            for (std::size_t i = 0; i < in.size(); ++i)
              in[i] = static_cast<double>(c.rank() + 1) +
                      static_cast<double>(i * iter);
            c.allreduce_sum(in.data(), out.data(), in.size());
            for (std::size_t i = 0; i < out.size(); ++i)
              ASSERT_DOUBLE_EQ(out[i],
                               ranksum + np * static_cast<double>(i * iter));
          }
          // Large allreduce (past coll_rsag_min_bytes and the NIC ceiling:
          // exercises the rsag reference / the forced-NIC fallback).
          {
            std::vector<double> in(701), out(701);
            for (std::size_t i = 0; i < in.size(); ++i)
              in[i] = static_cast<double>(c.rank() + 1) * 0.5;
            c.allreduce_sum(in.data(), out.data(), in.size());
            for (std::size_t i = 0; i < out.size(); ++i)
              ASSERT_DOUBLE_EQ(out[i], ranksum * 0.5);
          }
          // Reduce and bcast from every root.
          for (int root = 0; root < np; ++root) {
            std::vector<double> in(9), out(9, -1.0);
            for (std::size_t i = 0; i < in.size(); ++i)
              in[i] = static_cast<double>(c.rank()) + static_cast<double>(i);
            c.reduce_sum(in.data(), out.data(), in.size(), root);
            if (c.rank() == root) {
              const double base = ranksum - np;  // sum of ranks 0..np-1
              for (std::size_t i = 0; i < out.size(); ++i)
                ASSERT_DOUBLE_EQ(out[i], base + np * static_cast<double>(i));
            }
            std::vector<std::uint8_t> buf(777);
            if (c.rank() == root)
              for (std::size_t i = 0; i < buf.size(); ++i)
                buf[i] = static_cast<std::uint8_t>(root * 31 + i);
            c.bcast(buf.data(), buf.size(), dtype::byte_type(), root);
            for (std::size_t i = 0; i < buf.size(); ++i)
              ASSERT_EQ(buf[i], static_cast<std::uint8_t>(root * 31 + i));
          }
        }
      },
      opts);
  // A symmetric job keeps its global virtual address space: every forced
  // hardware bcast ran on the switches, none fell back.
  const bool forced = opts.coll.bcast == mpi::coll::BcastAlg::kNic;
  EXPECT_EQ(obs::metrics().counter("coll.bcast.nic").value() - hw0,
            forced ? static_cast<std::uint64_t>(3 * np * np) : 0u);
}

class CollModeNp
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(CollModeNp, MatchesOracle) {
  run_conformance(std::get<0>(GetParam()), std::get<1>(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    Algorithms, CollModeNp,
    ::testing::Combine(::testing::Values("p2p", "rsag", "linear", "nic",
                                         "hier", "hiernic"),
                       ::testing::Values(3, 5, 6, 7, 8)));

// The barrier property (nobody leaves before the last rank enters) per
// forced algorithm, with staggered arrivals.
class CollBarrierMode : public ::testing::TestWithParam<std::string> {};

TEST_P(CollBarrierMode, Synchronizes) {
  const std::string mode = GetParam();
  const int np = 7;
  TestBed bed(bed_nodes(mode));
  std::vector<sim::Time> before(np), after(np);
  bed.run_mpi(
      np,
      [&](mpi::World& w) {
        auto& c = w.comm();
        w.net().engine().sleep(static_cast<sim::Time>(c.rank()) * 37 * sim::kUs);
        before[static_cast<std::size_t>(c.rank())] = w.net().engine().now();
        c.barrier();
        after[static_cast<std::size_t>(c.rank())] = w.net().engine().now();
      },
      coll_opts(mode));
  sim::Time last_enter = 0;
  for (sim::Time t : before) last_enter = std::max(last_enter, t);
  for (sim::Time t : after) EXPECT_GE(t, last_enter);
}

INSTANTIATE_TEST_SUITE_P(Algorithms, CollBarrierMode,
                         ::testing::Values("p2p", "nic", "hier", "hiernic"));

// In-place conformance: send == recv must work for reduce and allreduce on
// every algorithm, including the legacy linear reduce whose original root
// memcpy was the aliasing bug this PR fixes.
class CollInPlace : public ::testing::TestWithParam<std::string> {};

TEST_P(CollInPlace, ReduceAndAllreduceAlias) {
  const std::string mode = GetParam();
  const int np = 5;
  TestBed bed(bed_nodes(mode));
  bed.run_mpi(
      np,
      [&](mpi::World& w) {
        auto& c = w.comm();
        const double ranksum = static_cast<double>(np) * (np + 1) / 2.0;
        for (int root = 0; root < np; ++root) {
          std::vector<double> buf(11);
          for (std::size_t i = 0; i < buf.size(); ++i)
            buf[i] = static_cast<double>(c.rank() + 1);
          c.reduce_sum(buf.data(), buf.data(), buf.size(), root);
          if (c.rank() == root) {
            for (double v : buf) ASSERT_DOUBLE_EQ(v, ranksum);
          }
        }
        std::vector<double> buf(11);
        for (std::size_t i = 0; i < buf.size(); ++i)
          buf[i] = static_cast<double>(c.rank() + 1) * 2.0;
        c.allreduce_sum(buf.data(), buf.data(), buf.size());
        for (double v : buf) ASSERT_DOUBLE_EQ(v, ranksum * 2.0);
      },
      coll_opts(mode));
}

INSTANTIATE_TEST_SUITE_P(Algorithms, CollInPlace,
                         ::testing::Values("p2p", "rsag", "linear", "nic",
                                           "hier", "hiernic"));

// Collectives on a split (sub)communicator: the group indirection must map
// tree/ring positions back to parent-comm ranks correctly, per algorithm.
class CollSubComm : public ::testing::TestWithParam<std::string> {};

TEST_P(CollSubComm, SplitByParity) {
  const std::string mode = GetParam();
  const int np = 7;
  TestBed bed(bed_nodes(mode));
  bed.run_mpi(
      np,
      [&](mpi::World& w) {
        auto& c = w.comm();
        mpi::Communicator sub = c.split(c.rank() % 2, c.rank());
        const int sn = sub.size();
        const double subsum = static_cast<double>(sn) * (sn + 1) / 2.0;
        std::vector<double> in(5), out(5);
        for (std::size_t i = 0; i < in.size(); ++i)
          in[i] = static_cast<double>(sub.rank() + 1);
        sub.allreduce_sum(in.data(), out.data(), in.size());
        for (double v : out) ASSERT_DOUBLE_EQ(v, subsum);
        sub.barrier();
        c.barrier();
      },
      coll_opts(mode));
}

INSTANTIATE_TEST_SUITE_P(Algorithms, CollSubComm,
                         ::testing::Values("p2p", "nic", "hier"));

// Fault injection with two rails: the reference algorithms ride the PTL's
// sequenced (recovered) stream, and NIC combining-tree frames are
// loss-protected by construction, so results must stay exact.
class CollFaults : public ::testing::TestWithParam<std::string> {};

TEST_P(CollFaults, ExactUnderInjectedFaults) {
  net::FaultProfile faults;
  faults.drop = 0.02;
  faults.duplicate = 0.01;
  faults.delay = 0.02;
  faults.corrupt = 0.01;
  run_conformance(GetParam(), 7, faults, /*seed=*/42, /*rails=*/2,
                  /*reliability=*/true);
}

INSTANTIATE_TEST_SUITE_P(Algorithms, CollFaults,
                         ::testing::Values("p2p", "nic", "hier", "hiernic"));

// Same-seed replay determinism: two identical runs of the same algorithm
// must produce bit-identical results AND identical completion timestamps.
class CollDeterminism : public ::testing::TestWithParam<std::string> {};

TEST_P(CollDeterminism, SameSeedSameDigest) {
  const std::string mode = GetParam();
  const int np = 6;
  auto digest_run = [&]() {
    std::uint64_t digest = 1469598103934665603ULL;  // FNV-1a
    auto fold = [&digest](const void* p, std::size_t n) {
      const auto* b = static_cast<const std::uint8_t*>(p);
      for (std::size_t i = 0; i < n; ++i) {
        digest ^= b[i];
        digest *= 1099511628211ULL;
      }
    };
    TestBed bed(bed_nodes(mode));
    bed.run_mpi(
        np,
        [&](mpi::World& w) {
          auto& c = w.comm();
          for (int iter = 0; iter < 4; ++iter) {
            std::vector<double> in(17), out(17);
            for (std::size_t i = 0; i < in.size(); ++i)
              in[i] = static_cast<double>((c.rank() + 1) * (iter + 1)) +
                      static_cast<double>(i) * 0.25;
            c.allreduce_sum(in.data(), out.data(), in.size());
            c.barrier();
            const sim::Time now = w.net().engine().now();
            fold(out.data(), out.size() * sizeof(double));
            fold(&now, sizeof(now));
          }
        },
        coll_opts(mode));
    return digest;
  };
  const std::uint64_t first = digest_run();
  const std::uint64_t second = digest_run();
  EXPECT_EQ(first, second);
}

INSTANTIATE_TEST_SUITE_P(Algorithms, CollDeterminism,
                         ::testing::Values("p2p", "rsag", "nic", "hier",
                                           "hiernic"));

// The hardware broadcast must not grow the per-context event table with
// the number of calls: its events belong to the communicator's ring, built
// once and freed by Colls::reset(), and a failed build frees them at once.
TEST(HwBcastLeak, EventTableBoundedOver10kBcasts) {
  TestBed bed;
  const std::uint64_t hw0 = obs::metrics().counter("coll.bcast.nic").value();
  mpi::Options opts;
  opts.coll.bcast = mpi::coll::BcastAlg::kNic;
  bed.run_mpi(2, [&](mpi::World& w) {
    auto& c = w.comm();
    std::uint64_t payload = 0;
    for (int i = 0; i < 10000; ++i) {
      payload = static_cast<std::uint64_t>(i);
      c.bcast(&payload, sizeof(payload), dtype::byte_type(), 0);
      ASSERT_EQ(payload, static_cast<std::uint64_t>(i));
    }
    auto* ptl = w.elan4_ptl();
    ASSERT_NE(ptl, nullptr);
    elan4::Elan4Device& dev = ptl->device();
    // The PTL itself owns a handful of events; the ring's five must not
    // accumulate. Generous bounds: anything even loosely proportional to
    // the 10k calls is a leak.
    EXPECT_LE(dev.nic().event_table_live(dev.context()), 32u);
    EXPECT_LE(dev.nic().event_table_size(dev.context()), 64u);
    c.barrier();
  }, opts);
  EXPECT_EQ(obs::metrics().counter("coll.bcast.nic").value() - hw0, 20000u);
}

// Same bound on the disagree path: rank 1 disturbs its event allocation
// history first, so the build disagrees and every bcast falls back.
TEST(HwBcastLeak, DisagreePathAlsoBounded) {
  TestBed bed;
  const std::uint64_t fb0 =
      obs::metrics().counter("coll.bcast.nic_fallback").value();
  mpi::Options opts;
  opts.coll.bcast = mpi::coll::BcastAlg::kNic;
  bed.run_mpi(2, [&](mpi::World& w) {
    auto& c = w.comm();
    if (c.rank() == 1) {
      // Asymmetric extra allocation: indices stop matching across ranks.
      auto* ptl = w.elan4_ptl();
      ASSERT_NE(ptl, nullptr);
      (void)ptl->device().alloc_event("skew");
    }
    std::uint32_t v = 7;
    for (int i = 0; i < 2000; ++i)
      c.bcast(&v, sizeof(v), dtype::byte_type(), 0);
    EXPECT_EQ(v, 7u);
    auto* ptl = w.elan4_ptl();
    elan4::Elan4Device& dev = ptl->device();
    EXPECT_LE(dev.nic().event_table_live(dev.context()), 32u);
    EXPECT_LE(dev.nic().event_table_size(dev.context()), 64u);
    c.barrier();
  }, opts);
  EXPECT_EQ(obs::metrics().counter("coll.bcast.nic_fallback").value() - fb0,
            4000u);
}

// Slow soak (own ctest entry, labelled slow): long mixed-collective runs
// per mode, including communicator churn, to shake out slot-ring and
// generation-counter reuse bugs that only appear after many rounds.
TEST(CollSoak, MixedCollectivesManyRounds) {
  for (const std::string mode : {"p2p", "nic", "hier", "hiernic"}) {
    const int np = 8;
    TestBed bed(bed_nodes(mode));
    bed.run_mpi(
        np,
        [&](mpi::World& w) {
          auto& c = w.comm();
          const double ranksum = static_cast<double>(np) * (np + 1) / 2.0;
          for (int iter = 0; iter < 150; ++iter) {
            std::vector<double> in(1 + (iter % 40)), out(in.size());
            for (std::size_t i = 0; i < in.size(); ++i)
              in[i] = static_cast<double>(c.rank() + 1);
            c.allreduce_sum(in.data(), out.data(), in.size());
            for (double v : out) ASSERT_DOUBLE_EQ(v, ranksum);
            if (iter % 3 == 0) c.barrier();
            if (iter % 5 == 0) {
              const int root = iter % np;
              std::vector<double> r(7, static_cast<double>(c.rank()));
              c.reduce_sum(r.data(), r.data(), r.size(), root);
              if (c.rank() == root) {
                for (double v : r) ASSERT_DOUBLE_EQ(v, ranksum - np);
              }
            }
            if (iter % 50 == 10) {
              mpi::Communicator sub = c.split(c.rank() % 2, c.rank());
              sub.barrier();
              std::vector<double> s(3, 1.0);
              sub.allreduce_sum(s.data(), s.data(), s.size());
              for (double v : s)
                ASSERT_DOUBLE_EQ(v, static_cast<double>(sub.size()));
            }
          }
          c.barrier();
        },
        coll_opts(mode));
  }
}

}  // namespace
}  // namespace oqs
