// Hardware broadcast (Colls::bcast under BcastAlg::kNic): the global-
// address-space fast path and its paper-mandated failure mode (diverged
// processes fall back to the binomial tree).
#include <gtest/gtest.h>

#include <numeric>

#include "obs/metrics.h"
#include "testbed.h"

namespace oqs {
namespace {

using test::TestBed;

mpi::Options hw_opts() {
  mpi::Options o;
  o.coll.bcast = mpi::coll::BcastAlg::kNic;
  return o;
}

std::uint64_t counter(const char* name) {
  return obs::metrics().counter(name).value();
}

// Hardware-path and fallback rounds since construction, summed over ranks.
struct BcastCounts {
  std::uint64_t hw0 = counter("coll.bcast.nic");
  std::uint64_t fb0 = counter("coll.bcast.nic_fallback");
  std::uint64_t hw() const { return counter("coll.bcast.nic") - hw0; }
  std::uint64_t fallback() const {
    return counter("coll.bcast.nic_fallback") - fb0;
  }
};

TEST(HwBcast, DeliversToAllRanksWhenSymmetric) {
  TestBed bed;
  const BcastCounts counts;
  bed.run_mpi(8, [&](mpi::World& w) {
    auto& c = w.comm();
    std::vector<std::uint8_t> buf(10000, 0);
    if (c.rank() == 3)
      for (std::size_t i = 0; i < buf.size(); ++i)
        buf[i] = static_cast<std::uint8_t>(i * 11);
    ASSERT_EQ(c.bcast(buf.data(), buf.size(), dtype::byte_type(), /*root=*/3),
              Status::kOk);
    for (std::size_t i = 0; i < buf.size(); ++i)
      ASSERT_EQ(buf[i], static_cast<std::uint8_t>(i * 11));
    c.barrier();
  }, hw_opts());
  EXPECT_EQ(counts.hw(), 8u) << "symmetric fresh job should have the global space";
  EXPECT_EQ(counts.fallback(), 0u);
}

TEST(HwBcast, RotatingRootsStaySymmetric) {
  TestBed bed;
  const BcastCounts counts;
  bed.run_mpi(4, [&](mpi::World& w) {
    auto& c = w.comm();
    for (int round = 0; round < 5; ++round) {
      std::vector<std::uint8_t> buf(2048, 0);
      const int root = round % c.size();
      if (c.rank() == root)
        std::fill(buf.begin(), buf.end(), static_cast<std::uint8_t>(round + 1));
      c.bcast(buf.data(), buf.size(), dtype::byte_type(), root);
      EXPECT_EQ(buf[77], static_cast<std::uint8_t>(round + 1)) << round;
    }
    c.barrier();
  }, hw_opts());
  EXPECT_EQ(counts.hw(), 4u * 5u);
  EXPECT_EQ(counts.fallback(), 0u);
}

TEST(HwBcast, AsymmetricHistoryFallsBack) {
  // Rendezvous traffic maps buffers on the sender only; the MMU's bump
  // allocations diverge and the global virtual address space is gone —
  // exactly the paper's caveat. The bcast must still deliver via p2p.
  TestBed bed;
  const BcastCounts counts;
  bed.run_mpi(2, [&](mpi::World& w) {
    auto& c = w.comm();
    // Asymmetric: rank 0 sends one long message (maps memory); rank 1 only
    // receives.
    std::vector<std::uint8_t> big(50000, 9);
    if (c.rank() == 0)
      c.send(big.data(), big.size(), dtype::byte_type(), 1, 0);
    else
      c.recv(big.data(), big.size(), dtype::byte_type(), 0, 0);

    std::vector<std::uint8_t> buf(512, 0);
    if (c.rank() == 0) std::fill(buf.begin(), buf.end(), 0xAB);
    c.bcast(buf.data(), buf.size(), dtype::byte_type(), 0);
    EXPECT_EQ(buf[100], 0xAB);  // fallback still delivered
    c.barrier();
  }, hw_opts());
  EXPECT_EQ(counts.hw(), 0u) << "diverged histories must disable the hardware path";
  EXPECT_EQ(counts.fallback(), 2u);
}

TEST(HwBcast, EagerHistoryKeepsTheHardwarePath) {
  // Under the shared completion queue every eager send allocates an event,
  // on the sender only, and maps nothing. Op events take no slot in the
  // NIC's event table, so the arrival events' indices stay symmetric and
  // the hardware path holds.
  mpi::Options opts = hw_opts();
  opts.elan4.completion = ptl_elan4::Completion::kSharedCombined;
  TestBed bed;
  bed.pin_transport = true;  // every eager send rides this one Elan4 rail
  const BcastCounts counts;
  bed.run_mpi(2, [&](mpi::World& w) {
    auto& c = w.comm();
    std::vector<std::uint8_t> msg(256, 5);
    for (int i = 0; i < 10; ++i) {
      if (c.rank() == 0)
        c.send(msg.data(), msg.size(), dtype::byte_type(), 1, i);
      else
        c.recv(msg.data(), msg.size(), dtype::byte_type(), 0, i);
    }
    std::vector<std::uint8_t> buf(512, 0);
    if (c.rank() == 0) std::fill(buf.begin(), buf.end(), 0xCD);
    c.bcast(buf.data(), buf.size(), dtype::byte_type(), 0);
    EXPECT_EQ(buf[100], 0xCD);
    c.barrier();
  }, opts);
  EXPECT_EQ(counts.hw(), 2u) << "eager history must not shift event indices";
  EXPECT_EQ(counts.fallback(), 0u);
}

TEST(HwBcast, NonContiguousTypeFallsBack) {
  TestBed bed;
  const BcastCounts counts;
  bed.run_mpi(4, [&](mpi::World& w) {
    auto& c = w.comm();
    // Every other int: 8 elements over 16 ints.
    auto strided = dtype::Datatype::vec(8, 1, 2, dtype::int_type());
    std::vector<std::int32_t> buf(16, -1);
    if (c.rank() == 0) std::iota(buf.begin(), buf.end(), 0);
    c.bcast(buf.data(), 1, strided, 0);
    for (int i = 0; i < 16; ++i) {
      const bool sent = i % 2 == 0 || c.rank() == 0;
      EXPECT_EQ(buf[static_cast<std::size_t>(i)], sent ? i : -1) << i;
    }
    c.barrier();
  }, hw_opts());
  EXPECT_EQ(counts.hw(), 0u);
  EXPECT_EQ(counts.fallback(), 4u);
}

TEST(HwBcast, ManyRingLapsKeepIntegrity) {
  TestBed bed;
  const BcastCounts counts;
  bed.run_mpi(8, [&](mpi::World& w) {
    auto& c = w.comm();
    for (int round = 0; round < 21; ++round) {  // crosses slot-ring laps
      std::vector<std::uint8_t> buf(3000, 0);
      const int root = round % c.size();
      if (c.rank() == root)
        for (std::size_t i = 0; i < buf.size(); ++i)
          buf[i] = static_cast<std::uint8_t>(i + round);
      c.bcast(buf.data(), buf.size(), dtype::byte_type(), root);
      for (std::size_t i = 0; i < buf.size(); i += 97)
        ASSERT_EQ(buf[i], static_cast<std::uint8_t>(i + round)) << round;
    }
    c.barrier();
  }, hw_opts());
  EXPECT_EQ(counts.hw(), 8u * 21u);
}

TEST(HwBcast, LongerPayloadRebuildsTheRing) {
  TestBed bed;
  const BcastCounts counts;
  bed.run_mpi(4, [&](mpi::World& w) {
    auto& c = w.comm();
    std::size_t live = 0;
    for (std::size_t bytes : {100ul, 60ul, 5000ul, 100ul, 5000ul}) {
      std::vector<std::uint8_t> buf(bytes, 0);
      if (c.rank() == 1) std::iota(buf.begin(), buf.end(), std::uint8_t{1});
      c.bcast(buf.data(), bytes, dtype::byte_type(), 1);
      for (std::size_t i = 0; i < bytes; ++i)
        ASSERT_EQ(buf[i], static_cast<std::uint8_t>(i + 1)) << bytes;
      // A rebuild frees the old ring's events before allocating the new.
      elan4::Elan4Device& dev = w.elan4_ptl()->device();
      const std::size_t now = dev.nic().event_table_live(dev.context());
      if (live == 0) live = now;
      EXPECT_EQ(now, live) << bytes;
    }
    c.barrier();
  }, hw_opts());
  EXPECT_EQ(counts.hw(), 4u * 5u);
}

TEST(HwBcast, LatencyIndependentOfFanout) {
  // The hardware tree replicates in the switch: 8-way broadcast should cost
  // about the same as 2-way, while the binomial software broadcast grows
  // with log2(n).
  auto measure = [](int nprocs, mpi::coll::BcastAlg alg) {
    TestBed bed;
    double us = 0;
    mpi::Options opts;
    opts.coll.bcast = alg;
    bed.run_mpi(nprocs, [&](mpi::World& w) {
      auto& c = w.comm();
      std::vector<std::uint8_t> buf(1024, 1);
      c.bcast(buf.data(), buf.size(), dtype::byte_type(), 0);  // builds
      c.barrier();
      const sim::Time t0 = bed.engine.now();
      for (int i = 0; i < 20; ++i)
        c.bcast(buf.data(), buf.size(), dtype::byte_type(), 0);
      c.barrier();
      if (c.rank() == 0) us = sim::to_us(bed.engine.now() - t0) / 20.0;
    }, opts);
    return us;
  };
  using mpi::coll::BcastAlg;
  const double hw2 = measure(2, BcastAlg::kNic);
  const double hw8 = measure(8, BcastAlg::kNic);
  const double sw8 = measure(8, BcastAlg::kBinomial);
  EXPECT_LT(hw8, hw2 * 1.5);  // near-flat in fan-out
  // At 8 ranks hardware broadcast beats the binomial software tree.
  EXPECT_LT(hw8, sw8);
}

TEST(HwBcast, FinalizeReleasesTheRing) {
  TestBed bed;
  bed.run_mpi(4, [&](mpi::World& w) {
    elan4::Elan4Device& dev = w.elan4_ptl()->device();
    elan4::Elan4Nic& nic = dev.nic();
    const elan4::ContextId ctx = dev.context();
    const std::size_t before = nic.event_table_live(ctx);
    auto& c = w.comm();
    std::uint64_t v = 42;
    c.bcast(&v, sizeof(v), dtype::byte_type(), 0);
    EXPECT_EQ(v, 42u);
    // Four arrival events and the injection event.
    EXPECT_EQ(nic.event_table_live(ctx), before + 5);
    c.barrier();
    w.finalize();
    EXPECT_EQ(nic.event_table_live(ctx), before);
  }, hw_opts());
}

}  // namespace
}  // namespace oqs
