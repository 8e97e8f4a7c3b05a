// Multirail striping hardening: rail failover mid-transfer, rail usage
// accounting, and (in the `slow` soak lane) striping under combined frame
// loss and payload corruption.
#include <gtest/gtest.h>

#include "net/fault.h"
#include "ptl/elan4/ptl_elan4.h"
#include "testbed.h"

namespace oqs {
namespace {

using test::TestBed;

std::vector<std::uint8_t> patterned(std::size_t bytes, std::uint8_t salt) {
  std::vector<std::uint8_t> buf(bytes);
  for (std::size_t i = 0; i < bytes; ++i)
    buf[i] = static_cast<std::uint8_t>(i * 7 + salt);
  return buf;
}

TEST(Multirail, StripingUsesBothRails) {
  mpi::Options opts;
  opts.elan4.rails = 2;
  TestBed bed(8, 2);
  bed.run_mpi(2, [&](mpi::World& w) {
    auto& c = w.comm();
    const std::size_t bytes = 1 << 20;
    const std::vector<std::uint8_t> buf = patterned(bytes, 3);
    if (c.rank() == 0) {
      std::vector<std::uint8_t> out = buf;
      c.send(out.data(), bytes, dtype::byte_type(), 1, 0);
    } else {
      std::vector<std::uint8_t> got(bytes, 0);
      c.recv(got.data(), bytes, dtype::byte_type(), 0, 0);
      EXPECT_EQ(got, buf);
      // The receiver pulls each stripe over its own rail: the secondary
      // rail must have carried roughly half the payload.
      ptl_elan4::PtlElan4* rail1 = w.elan4_rail_ptl(1);
      ASSERT_NE(rail1, nullptr);
      EXPECT_GT(rail1->tx_bytes(), bytes / 4);
      EXPECT_TRUE(w.pml().bml().suspect_rails().empty());
    }
    c.barrier();
  }, opts);
}

TEST(Multirail, FailoverCompletesOnSurvivingRail) {
  mpi::Options opts;
  opts.elan4.rails = 2;
  ModelParams p;
  // Shorten the stripe watchdog so the failover fires promptly in sim time.
  p.stripe_timeout_ns = 300'000;
  TestBed bed(8, 2, p);
  bed.run_mpi(2, [&](mpi::World& w) {
    auto& c = w.comm();
    const std::size_t bytes = 1 << 20;
    const std::vector<std::uint8_t> buf = patterned(bytes, 11);
    if (c.rank() == 0) {
      // Kill rail 1 while its ~512KB stripe is mid-flight (a full stripe
      // needs ~550us of wire time). Control traffic and the first fragment
      // ride rail 0 and are unaffected.
      w.net().engine().schedule(150'000, [&w] { w.net().kill_rail(1); });
      std::vector<std::uint8_t> out = buf;
      c.send(out.data(), bytes, dtype::byte_type(), 1, 0);
    } else {
      std::vector<std::uint8_t> got(bytes, 0);
      c.recv(got.data(), bytes, dtype::byte_type(), 0, 0);
      EXPECT_EQ(got, buf) << "failover must deliver every byte intact";
      // The watchdog re-issued the dead rail's stripe on the survivor and
      // marked the rail suspect.
      EXPECT_EQ(w.pml().bml().suspect_rails().count("elan4.1"), 1u);
    }
    c.barrier();
  }, opts);
}

TEST(Multirail, FailoverWithReliabilityAndChecksums) {
  // Same rail kill, with the reliability layer on: stripes carry CRCs and
  // the stripe map/FINs ride the sequenced go-back-N stream on rail 0.
  mpi::Options opts;
  opts.elan4.rails = 2;
  opts.elan4.reliability = true;
  ModelParams p;
  p.stripe_timeout_ns = 300'000;
  TestBed bed(8, 2, p);
  bed.run_mpi(2, [&](mpi::World& w) {
    auto& c = w.comm();
    const std::size_t bytes = 512 * 1024;
    const std::vector<std::uint8_t> buf = patterned(bytes, 29);
    if (c.rank() == 0) {
      w.net().engine().schedule(120'000, [&w] { w.net().kill_rail(1); });
      std::vector<std::uint8_t> out = buf;
      c.send(out.data(), bytes, dtype::byte_type(), 1, 0);
    } else {
      std::vector<std::uint8_t> got(bytes, 0);
      c.recv(got.data(), bytes, dtype::byte_type(), 0, 0);
      EXPECT_EQ(got, buf);
      EXPECT_EQ(w.pml().bml().suspect_rails().count("elan4.1"), 1u);
    }
    c.barrier();
  }, opts);
}

TEST(Multirail, PipelinedFragmentsStripeBelowOldThreshold) {
  // The fragment is the striping unit: a message well under the legacy 32KB
  // whole-message stripe threshold still fans its pull fragments across both
  // rails once it splits into several fragments.
  mpi::Options opts;
  opts.elan4.rails = 2;
  ModelParams p;
  p.pipeline_frag_bytes = 2048;
  p.pipeline_depth = 2;
  p.pipeline_push_frags = 0;  // keep the payload in pull fragments
  TestBed bed(8, 2, p);
  bed.run_mpi(2, [&](mpi::World& w) {
    auto& c = w.comm();
    const std::size_t bytes = 24 * 1024;
    const std::vector<std::uint8_t> buf = patterned(bytes, 41);
    if (c.rank() == 0) {
      std::vector<std::uint8_t> out = buf;
      c.send(out.data(), bytes, dtype::byte_type(), 1, 0);
    } else {
      std::vector<std::uint8_t> got(bytes, 0);
      c.recv(got.data(), bytes, dtype::byte_type(), 0, 0);
      EXPECT_EQ(got, buf);
      ptl_elan4::PtlElan4* rail1 = w.elan4_rail_ptl(1);
      ASSERT_NE(rail1, nullptr);
      EXPECT_GT(rail1->tx_bytes(), bytes / 8)
          << "the secondary rail must carry pull fragments even below 32KB";
      EXPECT_TRUE(w.pml().bml().suspect_rails().empty());
    }
    c.barrier();
  }, opts);
}

TEST(Multirail, RailKillWithFragmentsInFlightCompletesOnSurvivor) {
  // Kill a rail while several depth-limited pipeline fragments are mid-pull
  // on it; the watchdog re-issues every overdue fragment on the survivor and
  // per-fragment FIN aggregation still completes the sender exactly once.
  mpi::Options opts;
  opts.elan4.rails = 2;
  ModelParams p;
  p.pipeline_frag_bytes = 8192;
  p.pipeline_depth = 4;
  p.stripe_timeout_ns = 300'000;
  TestBed bed(8, 2, p);
  bed.run_mpi(2, [&](mpi::World& w) {
    auto& c = w.comm();
    const std::size_t bytes = 512 * 1024;
    const std::vector<std::uint8_t> buf = patterned(bytes, 53);
    if (c.rank() == 0) {
      w.net().engine().schedule(100'000, [&w] { w.net().kill_rail(1); });
      std::vector<std::uint8_t> out = buf;
      c.send(out.data(), bytes, dtype::byte_type(), 1, 0);
    } else {
      std::vector<std::uint8_t> got(bytes, 0);
      c.recv(got.data(), bytes, dtype::byte_type(), 0, 0);
      EXPECT_EQ(got, buf) << "failover must deliver every fragment intact";
      EXPECT_EQ(w.pml().bml().suspect_rails().count("elan4.1"), 1u);
    }
    c.barrier();
  }, opts);
}

TEST(MultirailSoak, StripingUnderLossAndCorruption) {
  // Frame loss exercises the go-back-N stream under the stripe map/FIN
  // traffic; payload corruption exercises the per-stripe CRC re-pull.
  for (const std::uint64_t seed : {1ull, 7ull, 23ull}) {
    mpi::Options opts;
    opts.elan4.rails = 2;
    opts.elan4.reliability = true;
    TestBed bed(8, 2);
    net::FaultProfile profile;
    profile.drop = 0.02;
    // A 512KB stripe spans ~256 wire packets at the 2KB MTU, so the
    // per-packet corruption rate must stay low enough that a whole-stripe
    // CRC pass is likely within the bounded re-pull budget.
    profile.corrupt = 0.002;
    profile.duplicate = 0.01;
    bed.net->set_faults(profile, seed);
    bed.run_mpi(2, [&](mpi::World& w) {
      auto& c = w.comm();
      const std::size_t sizes[] = {1000, 40000, 100000, 1u << 20};
      for (int iter = 0; iter < 3; ++iter) {
        for (const std::size_t bytes : sizes) {
          const auto salt = static_cast<std::uint8_t>(bytes + iter);
          const std::vector<std::uint8_t> buf = patterned(bytes, salt);
          if (c.rank() == 0) {
            std::vector<std::uint8_t> out = buf;
            c.send(out.data(), bytes, dtype::byte_type(), 1, 0);
          } else {
            std::vector<std::uint8_t> got(bytes, 0);
            c.recv(got.data(), bytes, dtype::byte_type(), 0, 0);
            ASSERT_EQ(got, buf) << "seed " << seed << " size " << bytes
                                << " iter " << iter;
          }
        }
      }
      c.barrier();
    }, opts);
  }
}

TEST(MultirailSoak, PipelinedFragmentsUnderHeavyFaults) {
  // ~10% combined fault rate with a small fragment size: heavy pipelined
  // traffic drives the go-back-N stream deep into retransmission while both
  // rails pull fragments. Regression canary for the retransmit-walk race —
  // the rtx fiber suspends inside charge_crc/wire while cumulative acks
  // prune the send log, which once let stale log slots reach the wire as
  // garbage control frames and wedge the protocol.
  for (const std::uint64_t seed : {3ull, 17ull, 31ull}) {
    mpi::Options opts;
    opts.elan4.rails = 2;
    opts.elan4.reliability = true;
    ModelParams p;
    p.pipeline_frag_bytes = 2048;
    p.pipeline_depth = 3;
    TestBed bed(8, 2, p);
    net::FaultProfile profile;
    profile.drop = 0.05;
    profile.corrupt = 0.02;
    profile.duplicate = 0.02;
    profile.delay = 0.01;
    bed.net->set_faults(profile, seed);
    bed.run_mpi(2, [&](mpi::World& w) {
      auto& c = w.comm();
      const std::size_t sizes[] = {16, 512, 1980, 8192, 40000};
      for (int iter = 0; iter < 8; ++iter) {
        for (const std::size_t bytes : sizes) {
          const auto salt = static_cast<std::uint8_t>(bytes * 3 + iter);
          const std::vector<std::uint8_t> buf = patterned(bytes, salt);
          if (c.rank() == 0) {
            std::vector<std::uint8_t> out = buf;
            c.send(out.data(), bytes, dtype::byte_type(), 1, 0);
          } else {
            std::vector<std::uint8_t> got(bytes, 0);
            c.recv(got.data(), bytes, dtype::byte_type(), 0, 0);
            ASSERT_EQ(got, buf) << "seed " << seed << " size " << bytes
                                << " iter " << iter;
          }
        }
      }
      c.barrier();
    }, opts);
  }
}

}  // namespace
}  // namespace oqs
