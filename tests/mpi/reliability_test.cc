// End-to-end reliability (LA-MPI heritage): CRC32C framing, NACK-driven
// retransmission, and per-fragment verification with re-pull recovery of
// rendezvous payloads, under injected wire corruption.
#include <gtest/gtest.h>

#include <numeric>

#include "testbed.h"

namespace oqs {
namespace {

using test::TestBed;

mpi::Options reliable() {
  mpi::Options o;
  o.elan4.reliability = true;
  return o;
}

// Corruption only: each landing payload gets one bit flipped with `prob`.
net::FaultProfile corruption(double prob) {
  net::FaultProfile p;
  p.corrupt = prob;
  return p;
}

std::uint64_t crc_retries() {
  return obs::metrics().counter("bml.stripe.crc_retries").value();
}

TEST(Reliability, CleanWireBehavesNormally) {
  TestBed bed;
  const std::uint64_t crc_retries_before = crc_retries();
  bed.run_mpi(2, [&](mpi::World& w) {
    auto& c = w.comm();
    for (std::size_t bytes : {0ul, 4ul, 1980ul, 4096ul, 100000ul}) {
      std::vector<std::uint8_t> buf(bytes, static_cast<std::uint8_t>(bytes));
      if (c.rank() == 0) {
        c.send(buf.data(), bytes, dtype::byte_type(), 1, 0);
      } else {
        std::vector<std::uint8_t> got(bytes, 0);
        c.recv(got.data(), bytes, dtype::byte_type(), 0, 0);
        EXPECT_EQ(got, buf);
      }
    }
    c.barrier();
    EXPECT_EQ(w.elan4_ptl()->retransmissions(), 0u);
  }, reliable());
  EXPECT_EQ(crc_retries(), crc_retries_before);
}

TEST(Reliability, EagerTrafficSurvivesCorruption) {
  TestBed bed;
  bed.net->set_faults(corruption(0.05), /*seed=*/77);
  std::uint64_t retransmissions = 0;
  bed.run_mpi(2, [&](mpi::World& w) {
    auto& c = w.comm();
    constexpr int kMsgs = 120;
    if (c.rank() == 0) {
      for (int i = 0; i < kMsgs; ++i) {
        std::vector<std::uint8_t> msg(900);
        for (std::size_t j = 0; j < msg.size(); ++j)
          msg[j] = static_cast<std::uint8_t>(i * 31 + j);
        c.send(msg.data(), msg.size(), dtype::byte_type(), 1, i);
      }
    } else {
      for (int i = 0; i < kMsgs; ++i) {
        std::vector<std::uint8_t> got(900, 0);
        c.recv(got.data(), got.size(), dtype::byte_type(), 0, i);
        for (std::size_t j = 0; j < got.size(); ++j)
          ASSERT_EQ(got[j], static_cast<std::uint8_t>(i * 31 + j))
              << "msg " << i << " byte " << j;
      }
    }
    c.barrier();  // all retransmissions have happened by now
    if (c.rank() == 0) retransmissions = w.elan4_ptl()->retransmissions();
    c.barrier();
  }, reliable());
  EXPECT_GT(bed.net->corruptions(), 0u);
  EXPECT_GT(retransmissions, 0u);
}

TEST(Reliability, RendezvousPayloadRecoversByRepulling) {
  TestBed bed;
  // Corruption hits the Elan4 fabric only: keep every pull on it.
  bed.pin_transport = true;
  bed.net->set_faults(corruption(0.04), /*seed=*/5);
  const std::uint64_t crc_retries_before = crc_retries();
  bed.run_mpi(2, [&](mpi::World& w) {
    auto& c = w.comm();
    // ~98 wire packets, so a pulled one is corrupt (at this seed 100 KB
    // corrupts only a control frame, which go-back-N recovers).
    const std::size_t bytes = 200000;
    std::vector<std::uint8_t> buf(bytes);
    if (c.rank() == 0) {
      std::iota(buf.begin(), buf.end(), 0);
      c.send(buf.data(), bytes, dtype::byte_type(), 1, 0);
    } else {
      std::fill(buf.begin(), buf.end(), 0);
      mpi::RecvStatus st;
      c.recv(buf.data(), bytes, dtype::byte_type(), 0, 0, &st);
      ASSERT_TRUE(ok(st.status));
      std::vector<std::uint8_t> expect(bytes);
      std::iota(expect.begin(), expect.end(), 0);
      EXPECT_EQ(buf, expect);
    }
    c.barrier();
  }, reliable());
  EXPECT_GT(bed.net->corruptions(), 0u);
  EXPECT_GT(crc_retries(), crc_retries_before);
}

TEST(Reliability, PaperSchemesUnderReliabilityRunTheSchedule) {
  // The paper schemes carry no payload checksum, so reliability sends
  // every rendezvous through the fragment schedule, which verifies and
  // re-pulls per fragment, whatever scheme was asked for.
  for (const auto scheme :
       {ptl_elan4::Scheme::kRdmaRead, ptl_elan4::Scheme::kRdmaWrite}) {
    SCOPED_TRACE(scheme == ptl_elan4::Scheme::kRdmaRead ? "read" : "write");
    mpi::Options o = reliable();
    o.elan4.scheme = scheme;
    TestBed bed;
    const test::RdvCounts before;
    bed.run_mpi(2, [&](mpi::World& w) {
      auto& c = w.comm();
      std::vector<std::uint8_t> buf(100000);
      if (c.rank() == 0) {
        std::iota(buf.begin(), buf.end(), 0);
        c.send(buf.data(), buf.size(), dtype::byte_type(), 1, 0);
      } else {
        c.recv(buf.data(), buf.size(), dtype::byte_type(), 0, 0);
        std::vector<std::uint8_t> expect(buf.size());
        std::iota(expect.begin(), expect.end(), 0);
        EXPECT_EQ(buf, expect);
      }
    }, o);
    test::expect_rendezvous_path(ptl_elan4::Scheme::kPipelined, before);
  }
}

TEST(Reliability, ExhaustedStripeRepullsFailBothBlockingSides) {
  // The default pipelined schedule re-pulls a corrupt fragment a bounded
  // number of times, then fails the transfer: both sides see the error,
  // from a blocking send/recv and from a nonblocking isend/irecv + wait,
  // instead of the process aborting.
  for (const bool blocking : {true, false}) {
    SCOPED_TRACE(blocking ? "blocking" : "nonblocking");
    TestBed bed;
    bed.pin_transport = true;
    bed.net->set_faults(corruption(0.5), /*seed=*/3);  // certain corruption
    const std::uint64_t crc_retries_before = crc_retries();
    Status send_st = Status::kOk;
    Status recv_st = Status::kOk;
    bed.run_mpi(2, [&](mpi::World& w) {
      auto& c = w.comm();
      std::vector<std::uint8_t> buf(100000, 1);
      mpi::RecvStatus st;
      if (c.rank() == 0 && blocking) {
        send_st = c.send(buf.data(), buf.size(), dtype::byte_type(), 1, 0);
      } else if (c.rank() == 0) {
        c.isend(buf.data(), buf.size(), dtype::byte_type(), 1, 0).wait(&st);
        send_st = st.status;
      } else if (blocking) {
        recv_st = c.recv(buf.data(), buf.size(), dtype::byte_type(), 0, 0);
      } else {
        c.irecv(buf.data(), buf.size(), dtype::byte_type(), 0, 0).wait(&st);
        recv_st = st.status;
      }
    }, reliable());
    EXPECT_EQ(send_st, Status::kError);
    EXPECT_EQ(recv_st, Status::kError);
    EXPECT_GT(crc_retries(), crc_retries_before);
  }
}

TEST(Reliability, ModerateCorruptionLargePayloadEventuallyClean) {
  // With a per-fragment corruption rate low enough, 3 retries recover.
  TestBed bed;
  bed.net->set_faults(corruption(0.01), /*seed=*/11);
  int delivered_ok = 0;
  bed.run_mpi(2, [&](mpi::World& w) {
    auto& c = w.comm();
    for (int round = 0; round < 5; ++round) {
      std::vector<std::uint8_t> buf(50000);
      if (c.rank() == 0) {
        for (std::size_t j = 0; j < buf.size(); ++j)
          buf[j] = static_cast<std::uint8_t>(j * 7 + round);
        c.send(buf.data(), buf.size(), dtype::byte_type(), 1, round);
      } else {
        mpi::RecvStatus st;
        c.recv(buf.data(), buf.size(), dtype::byte_type(), 0, round, &st);
        ASSERT_TRUE(ok(st.status)) << "round " << round;
        for (std::size_t j = 0; j < buf.size(); ++j)
          ASSERT_EQ(buf[j], static_cast<std::uint8_t>(j * 7 + round));
        ++delivered_ok;
      }
    }
    c.barrier();
  }, reliable());
  EXPECT_EQ(delivered_ok, 5);
}

TEST(Reliability, ChecksumCostsShowInLatency) {
  auto lat = [](bool reliable_mode) {
    mpi::Options o;
    o.elan4.reliability = reliable_mode;
    TestBed bed;
    double us = 0;
    bed.run_mpi(2, [&](mpi::World& w) {
      auto& c = w.comm();
      std::vector<std::uint8_t> buf(1024, 1);
      c.barrier();
      const sim::Time t0 = w.net().engine().now();
      for (int i = 0; i < 50; ++i) {
        if (c.rank() == 0) {
          c.send(buf.data(), buf.size(), dtype::byte_type(), 1, 0);
          c.recv(buf.data(), buf.size(), dtype::byte_type(), 1, 0);
        } else {
          c.recv(buf.data(), buf.size(), dtype::byte_type(), 0, 0);
          c.send(buf.data(), buf.size(), dtype::byte_type(), 0, 0);
        }
      }
      if (c.rank() == 0) us = sim::to_us(w.net().engine().now() - t0) / 100.0;
      c.barrier();
    }, o);
    return us;
  };
  const double off = lat(false);
  const double on = lat(true);
  EXPECT_GT(on, off + 0.5);  // two CRC passes over ~1.1KB per one-way
  EXPECT_LT(on, off * 2.0);  // but not catastrophic
}

// Simulated time from a peer's crash until the survivor's retransmission
// watchdog first reports it suspect (rte.failure.suspects rises); 0 if the
// heartbeat detector declared the death first.
sim::Time first_suspect_after_crash(int suspect_timeouts) {
  ModelParams p;
  p.suspect_timeouts = suspect_timeouts;
  TestBed bed(8, 1, p);
  bed.pin_transport = true;
  bed.allow_drops = true;  // frames to the corpse are dropped at its NIC
  const obs::Counter& suspects = obs::metrics().counter("rte.failure.suspects");
  const std::uint64_t base = suspects.value();
  sim::Time crashed_at = 0;
  sim::Time first = 0;
  bed.run_mpi(2, [&](mpi::World& w) {
    auto& c = w.comm();
    sim::Engine& engine = w.net().engine();
    c.barrier();
    if (c.rank() == 1) {
      crashed_at = engine.now();
      w.crash();
      return;
    }
    // The corpse never acks this frame, so every retransmission timeout
    // against it is unproductive.
    std::uint32_t v = 1;
    c.send(&v, sizeof(v), dtype::byte_type(), 1, 0);
    while (!w.proc_dead(c.gid_of(1))) {
      if (first == 0 && suspects.value() > base) first = engine.now();
      engine.sleep(1000);
    }
  }, reliable());
  return first == 0 ? 0 : first - crashed_at;
}

TEST(Reliability, SuspectThresholdComesFromModelParams) {
  // ModelParams::suspect_timeouts is the watchdog's threshold: one
  // unproductive timeout reports the corpse sooner than three do.
  const sim::Time after_one = first_suspect_after_crash(1);
  const sim::Time after_three = first_suspect_after_crash(3);
  EXPECT_GT(after_one, 0u);
  EXPECT_GT(after_three, after_one);
}

}  // namespace
}  // namespace oqs
