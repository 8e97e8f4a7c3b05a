// End-to-end reliability (LA-MPI heritage): CRC32C framing, NACK-driven
// retransmission, and RDMA payload verification with re-read recovery,
// under injected wire corruption.
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

TEST(Reliability, CleanWireBehavesNormally) {
  TestBed bed;
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
    auto* ptl = w.elan4_ptl();
    EXPECT_EQ(ptl->retransmissions(), 0u);
    EXPECT_EQ(ptl->data_retries(), 0u);
  }, reliable());
}

TEST(Reliability, EagerTrafficSurvivesCorruption) {
  TestBed bed;
  bed.net->set_corruption(0.05, /*seed=*/77);
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

TEST(Reliability, RendezvousPayloadRecoversByRereading) {
  mpi::Options o = reliable();
  o.elan4.max_data_retries = 25;  // survive an aggressive corruption rate
  // Asserts the PTL's data_retries counter, which the BML's fragmented path
  // (with its own per-fragment CRC re-pulls) bypasses — run the paper's
  // monolithic single-pull rendezvous.
  o.elan4.scheme = ptl_elan4::Scheme::kRdmaRead;
  TestBed bed;
  bed.pin_transport = true;
  bed.net->set_corruption(0.04, /*seed=*/5);
  std::uint64_t retries = 0;
  bed.run_mpi(2, [&](mpi::World& w) {
    auto& c = w.comm();
    const std::size_t bytes = 100000;  // ~49 fragments: retries near-certain
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
      retries = w.elan4_ptl()->data_retries();
    }
    c.barrier();
  }, o);
  EXPECT_GT(bed.net->corruptions(), 0u);
  EXPECT_GT(retries, 0u);
}

TEST(Reliability, UnrecoverablePayloadFailsBothSides) {
  mpi::Options o = reliable();
  o.elan4.max_data_retries = 0;  // no recovery allowed
  // Expects the monolithic scheme's FIN_ACK failure path; the fragmented
  // path recovers via CRC re-pulls instead of failing.
  o.elan4.scheme = ptl_elan4::Scheme::kRdmaRead;
  TestBed bed;
  bed.pin_transport = true;
  bed.net->set_corruption(0.5, /*seed=*/3);  // certain corruption
  bed.run_mpi(2, [&](mpi::World& w) {
    auto& c = w.comm();
    std::vector<std::uint8_t> buf(100000, 1);
    if (c.rank() == 0) {
      mpi::Request s = c.isend(buf.data(), buf.size(), dtype::byte_type(), 1, 0);
      mpi::RecvStatus st;
      s.wait(&st);
      EXPECT_EQ(st.status, Status::kError);  // FIN_ACK carried the failure
    } else {
      mpi::RecvStatus st;
      mpi::Request r = c.irecv(buf.data(), buf.size(), dtype::byte_type(), 0, 0);
      r.wait(&st);
      EXPECT_EQ(st.status, Status::kError);
    }
  }, o);
}

TEST(Reliability, ExhaustedStripeRepullsFailBothBlockingSides) {
  // The default pipelined schedule re-pulls a corrupt fragment a bounded
  // number of times, then fails the transfer: a blocking send and recv
  // both return the error instead of aborting the process.
  TestBed bed;
  bed.pin_transport = true;
  bed.net->set_corruption(0.5, /*seed=*/3);  // certain corruption
  const std::uint64_t crc_retries_before =
      obs::metrics().counter("bml.stripe.crc_retries").value();
  Status send_st = Status::kOk;
  Status recv_st = Status::kOk;
  bed.run_mpi(2, [&](mpi::World& w) {
    auto& c = w.comm();
    std::vector<std::uint8_t> buf(100000, 1);
    if (c.rank() == 0) {
      send_st = c.send(buf.data(), buf.size(), dtype::byte_type(), 1, 0);
    } else {
      recv_st = c.recv(buf.data(), buf.size(), dtype::byte_type(), 0, 0);
    }
  }, reliable());
  EXPECT_EQ(send_st, Status::kError);
  EXPECT_EQ(recv_st, Status::kError);
  EXPECT_GT(obs::metrics().counter("bml.stripe.crc_retries").value(),
            crc_retries_before);
}

TEST(Reliability, ModerateCorruptionLargePayloadEventuallyClean) {
  // With a per-fragment corruption rate low enough, 3 retries recover.
  TestBed bed;
  bed.net->set_corruption(0.01, /*seed=*/11);
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
