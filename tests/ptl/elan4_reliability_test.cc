// Hardened reliability path under deterministic fault injection.
//
// The fault layer (net/fault.h) drops, duplicates, delays, and corrupts
// lossy-classed wire packets from seeded RNG streams; these tests drive the
// Elan4 PTL's ack-clocked go-back-N through every fault class and assert
// the three protocol invariants:
//   * correctness — every byte arrives intact, exactly once, in order;
//   * boundedness — sent_log/backlog never exceed the send window (the old
//     size-512 truncation is gone, so a NACK can never reference a pruned
//     frame);
//   * determinism — the same fault seed reproduces the same retransmission
//     schedule and the same trace digest.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "net/fault.h"
#include "obs/trace.h"
#include "testbed.h"

namespace oqs {
namespace {

using test::TestBed;

mpi::Options reliable() {
  mpi::Options o;
  o.elan4.reliability = true;
  return o;
}

// Rank 0 streams `msgs` patterned messages of `bytes` to rank 1, which
// verifies every byte. Pattern depends on (message, offset) so reordering,
// duplication, and truncation all corrupt it detectably.
void stream_and_verify(mpi::World& w, int msgs, std::size_t bytes) {
  auto& c = w.comm();
  if (c.rank() == 0) {
    std::vector<std::uint8_t> buf(bytes);
    for (int i = 0; i < msgs; ++i) {
      for (std::size_t j = 0; j < bytes; ++j)
        buf[j] = static_cast<std::uint8_t>(i * 31 + j * 7);
      c.send(buf.data(), bytes, dtype::byte_type(), 1, 0);
    }
  } else {
    std::vector<std::uint8_t> got(bytes);
    for (int i = 0; i < msgs; ++i) {
      std::fill(got.begin(), got.end(), 0);
      c.recv(got.data(), bytes, dtype::byte_type(), 0, 0);
      for (std::size_t j = 0; j < bytes; ++j)
        ASSERT_EQ(got[j], static_cast<std::uint8_t>(i * 31 + j * 7))
            << "msg " << i << " byte " << j;
    }
  }
  c.barrier();
}

TEST(Elan4Reliability, DroppedFramesAreRetransmitted) {
  TestBed bed;
  net::FaultProfile p;
  p.drop = 0.05;
  bed.net->set_faults(p, /*seed=*/17);
  std::uint64_t retransmissions = 0;
  bed.run_mpi(2, [&](mpi::World& w) {
    stream_and_verify(w, 150, 256);
    retransmissions += w.elan4_ptl()->retransmissions();
    w.comm().barrier();
  }, reliable());
  EXPECT_GT(bed.net->faults()->drops(), 0u);
  EXPECT_GT(retransmissions, 0u);
}

// Regression for the pruned-NACK stall: the old sender truncated sent_log
// at 512 frames, so a NACK arriving for a pruned sequence could never be
// served and the pairing stalled forever. With ack-driven pruning and a
// bounded window, an unacknowledged frame can never leave the log — this
// workload (window far smaller than the in-flight demand, plus loss) used
// to hang and must now terminate with the window bound respected.
TEST(Elan4Reliability, WindowOverflowCannotStallRecovery) {
  TestBed bed;
  net::FaultProfile p;
  p.drop = 0.08;
  bed.net->set_faults(p, /*seed=*/29);
  mpi::Options o = reliable();
  o.elan4.send_window = 8;
  std::uint64_t retransmissions = 0;
  std::size_t max_outstanding = 0;
  bed.run_mpi(2, [&](mpi::World& w) {
    auto& c = w.comm();
    constexpr int kMsgs = 400;
    constexpr std::size_t kBytes = 128;
    if (c.rank() == 0) {
      std::vector<std::uint8_t> buf(kBytes);
      for (int i = 0; i < kMsgs; ++i) {
        for (std::size_t j = 0; j < kBytes; ++j)
          buf[j] = static_cast<std::uint8_t>(i + j);
        c.send(buf.data(), kBytes, dtype::byte_type(), 1, 0);
        max_outstanding =
            std::max(max_outstanding, w.elan4_ptl()->outstanding_frames(1));
      }
    } else {
      std::vector<std::uint8_t> got(kBytes);
      for (int i = 0; i < kMsgs; ++i) {
        c.recv(got.data(), kBytes, dtype::byte_type(), 0, 0);
        for (std::size_t j = 0; j < kBytes; ++j)
          ASSERT_EQ(got[j], static_cast<std::uint8_t>(i + j));
      }
    }
    c.barrier();
    retransmissions += w.elan4_ptl()->retransmissions();
    c.barrier();
  }, o);
  EXPECT_GT(bed.net->faults()->drops(), 0u);
  EXPECT_GT(retransmissions, 0u);
  EXPECT_LE(max_outstanding, 8u);
}

TEST(Elan4Reliability, DuplicatedFramesAreSuppressed) {
  TestBed bed;
  net::FaultProfile p;
  p.duplicate = 0.15;
  bed.net->set_faults(p, /*seed=*/23);
  std::uint64_t dups_suppressed = 0;
  bed.run_mpi(2, [&](mpi::World& w) {
    stream_and_verify(w, 120, 512);
    dups_suppressed += w.elan4_ptl()->dup_frames();
    w.comm().barrier();
  }, reliable());
  EXPECT_GT(bed.net->faults()->duplicates(), 0u);
  EXPECT_GT(dups_suppressed, 0u);
}

TEST(Elan4Reliability, DelayedFramesReorderSafely) {
  TestBed bed;
  bed.allow_drops = true;  // a delayed frame may land after its receiver left
  net::FaultProfile p;
  p.delay = 0.2;
  p.delay_ns = 60000;  // long enough to leapfrog several successors
  bed.net->set_faults(p, /*seed=*/31);
  std::uint64_t ooo_dropped = 0;
  bed.run_mpi(2, [&](mpi::World& w) {
    stream_and_verify(w, 120, 512);
    ooo_dropped += w.elan4_ptl()->frames_dropped();
    w.comm().barrier();
  }, reliable());
  EXPECT_GT(bed.net->faults()->delays(), 0u);
  // A held frame makes its successors arrive out of order: go-back-N
  // refuses them and recovers by retransmission.
  EXPECT_GT(ooo_dropped, 0u);
}

// The acceptance bar from the issue: with loss injection up to 10% (drop +
// corruption combined, plus duplication and delay), every scenario
// terminates with correct data and bounded sender state.
TEST(Elan4Reliability, MixedFaultsAtTenPercentStayCorrectAndBounded) {
  TestBed bed;
  bed.allow_drops = true;  // a delayed frame may land after its receiver left
  net::FaultProfile p;
  p.drop = 0.05;
  p.corrupt = 0.05;
  p.duplicate = 0.02;
  p.delay = 0.02;
  bed.net->set_faults(p, /*seed=*/7);
  mpi::Options o = reliable();
  bed.run_mpi(2, [&](mpi::World& w) {
    auto& c = w.comm();
    // Eager and rendezvous sizes, interleaved over many rounds.
    const std::size_t sizes[] = {64, 1000, 1980, 4096, 32768};
    for (int round = 0; round < 12; ++round) {
      for (std::size_t bytes : sizes) {
        std::vector<std::uint8_t> buf(bytes);
        if (c.rank() == 0) {
          for (std::size_t j = 0; j < bytes; ++j)
            buf[j] = static_cast<std::uint8_t>(round * 13 + j * 5);
          c.send(buf.data(), bytes, dtype::byte_type(), 1, 0);
        } else {
          c.recv(buf.data(), bytes, dtype::byte_type(), 0, 0);
          for (std::size_t j = 0; j < bytes; ++j)
            ASSERT_EQ(buf[j], static_cast<std::uint8_t>(round * 13 + j * 5))
                << "round " << round << " size " << bytes << " byte " << j;
        }
      }
    }
    c.barrier();
    // Sender state is ack-clocked, never history-unbounded: whatever is
    // still unacknowledged fits the window.
    EXPECT_LE(w.elan4_ptl()->outstanding_frames(1 - c.rank()),
              o.elan4.send_window);
    c.barrier();
  }, o);
  EXPECT_GT(bed.net->faults()->drops(), 0u);
  EXPECT_GT(bed.net->faults()->corruptions(), 0u);
}

struct FaultRun {
  sim::Time final_time = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t rtx_timeouts = 0;
  std::uint64_t dup_frames = 0;
  std::uint64_t drops = 0;
  std::uint64_t digest = 0;
};

FaultRun run_lossy_workload(std::uint64_t seed) {
  obs::Tracer tracer;
  obs::set_tracer(&tracer);
  TestBed bed;
  bed.allow_drops = true;  // a delayed frame may land after its receiver left
  net::FaultProfile p;
  p.drop = 0.04;
  p.corrupt = 0.02;
  p.duplicate = 0.02;
  p.delay = 0.02;
  bed.net->set_faults(p, seed);
  FaultRun out;
  out.final_time = bed.run_mpi(2, [&](mpi::World& w) {
    stream_and_verify(w, 100, 512);
    auto* ptl = w.elan4_ptl();
    out.retransmissions += ptl->retransmissions();
    out.rtx_timeouts += ptl->rtx_timeouts();
    out.dup_frames += ptl->dup_frames();
    w.comm().barrier();
  }, reliable());
  out.drops = bed.net->faults()->drops();
  out.digest = tracer.digest();
  obs::set_tracer(nullptr);
  return out;
}

TEST(Elan4Reliability, SameFaultSeedReproducesSameSchedule) {
  const FaultRun a = run_lossy_workload(42);
  const FaultRun b = run_lossy_workload(42);
  EXPECT_GT(a.retransmissions, 0u);
  EXPECT_EQ(a.final_time, b.final_time);
  EXPECT_EQ(a.retransmissions, b.retransmissions);
  EXPECT_EQ(a.rtx_timeouts, b.rtx_timeouts);
  EXPECT_EQ(a.dup_frames, b.dup_frames);
  EXPECT_EQ(a.drops, b.drops);
  EXPECT_EQ(a.digest, b.digest);
}

TEST(Elan4Reliability, DifferentFaultSeedDiverges) {
#if defined(OQS_TRACE_DISABLED)
  GTEST_SKIP() << "instrumentation compiled out (-DOQS_TRACE=OFF)";
#else
  const FaultRun a = run_lossy_workload(42);
  const FaultRun b = run_lossy_workload(43);
  EXPECT_NE(a.digest, b.digest);
#endif
}

// Satellite: uint16 sequence wraparound. seq_start places both sides just
// below 65535, so the stream crosses 65535 -> 0 mid-run while frames are
// being dropped, duplicated, and NACKed; the int16-delta admit logic and
// the cumulative-ack arithmetic must keep working across the wrap.
TEST(Elan4Reliability, SequenceWraparoundUnderLoss) {
  TestBed bed;
  net::FaultProfile p;
  p.drop = 0.05;
  p.duplicate = 0.03;
  bed.net->set_faults(p, /*seed=*/13);
  mpi::Options o = reliable();
  o.elan4.seq_start = 65500;
  std::uint64_t retransmissions = 0;
  bed.run_mpi(2, [&](mpi::World& w) {
    // Well past 35 frames each way: the wrap happens early and the bulk of
    // the run (including all recovery) operates on post-wrap sequences.
    stream_and_verify(w, 300, 256);
    retransmissions += w.elan4_ptl()->retransmissions();
    w.comm().barrier();
  }, o);
  EXPECT_GT(bed.net->faults()->drops(), 0u);
  EXPECT_GT(retransmissions, 0u);
}

// Clean-wire wraparound: same crossing with no faults; pure protocol path.
TEST(Elan4Reliability, SequenceWraparoundCleanWire) {
  TestBed bed;
  mpi::Options o = reliable();
  o.elan4.seq_start = 65520;
  bed.run_mpi(2, [&](mpi::World& w) {
    stream_and_verify(w, 100, 1024);
    EXPECT_EQ(w.elan4_ptl()->retransmissions(), 0u);
    w.comm().barrier();
  }, o);
}

// ---- slow-labelled soak (CI runs these in the `-L slow` lane) ----

// High-loss seed sweep: the same heavy fault profile across several seeds,
// each run also crossing the uint16 wrap at a different point. Every seed
// must converge to a correct, fully-acknowledged stream.
TEST(ReliabilitySoak, HighLossSeedSweep) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
    TestBed bed;
    bed.allow_drops = true;  // a delayed frame may land after its receiver left
    net::FaultProfile p;
    p.drop = 0.08;
    p.corrupt = 0.05;
    p.duplicate = 0.03;
    p.delay = 0.03;
    bed.net->set_faults(p, seed);
    mpi::Options o = reliable();
    o.elan4.seq_start = static_cast<std::uint16_t>(65400 + seed * 31);
    std::uint64_t retransmissions = 0;
    bed.run_mpi(2, [&](mpi::World& w) {
      auto& c = w.comm();
      const std::size_t sizes[] = {16, 512, 1980, 8192};
      for (int round = 0; round < 50; ++round) {
        for (std::size_t bytes : sizes) {
          std::vector<std::uint8_t> buf(bytes);
          if (c.rank() == 0) {
            for (std::size_t j = 0; j < bytes; ++j)
              buf[j] = static_cast<std::uint8_t>(round + j * 3);
            c.send(buf.data(), bytes, dtype::byte_type(), 1, 0);
          } else {
            c.recv(buf.data(), bytes, dtype::byte_type(), 0, 0);
            for (std::size_t j = 0; j < bytes; ++j)
              ASSERT_EQ(buf[j], static_cast<std::uint8_t>(round + j * 3))
                  << "seed " << seed << " round " << round << " size "
                  << bytes;
          }
        }
      }
      c.barrier();
      retransmissions += w.elan4_ptl()->retransmissions();
      EXPECT_LE(w.elan4_ptl()->outstanding_frames(1 - c.rank()),
                o.elan4.send_window);
      c.barrier();
    }, o);
    EXPECT_GT(bed.net->faults()->drops(), 0u) << "seed " << seed;
    EXPECT_GT(retransmissions, 0u) << "seed " << seed;
  }
}

// Bidirectional soak: both ranks stream simultaneously so every frame
// carries a piggybacked cumulative ack for the reverse direction, under
// loss, with a small window — the piggyback path gets real coverage.
TEST(ReliabilitySoak, BidirectionalTrafficUnderLoss) {
  TestBed bed;
  net::FaultProfile p;
  p.drop = 0.06;
  p.duplicate = 0.02;
  bed.net->set_faults(p, /*seed=*/101);
  mpi::Options o = reliable();
  o.elan4.send_window = 16;
  bed.run_mpi(2, [&](mpi::World& w) {
    auto& c = w.comm();
    const int peer = 1 - c.rank();
    constexpr int kMsgs = 250;
    constexpr std::size_t kBytes = 400;
    std::vector<std::uint8_t> out(kBytes);
    std::vector<std::uint8_t> in(kBytes);
    for (int i = 0; i < kMsgs; ++i) {
      for (std::size_t j = 0; j < kBytes; ++j)
        out[j] = static_cast<std::uint8_t>(c.rank() * 101 + i * 17 + j);
      auto s = c.isend(out.data(), kBytes, dtype::byte_type(), peer, 0);
      auto r = c.irecv(in.data(), kBytes, dtype::byte_type(), peer, 0);
      s.wait();
      r.wait();
      for (std::size_t j = 0; j < kBytes; ++j)
        ASSERT_EQ(in[j], static_cast<std::uint8_t>(peer * 101 + i * 17 + j))
            << "msg " << i << " byte " << j;
    }
    c.barrier();
  }, o);
  EXPECT_GT(bed.net->faults()->drops(), 0u);
}

}  // namespace
}  // namespace oqs
