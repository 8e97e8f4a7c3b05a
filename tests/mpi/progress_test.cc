// Progress machinery: polling vs interrupt vs one/two progress threads, and
// the completion-queue variants (paper §4.3, §6.2, §6.4).
#include <gtest/gtest.h>

#include <algorithm>

#include "testbed.h"

namespace oqs {
namespace {

using test::TestBed;

struct ProgressCase {
  ptl_elan4::Progress progress;
  ptl_elan4::Completion completion;
};

class ProgressModes
    : public ::testing::TestWithParam<
          std::tuple<ProgressCase, ptl_elan4::Scheme>> {};

TEST_P(ProgressModes, PingPongSmallAndLarge) {
  const auto& [pc, scheme] = GetParam();
  mpi::Options opts;
  opts.elan4.progress = pc.progress;
  opts.elan4.completion = pc.completion;
  opts.elan4.scheme = scheme;

  TestBed bed;
  int done = 0;
  const test::RdvCounts before;
  bed.run_mpi(2, [&](mpi::World& w) {
    auto& c = w.comm();
    for (std::size_t bytes : {4ul, 4096ul, 100000ul}) {
      std::vector<std::uint8_t> buf(bytes, static_cast<std::uint8_t>(bytes));
      if (c.rank() == 0) {
        c.send(buf.data(), bytes, dtype::byte_type(), 1, 0);
        std::vector<std::uint8_t> back(bytes, 0);
        c.recv(back.data(), bytes, dtype::byte_type(), 1, 0);
        EXPECT_EQ(back, buf);
      } else {
        std::vector<std::uint8_t> got(bytes, 0);
        c.recv(got.data(), bytes, dtype::byte_type(), 0, 0);
        c.send(got.data(), bytes, dtype::byte_type(), 0, 0);
      }
    }
    c.barrier();
    ++done;
  }, opts);
  EXPECT_EQ(done, 2);
  test::expect_rendezvous_path(scheme, before);
}

// Every progress/completion pairing under the fragment schedule and both
// paper schemes.
INSTANTIATE_TEST_SUITE_P(
    AllModes, ProgressModes,
    ::testing::Combine(
        ::testing::Values(
            ProgressCase{ptl_elan4::Progress::kPolling,
                         ptl_elan4::Completion::kDirectPoll},
            ProgressCase{ptl_elan4::Progress::kPolling,
                         ptl_elan4::Completion::kSharedCombined},
            ProgressCase{ptl_elan4::Progress::kPolling,
                         ptl_elan4::Completion::kSharedSeparate},
            ProgressCase{ptl_elan4::Progress::kInterrupt,
                         ptl_elan4::Completion::kSharedCombined},
            ProgressCase{ptl_elan4::Progress::kOneThread,
                         ptl_elan4::Completion::kSharedCombined},
            ProgressCase{ptl_elan4::Progress::kTwoThreads,
                         ptl_elan4::Completion::kSharedSeparate}),
        ::testing::Values(ptl_elan4::Scheme::kPipelined,
                          ptl_elan4::Scheme::kRdmaRead,
                          ptl_elan4::Scheme::kRdmaWrite)));

TEST(Progress, InterruptModeReceiveParksWhileItsRendezvousIsInFlight) {
  // On the sole interrupt-mode rail a round that finds nothing blocks in
  // the rail while it is idle, and idles only while a protocol exchange is
  // in flight; those idle stretches park, and the receive completes at the
  // instant the spinning rounds gave.
  mpi::Options opts;
  opts.elan4.progress = ptl_elan4::Progress::kInterrupt;
  TestBed bed;
  bed.pin_transport = true;
  std::size_t parked = 0;
  sim::Time received = 0;
  bed.engine.spawn("sampler", [&] {
    while (received == 0) {
      parked = std::max(parked, bed.engine.parked_waits());
      bed.engine.sleep(sim::kUs);
    }
  });
  bed.run_mpi(2, [&](mpi::World& w) {
    auto& c = w.comm();
    std::vector<std::uint8_t> buf(1 << 20, 7);
    if (c.rank() == 0) {
      c.send(buf.data(), buf.size(), dtype::byte_type(), 1, 0);
    } else {
      c.recv(buf.data(), buf.size(), dtype::byte_type(), 0, 0);
      received = w.net().engine().now();
    }
  }, opts);
  EXPECT_GT(parked, 0u);
  // Init's modex is one registry fetch: a round trip plus 50 B of records.
  EXPECT_EQ(received, 1610693u);
}

TEST(Progress, LatencyOrderingAcrossModes) {
  // Table 1's qualitative ordering must emerge from the model:
  // polling < interrupt < one-thread < two-thread latency.
  auto measure = [](ptl_elan4::Progress mode) {
    mpi::Options opts;
    opts.elan4.progress = mode;
    TestBed bed;
    // The interrupt/thread cost ladder only exists when the sole wired PTL
    // can block; a second rail or the TCP PTL forces polling in wait().
    bed.pin_transport = true;
    double us = 0;
    bed.run_mpi(2, [&](mpi::World& w) {
      auto& c = w.comm();
      std::uint32_t v = 0;
      constexpr int kIters = 60;
      c.barrier();
      const sim::Time t0 = w.net().engine().now();
      for (int i = 0; i < kIters; ++i) {
        if (c.rank() == 0) {
          c.send(&v, 4, dtype::byte_type(), 1, 0);
          c.recv(&v, 4, dtype::byte_type(), 1, 0);
        } else {
          c.recv(&v, 4, dtype::byte_type(), 0, 0);
          c.send(&v, 4, dtype::byte_type(), 0, 0);
        }
      }
      if (c.rank() == 0)
        us = sim::to_us(w.net().engine().now() - t0) / (2.0 * kIters);
      c.barrier();
    }, opts);
    return us;
  };

  const double poll = measure(ptl_elan4::Progress::kPolling);
  const double irq = measure(ptl_elan4::Progress::kInterrupt);
  const double one = measure(ptl_elan4::Progress::kOneThread);
  const double two = measure(ptl_elan4::Progress::kTwoThreads);
  EXPECT_LT(poll, irq);
  EXPECT_LT(irq, one);
  EXPECT_LT(one, two);
  // Interrupt adds roughly the interrupt latency (~10us paper, ±50%).
  EXPECT_GT(irq - poll, 5.0);
  EXPECT_LT(irq - poll, 25.0);
}

TEST(Progress, DatatypeEngineAddsStartupCost) {
  auto measure = [](bool engine_on) {
    mpi::Options opts;
    opts.elan4.use_dtype_engine = engine_on;
    TestBed bed;
    double us = 0;
    bed.run_mpi(2, [&](mpi::World& w) {
      auto& c = w.comm();
      std::uint32_t v = 0;
      constexpr int kIters = 100;
      c.barrier();
      const sim::Time t0 = w.net().engine().now();
      for (int i = 0; i < kIters; ++i) {
        if (c.rank() == 0) {
          c.send(&v, 4, dtype::byte_type(), 1, 0);
          c.recv(&v, 4, dtype::byte_type(), 1, 0);
        } else {
          c.recv(&v, 4, dtype::byte_type(), 0, 0);
          c.send(&v, 4, dtype::byte_type(), 0, 0);
        }
      }
      if (c.rank() == 0)
        us = sim::to_us(w.net().engine().now() - t0) / (2.0 * kIters);
      c.barrier();
    }, opts);
    return us;
  };
  const double off = measure(false);
  const double on = measure(true);
  // Fig. 7: the copy-engine initialization costs ~0.4us one-way.
  EXPECT_NEAR(on - off, 0.4, 0.25);
}

TEST(Progress, ThreadedModeHandlesConcurrentTraffic) {
  mpi::Options opts;
  opts.elan4.progress = ptl_elan4::Progress::kOneThread;
  TestBed bed;
  bed.run_mpi(4, [&](mpi::World& w) {
    auto& c = w.comm();
    // Everyone sends to everyone; progress threads handle arrivals while
    // the main thread blocks in waits.
    std::vector<std::vector<std::uint8_t>> rx(4);
    std::vector<mpi::Request> reqs;
    for (int p = 0; p < 4; ++p) {
      if (p == c.rank()) continue;
      rx[static_cast<std::size_t>(p)].assign(30000, 0);
      reqs.push_back(c.irecv(rx[static_cast<std::size_t>(p)].data(), 30000,
                             dtype::byte_type(), p, 3));
    }
    std::vector<std::uint8_t> tx(30000, static_cast<std::uint8_t>(c.rank()));
    for (int p = 0; p < 4; ++p) {
      if (p == c.rank()) continue;
      reqs.push_back(c.isend(tx.data(), tx.size(), dtype::byte_type(), p, 3));
    }
    for (auto& r : reqs) r.wait();
    for (int p = 0; p < 4; ++p) {
      if (p == c.rank()) continue;
      EXPECT_EQ(rx[static_cast<std::size_t>(p)],
                std::vector<std::uint8_t>(30000, static_cast<std::uint8_t>(p)));
    }
    c.barrier();
  }, opts);
}

// A blocking probe parks between rounds. With a progress thread, the
// thread may consume the arriving frame and still be charging its match
// when the probe's round runs: the probe finds neither a queued fragment
// nor a frame to poll, and parks. Only the unexpected queue's growth
// signal wakes it then, since no further frame arrives until the probe
// returns. The probe's start sweeps across the message's arrival in steps
// shorter than the match charge, so one round lands in that window.
TEST(Progress, ProbeWakesWhenAProgressThreadQueuesTheMessage) {
  mpi::Options opts;
  opts.elan4.progress = ptl_elan4::Progress::kOneThread;
  TestBed bed;
  constexpr int kSteps = 500;
  const sim::Time step = bed.params.pml_match_ns / 4;
  int probed = 0;
  bed.run_mpi(2, [&](mpi::World& w) {
    auto& c = w.comm();
    std::vector<std::uint8_t> msg(64, 0x3C);
    std::uint8_t ack = 0;
    for (int i = 0; i < kSteps; ++i) {
      c.barrier();
      if (c.rank() == 0) {
        c.send(msg.data(), msg.size(), dtype::byte_type(), 1, 5);
        c.recv(&ack, 1, dtype::byte_type(), 1, 6);
        continue;
      }
      bed.engine.sleep(static_cast<sim::Time>(i) * step);
      mpi::RecvStatus st;
      c.probe(0, 5, &st);
      ++probed;
      ASSERT_EQ(st.bytes, msg.size());
      std::vector<std::uint8_t> got(st.bytes);
      c.recv(got.data(), got.size(), dtype::byte_type(), 0, 5);
      ASSERT_EQ(got, msg);
      c.send(&ack, 1, dtype::byte_type(), 0, 6);
    }
  }, opts);
  EXPECT_EQ(probed, kSteps);
  EXPECT_EQ(bed.engine.parked_waits(), 0u);
}

// Every in-flight NIC op owns its event until that event triggers: a long
// run of rendezvous messages keeps the live op events bounded by what is in
// flight, leaves none once quiesced, and never touches the NIC's event
// table, whose indices the hardware collectives compare across processes.
class OpEvents : public ::testing::TestWithParam<ProgressCase> {};

TEST_P(OpEvents, BoundedByInFlightOps) {
  mpi::Options opts;
  opts.elan4.progress = GetParam().progress;
  opts.elan4.completion = GetParam().completion;
  TestBed bed;
  bed.pin_transport = true;  // one rail: every op is this PTL's
  std::size_t peak = 0;  // live op events, sampled at every test()
  bed.run_mpi(2, [&](mpi::World& w) {
    ptl_elan4::PtlElan4& ptl = *w.elan4_ptl();
    const int before = ptl.device().alloc_event("before")->index();
    auto& c = w.comm();
    std::vector<std::uint8_t> buf(65536, 1);
    for (int i = 0; i < 200; ++i) {
      mpi::Request r =
          c.rank() == 0 ? c.isend(buf.data(), buf.size(), dtype::byte_type(), 1, i)
                        : c.irecv(buf.data(), buf.size(), dtype::byte_type(), 0, i);
      while (!r.test()) peak = std::max(peak, ptl.live_op_events());
    }
    EXPECT_EQ(ptl.device().alloc_event("after")->index(), before + 1)
        << "op events took slots in the NIC's event table";
    c.barrier();
    w.finalize();
    EXPECT_EQ(ptl.live_op_events(), 0u);
  }, opts);
  EXPECT_GT(peak, 0u) << "no op event was ever in flight";
  // A pipeline's depth of stripe RDMAs, whatever the message count.
  EXPECT_LE(peak, static_cast<std::size_t>(bed.params.pipeline_depth));
}

INSTANTIATE_TEST_SUITE_P(
    CompletionModes, OpEvents,
    ::testing::Values(ProgressCase{ptl_elan4::Progress::kPolling,
                                   ptl_elan4::Completion::kDirectPoll},
                      ProgressCase{ptl_elan4::Progress::kPolling,
                                   ptl_elan4::Completion::kSharedCombined},
                      ProgressCase{ptl_elan4::Progress::kPolling,
                                   ptl_elan4::Completion::kSharedSeparate},
                      ProgressCase{ptl_elan4::Progress::kInterrupt,
                                   ptl_elan4::Completion::kSharedCombined}));

}  // namespace
}  // namespace oqs
