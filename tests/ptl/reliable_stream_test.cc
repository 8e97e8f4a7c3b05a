// ReliableStream retransmission backoff, in isolation: the exponential
// backoff must be capped so hostile tuning can never overflow sim::Time
// (a wrapped deadline lands in the past and turns the rtx timer into a
// busy loop), and sustained unproductive timeouts must escalate to the
// peer_suspect hook — the PTL-side half of the failure detector's
// corroboration channel — exactly once per silence episode. A cumulative
// ack that lands while a retransmission is suspended mid-walk must not make
// the walk resend a stale slot or skip an unacked frame.
#include "ptl/reliable_stream.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <vector>

#include "pml/header.h"

namespace oqs::ptl {
namespace {

struct StreamFixture {
  ReliableTuning tuning;
  ReliableCounters counters;
  sim::Time now = 0;
  int suspects = 0;
  std::vector<std::uint16_t> wired;  // frame sequence of every wire() call
  std::function<void()> on_charge;   // runs inside charge_crc when set
  ReliableStream stream;

  explicit StreamFixture(ReliableTuning t)
      : tuning(t), stream(tuning, counters, hooks()) {}

  ReliableStream::Hooks hooks() {
    ReliableStream::Hooks h;
    h.wire = [this](const std::vector<std::uint8_t>& frame, void*) {
      std::uint16_t seq = 0;
      std::memcpy(&seq, frame.data(), sizeof seq);
      wired.push_back(seq);
    };
    // charge_crc is where a real PTL's fiber suspends for simulated CPU
    // time, so it is where other events (an arriving ack) can run.
    h.charge_crc = [this](std::size_t) {
      if (on_charge) on_charge();
    };
    h.now = [this] { return now; };
    h.arm_rtx = [](sim::Time) {};
    h.arm_ack = [] {};
    h.send_nack = [] {};
    h.send_ack = [] {};
    h.peer_suspect = [this] { ++suspects; };
    h.name = "test";
    return h;
  }

  // Post one sequenced frame; its first two bytes carry its sequence so
  // the wire hook can tell frames apart.
  void post() {
    std::vector<std::uint8_t> frame(pml::kMatchHeaderBytes + 4, 0);
    const std::uint16_t seq = stream.assign_seq();
    std::memcpy(frame.data(), &seq, sizeof seq);
    stream.submit(std::move(frame), nullptr);
  }
};

TEST(ReliableStreamBackoff, HostileTuningSaturatesInsteadOfWrapping) {
  ReliableTuning t;
  t.retransmit_timeout_ns = ~sim::Time{0} / 4;  // near the top already
  t.max_retransmit_backoff = 1000;              // absurd exponent cap
  t.suspect_timeouts = 0;                       // isolate the backoff path
  StreamFixture f(t);
  f.post();

  // Drive timeouts forever: every returned deadline must stay in the
  // future (saturate at Time max), never wrap behind `now`.
  sim::Time deadline = t.retransmit_timeout_ns;
  for (int i = 0; i < 80; ++i) {
    f.now = deadline;
    const sim::Time next = f.stream.rtx_check(f.now);
    ASSERT_NE(next, 0u) << "unacked frame lost its rtx deadline";
    ASSERT_GE(next, f.now) << "backoff wrapped into the past at expiry " << i;
    if (next == f.now) {
      // Saturated: the deadline pinned at Time max.
      EXPECT_EQ(next, ~sim::Time{0});
      break;
    }
    deadline = next;
  }
  EXPECT_GT(f.counters.rtx_timeouts, 0u);
}

TEST(ReliableStreamBackoff, DelayDoublesThenPinsAtConfiguredCap) {
  ReliableTuning t;
  t.retransmit_timeout_ns = 1000;
  t.max_retransmit_backoff = 3;
  t.suspect_timeouts = 0;
  StreamFixture f(t);
  f.post();

  // Expiry n resends and re-arms with timeout << backoff; the exponent
  // stops growing at max_retransmit_backoff.
  std::vector<sim::Time> delays;
  sim::Time deadline = t.retransmit_timeout_ns;
  for (int i = 0; i < 6; ++i) {
    f.now = deadline;
    const sim::Time next = f.stream.rtx_check(f.now);
    delays.push_back(next - f.now);
    deadline = next;
  }
  EXPECT_EQ(delays[0], 2000u);  // first expiry bumps the exponent to 1
  EXPECT_EQ(delays[1], 4000u);
  EXPECT_EQ(delays[2], 8000u);  // exponent capped at 3 from here on
  EXPECT_EQ(delays[3], 8000u);
  EXPECT_EQ(delays[4], 8000u);
  EXPECT_EQ(delays[5], 8000u);
}

TEST(ReliableStreamBackoff, SilenceEscalatesToSuspectOncePerEpisode) {
  ReliableTuning t;
  t.retransmit_timeout_ns = 1000;
  t.max_retransmit_backoff = 0;  // constant cadence: one timeout per 1000ns
  t.suspect_timeouts = 4;
  StreamFixture f(t);
  f.post();

  sim::Time deadline = t.retransmit_timeout_ns;
  for (int i = 0; i < 10; ++i) {
    f.now = deadline;
    deadline = f.stream.rtx_check(f.now);
    // The hook fires at the configured threshold, then latches — ten
    // silent timeouts are one episode, not seven reports.
    EXPECT_EQ(f.suspects, i + 1 >= t.suspect_timeouts ? 1 : 0)
        << "after timeout " << i + 1;
  }
  EXPECT_EQ(f.stream.unproductive_timeouts(), 10);

  // Ack progress is proof of life: the escalation resets, and a fresh
  // silence episode reports again.
  f.stream.harvest_ack(1);
  EXPECT_EQ(f.stream.unproductive_timeouts(), 0);
  f.post();
  deadline = f.now + t.retransmit_timeout_ns;
  for (int i = 0; i < t.suspect_timeouts; ++i) {
    f.now = deadline;
    deadline = f.stream.rtx_check(f.now);
  }
  EXPECT_EQ(f.suspects, 2);
}

TEST(ReliableStreamRetransmit, AckLandingMidWalkResendsOnlyUnackedFrames) {
  // Frames 1..6 are outstanding when the retransmission timer fires. While
  // the walk is suspended charging CRC for frame 3, an ack for 1..3 lands.
  // Frames 1 and 2 were already resent; 3 is now acked and must not go out,
  // and the walk must go on with exactly 4, 5, 6 — reading slots by their
  // old index would skip 4 and 5, and a reference held across the charge
  // would resend a freed frame.
  ReliableTuning t;
  t.retransmit_timeout_ns = 1000;
  t.suspect_timeouts = 0;
  StreamFixture f(t);
  for (int i = 0; i < 6; ++i) f.post();
  ASSERT_EQ(f.wired, (std::vector<std::uint16_t>{1, 2, 3, 4, 5, 6}));
  f.wired.clear();

  int charges = 0;
  std::size_t wired_before_ack = 0;
  f.on_charge = [&] {
    if (++charges != 3) return;
    wired_before_ack = f.wired.size();
    f.stream.harvest_ack(3);  // re-entrant, as if delivered during the charge
  };
  f.now = t.retransmit_timeout_ns;
  f.stream.rtx_check(f.now);

  ASSERT_EQ(wired_before_ack, 2u);
  // After the ack: exactly the still-unacked window, in order, once each.
  EXPECT_EQ(f.wired, (std::vector<std::uint16_t>{1, 2, 4, 5, 6}));
  EXPECT_EQ(f.stream.window_in_use(), 3u);
  EXPECT_EQ(f.counters.retransmissions, 5u);
}

}  // namespace
}  // namespace oqs::ptl
