// Framing/reliability component of the Elan4 PTL (ack-clocked go-back-N).
//
// Kept apart from the PTL so the NIC-specific code shrinks to RDMA/QDMA
// logic, and so its hooks let a unit test drive the algorithm with fakes.
// The TCP PTL has no reliable framing: the Ethernet model is lossless.
// One ReliableStream instance guards the sequenced frame stream to ONE peer
// endpoint: it assigns frame sequences, appends/verifies the CRC32C
// trailer, keeps the sent-frame log for retransmission, enforces in-order
// admission with duplicate suppression, and does cumulative-ack
// bookkeeping (LA-MPI heritage, see DESIGN.md).
//
// The owning PTL stays in charge of everything transport-specific, wired in
// through Hooks: how a frame reaches the wire, what CRC work costs, how the
// shared scan timers are armed, and how NACK/ack control frames are built.
// All counters land in a ReliableCounters block shared across the owner's
// streams so existing per-PTL stat accessors keep working.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "pml/header.h"
#include "sim/idle.h"
#include "sim/time.h"

namespace oqs::ptl {

// Explicit-ack cadence: a cumulative ack goes out after this many admitted
// frames if no outgoing frame has piggybacked one sooner...
inline constexpr int kAckEvery = 8;
// ...or this long after the first unacked one (the owner's delayed-ack
// timer), whichever comes first.
inline constexpr sim::Time kAckDelayNs = 40000;
// Minimum gap between identical NACKs / duplicate re-acks, so a burst of
// out-of-order frames triggers one retransmission round, not a storm.
inline constexpr sim::Time kNackHoldoffNs = 30000;

// Protocol tuning, set by the owning PTL.
struct ReliableTuning {
  // Max unacknowledged sequenced frames per peer; excess frames queue in a
  // per-peer backlog (history is never dropped).
  std::uint32_t send_window = 256;
  // Retransmit the window front after this long without ack progress.
  std::uint64_t retransmit_timeout_ns = 150000;
  // Timeout doubles on consecutive expiries up to this many times.
  int max_retransmit_backoff = 4;
  // Consecutive unproductive retransmission timeouts before the stream
  // reports its peer suspect to the failure detector (0 = never).
  int suspect_timeouts = 6;
  // Initial frame_seq value (both sides of a pairing must agree).
  std::uint16_t seq_start = 0;
};

// Shared across all streams of one PTL instance.
struct ReliableCounters {
  std::uint64_t frames_dropped = 0;   // bad CRC or out-of-sequence
  std::uint64_t retransmissions = 0;  // frames resent (NACK or timeout)
  std::uint64_t dup_frames = 0;       // duplicates suppressed
  std::uint64_t rtx_timeouts = 0;     // retransmission-timer expiries
};

class ReliableStream {
 public:
  // Transport-specific plumbing supplied by the owning PTL. All callbacks
  // must outlive the stream (they typically capture the PTL and peer gid).
  struct Hooks {
    // Put one sealed frame on the wire; `recycle` is the owner's opaque
    // local-completion cookie for first transmissions (nullptr on resend).
    std::function<void(const std::vector<std::uint8_t>&, void*)> wire;
    // Charge host CRC compute time for `bytes`.
    std::function<void(std::size_t)> charge_crc;
    std::function<sim::Time()> now;
    // (Re)arm the owner's shared retransmission scan timer for `deadline`.
    std::function<void(sim::Time)> arm_rtx;
    // Arm the owner's shared delayed-ack timer.
    std::function<void()> arm_ack;
    // Emit a kNack control frame asking for this stream's rx_expected().
    std::function<void()> send_nack;
    // Emit an explicit cumulative-ack control frame to this peer.
    std::function<void()> send_ack;
    // The peer has not acknowledged anything for suspect_timeouts
    // consecutive retransmission timeouts: report it to the failure
    // detector. Fired once per silence episode (latched until the peer
    // shows life again via an ack or NACK). Optional.
    std::function<void()> peer_suspect;
    // Notified whenever window_in_use() changes, at the change. Optional.
    sim::Signal* window = nullptr;
    int node = 0;       // trace attribution
    std::string name;   // log attribution (owning PTL's name)
  };

  ReliableStream(const ReliableTuning& tuning, ReliableCounters& counters,
                 Hooks hooks)
      : tuning_(tuning), counters_(counters), hooks_(std::move(hooks)) {
    tx_seq_ = tuning_.seq_start;
    last_acked_ = tuning_.seq_start;
    rx_expected_ = static_cast<std::uint16_t>(tuning_.seq_start + 1);
    log_base_ = rx_expected_;
  }

  // ---- sender side ----
  // Piggyback the cumulative ack on an outgoing header (every frame to the
  // peer carries one, data or control).
  void stamp_ack(pml::MatchHeader& h);
  // Claim the next frame sequence (wire order must match claim order).
  std::uint16_t assign_seq() { return ++tx_seq_; }
  // Seal a built frame (CRC32C into its last 4 bytes, charging the CRC),
  // then post it — or backlog it if the send window is closed.
  void submit(std::vector<std::uint8_t>&& frame, void* recycle);
  // Cumulative-ack intake: prune the sent log through `ack_seq`, then post
  // backlogged frames into the opened window.
  void harvest_ack(std::uint16_t ack_seq);
  // Peer asked for a resend starting at `from` (go-back-N).
  void on_nack(std::uint16_t from);
  // Retransmission-timer scan step: resend the window front if the deadline
  // passed. Returns the next deadline to watch, or 0 when idle.
  sim::Time rtx_check(sim::Time now);
  // Unacked + backlogged sequenced frames (window occupancy).
  std::size_t window_in_use() const {
    return sent_log_.size() + tx_backlog_.size();
  }
  // Consecutive retransmission timeouts without ack progress (suspect
  // escalation bookkeeping; visible for tests and diagnostics).
  int unproductive_timeouts() const { return unproductive_timeouts_; }

  // ---- receiver side ----
  // Verify the trailer and enforce in-order admission; false = drop frame
  // (recovery control traffic already emitted through the hooks).
  bool admit(const pml::MatchHeader& hdr,
             const std::vector<std::uint8_t>& frame);
  // The peer frame sequence this stream will admit next (NACK cookie).
  std::uint16_t rx_expected() const { return rx_expected_; }
  // Admitted frames since the last ack left (delayed-ack bookkeeping).
  int unacked_rx() const { return unacked_rx_; }
  // True when the peer has admitted frames we have not acknowledged yet.
  bool ack_debt() const {
    return unacked_rx_ > 0 ||
           last_acked_ != static_cast<std::uint16_t>(rx_expected_ - 1);
  }

 private:
  // A built-but-unposted sequenced frame (window closed at build time).
  struct QueuedFrame {
    std::vector<std::uint8_t> frame;
    void* recycle = nullptr;
  };

  void drain_backlog();
  // Resend sent_log[offset..], up to `max_frames`, charging CRC like first
  // transmissions.
  void retransmit_from(std::size_t offset, std::size_t max_frames);
  void note_admitted();
  // Rate-limited NACK for rx_expected_ (one per loss event).
  void maybe_nack();
  // Backed-off retransmission delay. The shift is clamped so even hostile
  // tuning (huge max_retransmit_backoff or timeout) cannot overflow
  // sim::Time — the delay saturates instead of wrapping to a deadline in
  // the past, which would turn the rtx timer into a busy loop.
  sim::Time backoff_delay() const;
  // One more unproductive timeout elapsed; escalate to peer_suspect after
  // tuning_.suspect_timeouts in a row.
  void note_unproductive_timeout();
  // The peer showed life (ack progress or a NACK): reset escalation.
  void note_peer_alive();

  const ReliableTuning& tuning_;
  ReliableCounters& counters_;
  Hooks hooks_;

  // Sender side: sent_log_ holds every posted-but-unacknowledged frame,
  // contiguous sequences [log_base_, log_base_ + sent_log_.size()); frames
  // built while the window is full wait in tx_backlog_ with their sequences
  // already assigned, so wire order always matches sequence order. Pruning
  // happens only on acknowledgement — never by size.
  std::uint16_t tx_seq_ = 0;    // last frame sequence assigned
  std::uint16_t log_base_ = 1;  // sequence of sent_log_.front()
  std::deque<std::vector<std::uint8_t>> sent_log_;
  std::deque<QueuedFrame> tx_backlog_;
  int rtx_backoff_ = 0;         // backoff exponent (resets on ack progress)
  sim::Time rtx_deadline_ = 0;  // retransmit if no ack progress by then
  int unproductive_timeouts_ = 0;  // timeouts since the peer last showed life
  bool suspect_reported_ = false;  // peer_suspect fired for this episode

  // Receiver side: cumulative-ack bookkeeping.
  std::uint16_t rx_expected_ = 1;  // next frame sequence accepted
  std::uint16_t last_acked_ = 0;   // last rx sequence acknowledged back
  int unacked_rx_ = 0;             // admitted frames since the last ack

  // Rate limiting (one recovery round per loss event, not a storm).
  std::uint16_t last_nack_seq_ = 0;
  sim::Time last_nack_time_ = 0;
  sim::Time last_reack_time_ = 0;
};

}  // namespace oqs::ptl
