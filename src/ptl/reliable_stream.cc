#include "ptl/reliable_stream.h"

#include <algorithm>
#include <cstring>

#include "base/checksum.h"
#include "base/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace oqs::ptl {

namespace {
// now + delay with saturation: a deadline near the top of the time range
// must pin at Time max, not wrap behind `now` (which would make the rtx
// timer fire immediately, forever).
sim::Time deadline_after(sim::Time now, sim::Time delay) {
  constexpr sim::Time kMax = ~sim::Time{0};
  return delay > kMax - now ? kMax : now + delay;
}
}  // namespace

void ReliableStream::stamp_ack(pml::MatchHeader& h) {
  // Cumulative ack rides on every frame to this peer, data or control.
  h.ack_seq = static_cast<std::uint16_t>(rx_expected_ - 1);
  last_acked_ = h.ack_seq;
  unacked_rx_ = 0;
}

void ReliableStream::submit(std::vector<std::uint8_t>&& frame, void* recycle) {
  const std::uint32_t crc = crc32c(frame.data(), frame.size() - 4);
  std::memcpy(frame.data() + frame.size() - 4, &crc, 4);
  hooks_.charge_crc(frame.size());
  if (sent_log_.size() >= tuning_.send_window || !tx_backlog_.empty()) {
    // Window closed: the frame (sequence already assigned) waits its turn.
    // It is posted in order by drain_backlog when acks open the window —
    // history is never dropped.
    tx_backlog_.push_back(QueuedFrame{std::move(frame), recycle});
    if (hooks_.window != nullptr) hooks_.window->notify();
    OQS_METRIC_INC("ptl.reliability.backlogged");
    return;
  }
  sent_log_.push_back(frame);
  if (hooks_.window != nullptr) hooks_.window->notify();
  if (sent_log_.size() == 1) {
    rtx_deadline_ = deadline_after(hooks_.now(), tuning_.retransmit_timeout_ns);
    hooks_.arm_rtx(rtx_deadline_);
  }
  hooks_.wire(frame, recycle);
}

void ReliableStream::harvest_ack(std::uint16_t ack_seq) {
  // Frames newly covered by this cumulative ack (int16 delta is wraparound-
  // safe for windows below 32768).
  auto n = static_cast<std::int16_t>(
      ack_seq - static_cast<std::uint16_t>(log_base_ - 1));
  if (n <= 0) return;  // stale or duplicate ack info
  bool progressed = false;
  while (n-- > 0 && !sent_log_.empty()) {
    sent_log_.pop_front();
    ++log_base_;
    progressed = true;
  }
  if (!progressed) return;
  if (hooks_.window != nullptr) hooks_.window->notify();
  OQS_METRIC_INC("ptl.reliability.acks_received");
  rtx_backoff_ = 0;
  note_peer_alive();
  rtx_deadline_ = deadline_after(hooks_.now(), tuning_.retransmit_timeout_ns);
  drain_backlog();
}

sim::Time ReliableStream::backoff_delay() const {
  // Clamp the exponent: sim::Time is 64-bit, so a shift at or past 63 (or
  // one that pushes the timeout over the top bit) must saturate, never wrap.
  int shift = rtx_backoff_;
  if (shift > tuning_.max_retransmit_backoff) shift = tuning_.max_retransmit_backoff;
  if (shift < 0) shift = 0;
  if (shift > 62) shift = 62;
  const sim::Time base =
      tuning_.retransmit_timeout_ns > 0 ? tuning_.retransmit_timeout_ns : 1;
  constexpr sim::Time kMax = ~sim::Time{0};
  if (base > (kMax >> shift)) return kMax;
  return base << shift;
}

void ReliableStream::note_unproductive_timeout() {
  ++unproductive_timeouts_;
  if (suspect_reported_) return;
  if (tuning_.suspect_timeouts <= 0) return;
  if (unproductive_timeouts_ < tuning_.suspect_timeouts) return;
  suspect_reported_ = true;  // one report per silence episode
  OQS_METRIC_INC("ptl.reliability.peer_suspected");
  log::warn(hooks_.name, "peer silent through ", unproductive_timeouts_,
            " consecutive rtx timeouts; reporting suspect");
  if (hooks_.peer_suspect) hooks_.peer_suspect();
}

void ReliableStream::note_peer_alive() {
  unproductive_timeouts_ = 0;
  suspect_reported_ = false;
}

void ReliableStream::drain_backlog() {
  while (!tx_backlog_.empty() && sent_log_.size() < tuning_.send_window) {
    QueuedFrame qf = std::move(tx_backlog_.front());
    tx_backlog_.pop_front();
    sent_log_.push_back(qf.frame);
    hooks_.wire(qf.frame, qf.recycle);
  }
  if (!sent_log_.empty()) hooks_.arm_rtx(rtx_deadline_);
}

bool ReliableStream::admit(const pml::MatchHeader& hdr,
                           const std::vector<std::uint8_t>& frame) {
  hooks_.charge_crc(frame.size());
  std::uint32_t stored = 0;
  std::memcpy(&stored, frame.data() + frame.size() - 4, 4);
  if (crc32c(frame.data(), frame.size() - 4) != stored) {
    ++counters_.frames_dropped;
    OQS_METRIC_INC("ptl.reliability.frames_dropped");
    log::debug(hooks_.name, "frame ", hdr.frame_seq, " from gid ", hdr.src_gid,
               " failed CRC; NACKing ", rx_expected_);
    maybe_nack();
    return false;
  }
  const auto delta = static_cast<std::int16_t>(hdr.frame_seq - rx_expected_);
  if (delta == 0) {
    ++rx_expected_;
    note_admitted();
    return true;
  }
  if (delta > 0) {
    // Gap: an earlier frame is missing. Ask for a resend (go-back-N).
    ++counters_.frames_dropped;
    OQS_METRIC_INC("ptl.reliability.frames_dropped");
    maybe_nack();
    return false;
  }
  // Duplicate (retransmission overshoot or a wire-duplicated packet): drop
  // it, and re-ack so a sender stuck on a lost ack converges. Rate-limited —
  // a whole retransmitted window must not trigger a re-ack per frame.
  ++counters_.dup_frames;
  OQS_METRIC_INC("ptl.reliability.dup_frames");
  const sim::Time now = hooks_.now();
  if (now - last_reack_time_ >= kNackHoldoffNs) {
    last_reack_time_ = now;
    hooks_.send_ack();
  }
  return false;
}

void ReliableStream::maybe_nack() {
  const std::uint16_t expected = rx_expected_;
  const sim::Time now = hooks_.now();
  // One NACK per loss event: a burst of out-of-order frames behind one hole
  // would otherwise trigger a quadratic retransmission storm.
  if (last_nack_seq_ == expected &&
      now - last_nack_time_ < kNackHoldoffNs)
    return;
  last_nack_seq_ = expected;
  last_nack_time_ = now;
  hooks_.send_nack();
}

void ReliableStream::note_admitted() {
  if (++unacked_rx_ >= kAckEvery)
    hooks_.send_ack();  // cadence ack now
  else
    hooks_.arm_ack();  // trailing frames get acked by the delay timer
}

void ReliableStream::retransmit_from(std::size_t offset,
                                     std::size_t max_frames) {
  // charge_crc/wire suspend the calling fiber (simulated CPU/post time), and
  // a concurrently delivered cumulative ack prunes the log front meanwhile —
  // so positions shift under the loop. Walk by frame sequence and re-resolve
  // against log_base_ after every suspension point; a frame acked mid-loop
  // is skipped, never read from a stale slot.
  std::uint16_t seq = static_cast<std::uint16_t>(log_base_ + offset);
  for (std::size_t sent = 0; sent < max_frames; ++seq) {
    auto idx = static_cast<std::int16_t>(seq - log_base_);
    if (idx < 0) continue;  // acked while we slept
    if (static_cast<std::size_t>(idx) >= sent_log_.size()) break;
    // Retransmissions are not free: the wire CRC is recomputed/verified by
    // the NIC path exactly like a first transmission.
    hooks_.charge_crc(sent_log_[static_cast<std::size_t>(idx)].size());
    idx = static_cast<std::int16_t>(seq - log_base_);  // shifted while charging?
    if (idx < 0) continue;
    if (static_cast<std::size_t>(idx) >= sent_log_.size()) break;
    ++counters_.retransmissions;
    OQS_METRIC_INC("ptl.reliability.retransmissions");
    OQS_TRACE_INSTANT(hooks_.node, "ptl", "reliability.retransmit", "seq", seq);
    hooks_.wire(sent_log_[static_cast<std::size_t>(idx)], nullptr);
    ++sent;
  }
}

void ReliableStream::on_nack(std::uint16_t from) {
  // A NACK is proof of life: the peer is running and asking for data, so
  // any suspect escalation in progress resets even though the ack number
  // has not moved.
  note_peer_alive();
  const auto offset = static_cast<std::int16_t>(from - log_base_);
  if (offset < 0) return;  // stale NACK: those frames were acked since
  if (static_cast<std::size_t>(offset) >= sent_log_.size()) {
    // The receiver asked past everything outstanding — every unacked frame
    // has already been resent or the NACK raced an ack. With ack-driven
    // pruning an unacked frame can never have left sent_log, so there is
    // nothing to recover here (the old size-based pruning made this a
    // permanent stall).
    return;
  }
  retransmit_from(static_cast<std::size_t>(offset), sent_log_.size());
  if (rtx_backoff_ < tuning_.max_retransmit_backoff) ++rtx_backoff_;
  rtx_deadline_ = deadline_after(hooks_.now(), backoff_delay());
  hooks_.arm_rtx(rtx_deadline_);
}

sim::Time ReliableStream::rtx_check(sim::Time now) {
  if (sent_log_.empty()) return 0;
  if (now >= rtx_deadline_) {
    // No ack progress for a full timeout: the window front (or the ack for
    // it) is lost. Go back and resend a prefix; the receiver's cumulative
    // ack recovers the rest.
    ++counters_.rtx_timeouts;
    OQS_METRIC_INC("ptl.reliability.rtx_timeouts");
    note_unproductive_timeout();
    retransmit_from(0, 64);
    if (rtx_backoff_ < tuning_.max_retransmit_backoff) ++rtx_backoff_;
    rtx_deadline_ = deadline_after(now, backoff_delay());
  }
  return rtx_deadline_;
}

}  // namespace oqs::ptl
