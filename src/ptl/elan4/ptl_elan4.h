// PTL/Elan4 — the paper's contribution.
//
// Point-to-point transport over ONE Elan4 NIC rail:
//  * eager messages (<= 1984 B payload after the 64 B match header) ride
//    QDMA into the peer's host receive queue, from preallocated 2 KB send
//    buffers;
//  * long messages ride the BML's fragment schedule through the stripe_*
//    hooks, in the shape `Options::scheme` names: pipelined (the default),
//    or the paper's RDMA-read (receiver GETs, FIN_ACK chained to the read)
//    or RDMA-write (receiver sends a CTS with its exposed E4 address, sender
//    PUTs, FIN chained to the write). This module chains a stripe_pull /
//    stripe_put FIN to the RDMA's event, or posts it at local completion;
//  * local RDMA completion is detected by per-descriptor event polling, or
//    via the shared completion queue (a QDMA chained to every RDMA lands in
//    a queue one thread can block on — the Fig. 6 design);
//  * progress is polled, interrupt-driven, or carried by one or two
//    progress threads (Table 1).
//
// Multirail is layered ABOVE this module: the runtime instantiates one
// PtlElan4 per rail ("elan4", "elan4.1", ...) and the BML stripes long
// payloads across them through the stripe_* hooks. Loss protection lives in
// ptl::ReliableStream (one per endpoint); this file only wires the streams
// to QDMA and runs the shared scan timers.
//
// Dynamic joins: each module claims an Elan context at construction and
// releases it at finalize. Peers are wired on first contact (add_peer, with
// contact info from the RTE registry), so the endpoint map holds exactly the
// peers this process exchanged frames with. Finalize says goodbye to those
// alone and closes the context once each has said goodbye back
// (pml/endpoint.h).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "elan4/device.h"
#include "elan4/qsnet.h"
#include "pml/endpoint.h"
#include "pml/pml.h"
#include "pml/ptl.h"
#include "ptl/elan4/options.h"
#include "ptl/reliable_stream.h"

namespace oqs::ptl_elan4 {

// Per-peer connection state on this rail: network identity plus (in
// reliability mode) the go-back-N stream guarding the frame sequence.
struct Elan4Endpoint final : pml::Endpoint {
  elan4::Vpid vpid = elan4::kInvalidVpid;
  int recv_queue = -1;
  std::unique_ptr<ptl::ReliableStream> stream;

  // Unacked + backlogged sequenced frames toward this peer (0 without
  // reliability).
  std::size_t window_in_use() const {
    return stream != nullptr ? stream->window_in_use() : 0;
  }
};

class PtlElan4 final : public pml::Ptl, public sim::PollPlan {
 public:
  PtlElan4(pml::Pml& pml, elan4::QsNet& net, int node, Options opts,
           int rail = 0, std::string name = "elan4");
  ~PtlElan4() override;

  // --- pml::Ptl ---
  const std::string& name() const override { return name_; }
  std::size_t eager_limit() const override {
    // Reliability appends a 4-byte CRC32C trailer inside the 2KB slot.
    return opts_.reliability ? 1980 : 1984;
  }
  double bandwidth_weight() const override;
  double latency_ns() const override;
  std::vector<std::uint8_t> contact() const override;
  Status add_peer(int gid, const pml::ContactInfo& info) override;
  bool reaches(int gid) const override;
  pml::Endpoint* endpoint(int gid) override;
  bool wired() const override;
  pml::RdvShape rendezvous_shape() const override;
  void send_first(pml::SendRequest& req) override;
  int progress() override;
  // The idle round as data: poll points are the receive queue, the
  // completion queue (Two-Queue variant) and each direct-poll event, each
  // one charge_poll() then a probe.
  sim::PollPlan& poll_plan() override { return *this; }
  int sweep(std::size_t from, bool paid) override;
  int watch(sim::IdleWait& w) override;
  bool quiet() const override;
  sim::Time point_ns() const override;
  bool blocking_capable() const override {
    return opts_.progress == Progress::kInterrupt;
  }
  int progress_blocking() override;
  bool active() const override { return held_ > 0 || pending_ > 0; }
  void leave() override;
  void finalize() override;
  bool threaded() const override {
    return opts_.progress == Progress::kOneThread ||
           opts_.progress == Progress::kTwoThreads;
  }
  void set_suspect_reporter(std::function<void(int)> fn) override {
    on_peer_suspect_ = std::move(fn);
  }
  void peer_failed(int gid) override;
  void halt() override;
  void wake() override;

  // --- BML striping hooks ---
  bool stripe_checksummed() const override { return opts_.reliability; }
  std::uint64_t stripe_expose(const void* base, std::size_t len) override;
  void stripe_unexpose(std::uint64_t region) override;
  std::uint64_t stripe_pull(int gid, std::uint64_t region, std::size_t offset,
                            void* dst, std::size_t len,
                            std::function<void(Status)> done,
                            const pml::MatchHeader* fin) override;
  std::uint64_t stripe_put(int gid, std::uint64_t region, std::uint64_t remote,
                           std::size_t len, std::function<void(Status)> done,
                           const pml::MatchHeader* fin) override;
  void stripe_cancel(std::uint64_t pull_id) override;
  void bml_post(int gid, const pml::MatchHeader& hdr, const void* body,
                std::size_t body_len) override;

  const Options& options() const { return opts_; }
  int rail() const { return rail_; }
  elan4::Elan4Device& device() { return *device_; }
  // Ops awaited (active()'s count), and in-flight ops, each owning an event.
  std::size_t pending_ops() const { return pending_; }
  std::size_t live_op_events() const { return ops_.size(); }
  std::uint64_t frames_dropped() const { return counters_.frames_dropped; }
  std::uint64_t retransmissions() const { return counters_.retransmissions; }
  std::uint64_t dup_frames() const { return counters_.dup_frames; }
  std::uint64_t rtx_timeouts() const { return counters_.rtx_timeouts; }
  // Bytes this rail pushed onto the wire (bench per-rail breakdown).
  std::uint64_t tx_bytes() const { return tx_bytes_; }
  // Unacked + backlogged sequenced frames toward gid (bounded-memory tests).
  std::size_t outstanding_frames(int gid) const {
    auto it = peers_.find(gid);
    return it == peers_.end() ? 0 : it->second.window_in_use();
  }

 private:
  // An in-flight NIC op and the local event it owns: a BML stripe RDMA (a
  // pull into a mapped slice, or a put), an eager send whose completion the
  // shared completion queue reports, or a send buffer's recycling. It
  // leaves ops_ only once its event triggered, or with this module, so the
  // NIC never fires a freed event.
  struct NicOp {
    enum class State {
      kPending,    // runs `done` at completion; counts toward active()
      kRecycle,    // a send buffer returning to the pool; nothing waits
      kCancelled,  // stripe_cancel dropped `done`; leave() awaits the RDMA
      kPurged,     // failed by peer_failed or halt; not polled, not awaited
    };
    std::unique_ptr<elan4::E4Event> event;
    State state = State::kPending;
    bool reaped = false;  // a direct-poll sweep saw the event trigger
    std::function<void(Status)> done;  // runs with the event's status
    int gid = -1;  // the peer (dead-peer purge)
    elan4::E4Addr dst_addr = elan4::kNullE4Addr;  // pull landing mapping
    // Unchained FIN, posted by the host at local completion.
    std::optional<pml::MatchHeader> fin;
    // The direct-poll sweep probes it.
    bool polled() const { return state != State::kPurged && !reaped; }
  };

  void post_frame(Elan4Endpoint& peer, const pml::MatchHeader& hdr,
                  const void* body, std::size_t body_len, const void* payload,
                  std::size_t payload_len);
  // Build the per-endpoint go-back-N stream (reliability mode).
  std::unique_ptr<ptl::ReliableStream> make_stream(int gid);
  void send_nack(int gid);
  // Our goodbye to peer: the last frame it gets from us.
  void say_goodbye(Elan4Endpoint& peer);
  // One to every contacted peer not excused that has none yet.
  void say_goodbyes();
  // Teardown owes no goodbye to, and waits for none from, gid.
  bool excused(int gid);
  void handle_nack(const pml::MatchHeader& hdr);
  // Put one already-sequenced frame on the wire (lossy-classed QDMA).
  void post_wire(Elan4Endpoint& peer, const std::vector<std::uint8_t>& frame,
                 elan4::E4Event* recycle);
  // Receiver-side ack generation: explicit kFrameAck control frame.
  void send_frame_ack(int gid);
  void flush_acks();
  // One-shot scan timers (token-guarded; re-armed only while state exists).
  void arm_rtx_timer(sim::Time deadline);
  void arm_ack_timer();
  void rtx_fire();
  void ack_fire();
  // gid's endpoint while the peer is live, else nullptr.
  Elan4Endpoint* live_peer(int gid);
  // Block the calling (application) fiber until gid's window has room.
  Elan4Endpoint* wait_for_window(int gid);
  // The application fiber sweeps the queues unless progress threads do.
  sim::Cadence wait_cadence() const {
    return threaded() ? sim::Cadence::kThreaded : sim::Cadence::kPoll;
  }
  sim::PollPlan* wait_plan() { return threaded() ? nullptr : this; }
  void handle_frame(elan4::QdmaQueue::Slot&& slot);
  void handle_local_complete(std::uint64_t id);

  // Track an op toward `peer` in `state` until its new local event `*ev`
  // fires, with its FIN (chained to the event, or kept for the host), and
  // attach the completion plumbing (a chained completion QDMA, or direct
  // polling). Returns the op id; the caller posts the command that fires
  // `*ev`.
  std::uint64_t track(const Elan4Endpoint& peer, NicOp::State state,
                      elan4::E4Addr dst_addr, std::function<void(Status)> done,
                      const pml::MatchHeader* fin, elan4::E4Event** ev);
  // Move an op to `state` (kCancelled or kPurged): its mapping, FIN and
  // callback (returned) go; its event stays until it fires.
  std::function<void(Status)> retire(NicOp& op, NicOp::State state);
  // Fail every pending op `doomed` picks with kErrProcFailed.
  void purge(const std::function<bool(const NicOp&)>& doomed);
  // Drain q: one charged poll per probe, the first already paid if `paid`.
  int drain(elan4::QdmaQueue* q, bool paid);
  // Probe the polled ops from the `first`-th on, in id order (its charge
  // already paid if `paid`).
  int poll_direct(std::size_t first, bool paid);
  // Post a self-addressed goodbye that wakes a reader blocked on the
  // receive queue (and, threaded, the completion queue).
  void nudge(std::uint64_t cookie = 0);
  void start_threads();
  // A header-only QDMA to (vpid, queue), for chaining to an event.
  elan4::QdmaCmd header_qdma(elan4::Vpid vpid, int queue,
                             const pml::MatchHeader& hdr) const;

  pml::Pml& pml_;
  elan4::QsNet& net_;
  int node_;
  int rail_;
  Options opts_;
  std::string name_;
  ptl::ReliableTuning rtuning_;    // referenced by every endpoint's stream
  ptl::ReliableCounters counters_; // shared across this rail's streams
  std::unique_ptr<elan4::Elan4Device> device_;
  elan4::QdmaQueue* recv_q_ = nullptr;
  elan4::QdmaQueue* comp_q_ = nullptr;  // Two-Queue variant
  std::map<int, Elan4Endpoint> peers_;
  // In-flight NIC ops by id: ids grow, so this is also the poll order.
  std::map<std::uint64_t, NicOp> ops_;
  std::size_t pending_ = 0;  // ops_ entries in State::kPending
  // Notified whenever the set of polled ops changes (the shape of the idle
  // round in kDirectPoll mode).
  sim::Signal polled_changed_;
  std::uint64_t next_id_ = 1;
  std::uint64_t tx_bytes_ = 0;
  // Local event attached to the next post_frame (send-buffer recycling).
  elan4::E4Event* recycle_event_ = nullptr;
  bool left_ = false;      // leave() ran: quiesced, goodbyes said
  bool stopping_ = false;  // the progress threads were told to leave
  // Self-addressed nudges posted and not read back yet.
  int nudges_ = 0;
  bool finalized_ = false;
  bool halted_ = false;  // crashed in place: inbound frames go unread
  sim::Word<int> live_threads_;
  // Timer state: one scan timer each for retransmission and delayed acks.
  // Callbacks capture alive_ and no-op once it is cleared (finalize), so a
  // timer can never touch a dead module.
  bool rtx_timer_armed_ = false;
  bool ack_timer_armed_ = false;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  // Installed by the World: reports gid suspect to the failure detector.
  std::function<void(int)> on_peer_suspect_;
};

}  // namespace oqs::ptl_elan4
