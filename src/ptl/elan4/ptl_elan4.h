// PTL/Elan4 — the paper's contribution.
//
// Point-to-point transport over ONE Elan4 NIC rail:
//  * eager messages (<= 1984 B payload after the 64 B match header) ride
//    QDMA into the peer's host receive queue, from preallocated 2 KB send
//    buffers;
//  * long messages ride the BML's pipelined fragment schedule through the
//    stripe_* hooks (Scheme::kPipelined, the default), or this module's own
//    paper rendezvous: RDMA-read (receiver GETs, FIN_ACK chained to the
//    read) or RDMA-write (receiver ACKs its exposed E4 address, sender
//    PUTs, FIN chained to the write);
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
// peers this process exchanged frames with, and finalize says goodbye to
// those alone.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
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

// First-fragment state carried from the wire into the match (adds the
// sender's exposed address for the RDMA-read scheme).
struct ElanFirstFrag final : pml::FirstFrag {
  elan4::E4Addr src_addr = elan4::kNullE4Addr;
  std::uint64_t send_cookie = 0;
};

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
  bool own_rendezvous() const override {
    return opts_.scheme != Scheme::kPipelined;
  }
  void send_first(pml::SendRequest& req) override;
  void matched(pml::RecvRequest& req, std::unique_ptr<pml::FirstFrag> frag) override;
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
  bool active() const override {
    return !sends_.empty() || !recvs_.empty() || !pulls_.empty();
  }
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
  bool abort_send(pml::SendRequest* req) override;

  // --- BML striping hooks ---
  bool stripe_checksummed() const override { return opts_.reliability; }
  std::uint64_t stripe_expose(const void* base, std::size_t len) override;
  void stripe_unexpose(std::uint64_t region) override;
  std::uint64_t stripe_pull(int gid, std::uint64_t region, std::size_t offset,
                            void* dst, std::size_t len,
                            std::function<void(Status)> done) override;
  void stripe_cancel(std::uint64_t pull_id) override;
  void bml_post(int gid, const pml::MatchHeader& hdr, const void* body,
                std::size_t body_len) override;

  const Options& options() const { return opts_; }
  int rail() const { return rail_; }
  elan4::Elan4Device& device() { return *device_; }
  std::size_t pending_ops() const { return sends_.size() + recvs_.size(); }
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
  // Long-message sender state.
  struct PendingSend {
    pml::SendRequest* req = nullptr;
    std::size_t rest = 0;
    elan4::E4Addr src_addr = elan4::kNullE4Addr;
    std::vector<elan4::E4Event*> events;  // write scheme
    int gid = -1;
    int awaiting = 0;  // outstanding local RDMA completions
    bool fin_needed = false;  // write scheme without chaining
    std::uint64_t peer_recv_cookie = 0;
  };

  // Long-message receiver state.
  struct PendingRecv {
    pml::RecvRequest* req = nullptr;
    std::size_t rest = 0;
    char* dst_ptr = nullptr;
    bool staged = false;
    elan4::E4Addr dst_addr = elan4::kNullE4Addr;
    int gid = -1;
    int awaiting = 0;  // outstanding local RDMA completions
    std::uint64_t send_cookie = 0;
    bool finack_needed = false;  // read scheme without chaining
  };

  // BML stripe pull in flight (RDMA read into a mapped slice).
  struct StripePull {
    elan4::E4Addr dst_addr = elan4::kNullE4Addr;
    elan4::E4Event* event = nullptr;
    std::function<void(Status)> done;
    int gid = -1;  // peer being pulled from (dead-peer purge)
  };

  // Wire frame bodies (after the 64 B MatchHeader).
  struct RdvBody {
    elan4::E4Addr src_addr;
    // Unused; keeps the body at 16 B, which fixes the inline prefix (Fig. 7).
    std::uint64_t pad;
  };
  struct AckBody {
    std::uint64_t recv_cookie;
    elan4::E4Addr dst_addr;
  };

  void post_frame(Elan4Endpoint& peer, const pml::MatchHeader& hdr,
                  const void* body, std::size_t body_len, const void* payload,
                  std::size_t payload_len);
  // Build the per-endpoint go-back-N stream (reliability mode).
  std::unique_ptr<ptl::ReliableStream> make_stream(int gid);
  void send_nack(int gid);
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
  // Block the calling (application) fiber until gid's window has room.
  Elan4Endpoint* wait_for_window(int gid);
  // The application fiber sweeps the queues unless progress threads do.
  sim::Cadence wait_cadence() const {
    return threaded() ? sim::Cadence::kThreaded : sim::Cadence::kPoll;
  }
  sim::PollPlan* wait_plan() { return threaded() ? nullptr : this; }
  void handle_frame(elan4::QdmaQueue::Slot&& slot);
  void handle_ack(const pml::MatchHeader& hdr, const AckBody& body);
  void handle_fin(const pml::MatchHeader& hdr);
  void handle_fin_ack(const pml::MatchHeader& hdr);
  void handle_local_complete(std::uint64_t id);

  void complete_send(std::uint64_t id, PendingSend& op);
  void complete_recv(std::uint64_t id, PendingRecv& op);
  // Attach completion plumbing (chained QDMAs / poll registration) to an
  // RDMA local event for op `id`.
  void arm_completion(elan4::E4Event* ev, std::uint64_t id);
  // Drain q: one charged poll per probe, the first already paid if `paid`.
  int drain(elan4::QdmaQueue* q, bool paid);
  // Walk poll_list_ from index `first` (its charge already paid if `paid`).
  int poll_direct(std::size_t first, bool paid);
  // Drop op id's poll-list registrations.
  void unpoll(std::uint64_t id);
  void send_self(pml::FragKind kind);
  void start_threads();
  void charge_pack(std::size_t bytes);

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
  std::map<std::uint64_t, PendingSend> sends_;
  std::map<std::uint64_t, PendingRecv> recvs_;
  std::map<std::uint64_t, StripePull> pulls_;
  // Ops with events to poll in kDirectPoll mode: (op id, event).
  std::vector<std::pair<std::uint64_t, elan4::E4Event*>> poll_list_;
  // Notified on every change to poll_list_ (the shape of the idle round).
  sim::Signal poll_list_changed_;
  std::uint64_t next_id_ = 1;
  std::uint64_t tx_bytes_ = 0;
  // Local event attached to the next post_frame (send-buffer recycling).
  elan4::E4Event* recycle_event_ = nullptr;
  bool stopping_ = false;
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

  // Reserved completion cookie: send-buffer recycling, no pending op.
  static constexpr std::uint64_t kRecycleCookie = 0;
};

}  // namespace oqs::ptl_elan4
