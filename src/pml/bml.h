// The BML: a multiplexer between the PML and the PTL modules.
//
// Open MPI later split rail management out of the point-to-point layer into
// a "BTL management layer"; this component plays that role here. The PML
// owns matching and request state; the BML owns the PTL set and everything
// multi-rail (paper §2.2 "scheduling messages across multiple networks"):
//
//  - rail selection: the lowest-estimated-latency rail carries eager
//    traffic and leads each rendezvous (latency + serialization at the
//    rail's bandwidth, so small messages chase latency and large ones
//    bandwidth),
//  - the rendezvous engine, the only one: every long message runs one
//    FragSchedule, in the shape its lead rail names (Ptl::rendezvous_shape).
//    The default, pipelined shape cuts it into an inline prefix riding the
//    RTS, eagerly pushed pipeline fragments behind it (payload streams
//    before the CTS), and chunked pull fragments dispatched
//    bandwidth-weighted across every stripe-capable rail with at most
//    pipeline_depth pulls in flight per rail — the fragment is the striping
//    unit. The paper's RDMA-read and RDMA-write schemes (§4.2) are its
//    one-fragment shapes on the lead rail: one exposed region per side, one
//    RDMA, and the FIN or FIN_ACK chained to it,
//  - failover: each issued pull of a pipelined schedule carries a
//    deadline; an overdue fragment marks its rail suspect and is re-issued
//    on a survivor (the sender exposes the whole pull region on every rail
//    precisely so any rail can serve any fragment), with per-fragment FINs
//    aggregated into a single sender completion.
//
// Per-sender arrival order is preserved because the RTS is an ordinary
// sequenced fragment through Pml::incoming_first; only the bulk payload
// fans out across rails. Pushed fragments ride the primary rail's
// sequenced stream behind the RTS, so they arrive after it (or are stashed
// until the match lands when the receiver has not posted yet).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "pml/frag_schedule.h"
#include "pml/ptl.h"
#include "pml/request.h"
#include "sim/idle.h"
#include "sim/time.h"

namespace oqs::pml {

class Pml;

class Bml final : public sim::PollPlan {
 public:
  explicit Bml(Pml& pml);
  ~Bml();
  Bml(const Bml&) = delete;
  Bml& operator=(const Bml&) = delete;

  // The fragment schedule's tuning, read from ModelParams and clamped.
  std::size_t pipeline_frag_bytes() const;
  int pipeline_depth() const;
  int pipeline_push_frags() const;

  void add_ptl(std::unique_ptr<Ptl> ptl);
  std::size_t num_ptls() const { return ptls_.size(); }
  Ptl& ptl(std::size_t i) { return *ptls_[i]; }
  bool any_threaded() const;
  // The single wired, blocking-capable rail — or nullptr when several rails
  // are live (a process cannot block inside one PTL while others carry
  // traffic, §3.2). This counts live endpoints, not constructed PTLs, so a
  // dormant secondary module does not forfeit interrupt-driven waits.
  Ptl* sole_blocking_ptl() const;

  // Route and transmit a send whose header the PML has filled in: eager,
  // or the fragment schedule in the lead rail's shape.
  void send(SendRequest& req);

  // Receiver side: the PML matched an RTS (kRendezvousStriped, or the
  // one-fragment shapes' kRendezvous) and unpacked any payload it owns;
  // rebuild the schedule from the RTS and start moving the rest.
  void matched_striped(RecvRequest& req, std::unique_ptr<FirstFrag> frag);
  void matched_single(RecvRequest& req, std::unique_ptr<FirstFrag> frag);
  // Sender side: fragment idx of send id settled with st — its FIN arrived
  // from any rail (the read shape's FIN_ACK included), or the write shape's
  // put completed. The last one completes the send.
  void handle_stripe_fin(std::uint64_t id, std::uint64_t idx, Status st);
  // Write shape, sender side: the receiver's CTS arrived on `rail`.
  void handle_cts(Ptl& rail, const MatchHeader& hdr, const CtsBody& body);
  // Write shape, receiver side: the sender's FIN (kFin) arrived.
  void handle_put_fin(const MatchHeader& hdr);
  // Receiver side: an eagerly pushed pipeline fragment (kPipeFrag) arrived.
  void handle_pipe_frag(const MatchHeader& hdr, const std::uint8_t* data,
                        std::size_t len);

  int progress();
  // --- sim::PollPlan: progress() as one round of every rail's poll points,
  // in rail order ---
  int sweep(std::size_t from, bool paid) override;
  int watch(sim::IdleWait& w) override;
  bool quiet() const override;
  sim::Time point_ns() const override;
  // Drain in-flight striped operations, then have every PTL leave (say
  // its goodbyes) before any finalizes (waits for the answers, closes).
  void finalize();
  // The failure detector declared gid dead: purge every rail's connection
  // to it and fail in-flight fragmented operations with kErrProcFailed.
  void peer_failed(int gid);
  // Crash in place (this process died): drop all state, halt every rail.
  void halt();
  // A revoke aborted req's communicator: drop the pending rendezvous send
  // while no FIN has arrived and no put has left it. Returns true if the
  // operation was dropped — the caller then fails the request. Transfers
  // already streaming data complete normally. A CTS racing the drop is
  // answered with an error FIN, so the matched receive cannot hang.
  bool abort_send(SendRequest& req);

  // Rendezvous operations still in flight (either direction).
  std::size_t striped_active() const { return ssends_.size() + rrecvs_.size(); }
  // Rails marked suspect by fragment failover (by PTL name).
  const std::set<std::string>& suspect_rails() const { return suspect_rails_; }

 private:
  struct StripedSend {
    SendRequest* req = nullptr;
    int gid = -1;
    std::size_t rest = 0;  // pulled bytes, credited at FIN aggregation
    // Exposed pull regions, one per stripe-capable rail, in schedule order
    // (one-fragment shapes: the lead rail's alone).
    std::vector<std::pair<Ptl*, std::uint64_t>> regions;
    std::uint64_t fin_mask = 0;
    std::uint64_t want_mask = 0;
    bool failed = false;
    bool putting = false;  // write shape: the put has left (not abortable)
    Ptl* held = nullptr;   // one-fragment shapes: the rail held active
  };

  // Receiver-side progress of one pull fragment.
  struct PendingPull {
    int slot = -1;  // index into StripedRecv::rails
    Ptl* rail = nullptr;
    std::uint64_t pull_id = 0;
    sim::Time deadline = 0;
    int attempts = 0;     // rails tried (failover cap)
    int crc_retries = 0;  // re-pulls after checksum mismatch
    bool done = false;
  };

  // One rail's receiver-local pull scheduler: fragments queue here and at
  // most pipeline_depth are in flight at once, so registration/translation
  // of the next fragment overlaps the transfer of the previous ones.
  struct RailSched {
    std::string name;            // sender-side rail name (wire order)
    std::uint64_t region = 0;    // sender's exposed pull region on that rail
    Ptl* ptl = nullptr;          // local module, nullptr if absent here
    std::deque<std::uint32_t> queue;  // fragments assigned, not yet issued
    int inflight = 0;
  };

  struct StripedRecv {
    RecvRequest* req = nullptr;
    int gid = -1;
    std::uint64_t sender_cookie = 0;  // keys the FINs we send back
    RdvShape::Kind shape = RdvShape::Kind::kPipelined;
    FragSchedule plan;
    std::vector<std::uint32_t> crcs;  // per pull fragment (checksummed rails)
    std::vector<RailSched> rails;
    std::vector<PendingPull> pending;
    char* base = nullptr;  // landing area (user buffer or staging)
    bool staged = false;
    bool checksummed = false;
    // Bytes credited (and, staged, unpacked at unpack_mbps) at completion:
    // the tail [total - rest, total). The whole message when pipelined; the
    // PML unpacked a one-fragment shape's prefix from the RTS.
    std::size_t rest = 0;
    double unpack_mbps = 0;
    std::uint64_t exposed = 0;  // write shape: our region the sender puts into
    Ptl* held = nullptr;        // one-fragment shapes: the rail held active
    std::size_t done_count = 0;
    std::uint64_t push_expected = 0;  // pushed bytes the schedule promises
    std::uint64_t push_got = 0;
  };

  Ptl* choose(int dst_gid, std::size_t total);
  // Completion-time estimate for routing: wire latency + serialization.
  double score(const Ptl& p, std::size_t total) const;
  // Rails reaching gid (used for both the striping decision and the region
  // exposure).
  std::vector<Ptl*> stripe_rails(int gid) const;
  // Plan and launch a pipelined rendezvous led by the chosen (primary) rail.
  void send_fragmented(SendRequest& req, Ptl* primary);
  // Plan and launch a one-fragment (read or write) rendezvous on `rail`.
  void send_single(SendRequest& req, Ptl* rail, const RdvShape& shape);
  void on_put_done(std::uint64_t id, Status st);
  // Remove an operation from its table, unexposing its regions and
  // releasing the rail it held.
  StripedSend take_send(std::map<std::uint64_t, StripedSend>::iterator it);
  StripedRecv take_recv(std::map<std::uint64_t, StripedRecv>::iterator it);
  void apply_push(std::uint64_t rid, std::uint64_t offset,
                  const std::uint8_t* data, std::size_t len);
  // Can rail rs carry op's fragments (present, reaching, not suspect)?
  bool usable(const StripedRecv& op, const RailSched& rs) const;
  // Issue queued fragments on every rail with spare pipeline depth.
  void pump(std::uint64_t rid);
  void issue_pull(std::uint64_t rid, std::uint32_t idx);
  void on_pull_done(std::uint64_t rid, std::uint32_t idx, Status st);
  void send_stripe_fin(StripedRecv& op, std::size_t idx, Status st);
  void maybe_finish_recv(std::uint64_t rid);
  void finish_recv(std::uint64_t rid);
  void fail_recv(std::uint64_t rid, Status st);
  Ptl* find_rail(const std::string& name) const;
  void arm_stripe_timer();
  void stripe_fire();

  Pml& pml_;
  std::vector<std::unique_ptr<Ptl>> ptls_;
  // Poll points per rail when the last parked wait registered: a resume
  // mid-round maps its point through the shape the round had then.
  std::vector<std::size_t> plan_shape_;

  std::uint64_t next_send_id_ = 1;  // send cookie (on the wire)
  std::uint64_t next_recv_id_ = 1;  // recv key (the write shape's CTS names it)
  std::map<std::uint64_t, StripedSend> ssends_;
  std::map<std::uint64_t, StripedRecv> rrecvs_;
  // Notified at every change to ssends_ or rrecvs_ (striped_active()).
  sim::Signal striped_changed_;
  std::set<std::string> suspect_rails_;
  // Routing for pushed fragments: (sender gid, sender cookie) -> recv id
  // once matched; frames arriving before the match wait in the stash.
  std::map<std::pair<int, std::uint64_t>, std::uint64_t> by_cookie_;
  std::map<std::pair<int, std::uint64_t>,
           std::vector<std::pair<std::uint64_t, std::vector<std::uint8_t>>>>
      pipe_stash_;

  bool stripe_timer_armed_ = false;
  // Timer-liveness token: cleared at finalize so in-flight callbacks die.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  bool finalized_ = false;
};

}  // namespace oqs::pml
