// The Point-to-point Management Layer.
//
// Device-neutral message management (paper §2.1): request handling, tag
// matching with wildcards and per-sender ordering, fragment scheduling
// across the available PTL modules, reassembly progress, and request
// completion. One Pml instance per MPI process.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <vector>

#include "base/intrusive_list.h"
#include "pml/bml.h"
#include "pml/ptl.h"
#include "pml/request.h"
#include "sim/process.h"

namespace oqs::pml {

class Pml {
 public:
  explicit Pml(sim::ProcessCtx ctx) : ctx_(ctx), bml_(*this) {}
  ~Pml();
  Pml(const Pml&) = delete;
  Pml& operator=(const Pml&) = delete;

  const sim::ProcessCtx& ctx() const { return ctx_; }
  // Condvar handoff latency charged when a progress thread completes a
  // request the application thread is blocked on.
  void set_request_wake_delay(sim::Time ns) { request_wake_delay_ = ns; }

  // The rail multiplexer owning the PTL set (routing, striping, failover).
  Bml& bml() { return bml_; }
  void add_ptl(std::unique_ptr<Ptl> ptl) { bml_.add_ptl(std::move(ptl)); }
  std::size_t num_ptls() const { return bml_.num_ptls(); }
  Ptl& ptl(std::size_t i) { return bml_.ptl(i); }

  // --- application-facing path (called from the process fiber) ---
  // Begin a send; hdr addressing fields other than len/seq must be set.
  void start_send(SendRequest& req, int ctx_id, int src_rank, int dst_rank,
                  int tag, int dst_gid);
  void post_recv(RecvRequest& req);
  // Cancel a posted receive that has not matched (MPI_Cancel semantics);
  // the request completes with kShutdown. No-op once matched or complete.
  void cancel(RecvRequest& req);
  // Inspect the unexpected queue for a matching envelope without consuming
  // it (MPI_Iprobe). Returns true and fills *out on a hit.
  bool iprobe(int ctx_id, int src_rank, int tag, MatchHeader* out);
  // The same match, uncharged: a pure probe a wait can park on.
  bool find_unexpected(int ctx_id, int src_rank, int tag,
                       MatchHeader* out) const;
  // Notified when a fragment joins the unexpected queue, the one change
  // that can make find_unexpected() hit.
  sim::Signal& unexpected_grew() { return unexpected_grew_; }
  // Notified whenever a request this PML posted completes.
  sim::Signal& completions() { return completions_; }
  // One progress sweep over all PTLs; returns events handled.
  int progress();
  // Block until the request completes (poll- or thread-driven depending on
  // the attached PTLs).
  void wait(Request& req);

  // --- PTL upcalls ---
  // First fragment arrived; the PML takes ownership and matches it, holding
  // out-of-sequence arrivals until their turn (multi-PTL ordering).
  void incoming_first(std::unique_ptr<FirstFrag> frag);
  void send_progress(SendRequest& req, std::size_t bytes);
  void recv_progress(RecvRequest& req, std::size_t bytes);

  // Quiesce all PTLs (paper's finalize stage).
  void finalize();

  // --- checkpoint/restart support ---
  // Per-peer sequence state survives migration: the rebuilt PML must keep
  // counting where the old one stopped or peers' ordering checks desync.
  struct SequenceState {
    std::map<int, std::uint64_t> send_next;      // dst gid -> last seq sent
    std::map<int, std::uint64_t> recv_expected;  // src gid -> next expected
  };
  SequenceState export_sequences() const;
  void import_sequences(const SequenceState& s);

  // Wire a peer on first contact, or again after its connection went away
  // (it migrated or rejoined): fetch its contact info through
  // `peer_resolver` and add it to every PTL that has no live endpoint for
  // it. A live endpoint keeps its state (its reliability stream above all);
  // a peer in the dead-set is never wired. Returns true if any PTL now
  // reaches the peer.
  bool resolve_peer(int gid);
  // Installed by the runtime layer: a registry read.
  std::function<ContactInfo(int gid)> peer_resolver;

  // --- failure propagation (installed by the world/runtime layer) ---
  // Is gid in the published dead-set? Consulted before routing a send so
  // traffic to a declared-dead peer fails fast with kErrProcFailed instead
  // of timing out in a PTL.
  std::function<bool(int gid)> peer_dead;
  // Current abort epoch (detection epoch + revokes). Requests stamp it at
  // post time; a blocked wait aborts once the epoch moves past the stamp,
  // so survivors cannot hang on messages a dead peer will never send.
  std::function<std::uint64_t()> abort_epoch;
  // Communicator-revoke counter (the revokes component of abort_epoch). A
  // revoke after the stamp aborts ANY unmatched receive with kRevoked; a
  // bare death declaration only aborts receives whose named sender is in
  // the dead-set (kErrProcFailed) — survivor-survivor traffic proceeds.
  std::function<std::uint64_t()> revoke_count;
  // Notified whenever abort_epoch(), revoke_count() or peer_dead() may have
  // changed; required with them, so blocked waits can park on it.
  sim::Signal* abort_signal = nullptr;

  // The failure detector declared gid dead: purge unexpected fragments and
  // held out-of-order state from it, then sweep the rails (in-flight ops
  // toward gid complete with kErrProcFailed).
  void peer_failed(int gid);
  // Crash in place: fail every posted request and halt the rails without
  // the goodbye/quiesce protocol finalize() runs.
  void halt();
  // Nudge every PTL so fibers blocked in progress_blocking() return and
  // re-check their requests (failed by peer_failed, or stamped before a
  // now-moved abort epoch), and so a teardown blocked on goodbyes re-reads
  // the dead-set. A dead peer raises no interrupt, so the World's
  // failure/revoke subscriber must provide the wakeup.
  void wake_waits();
  // A leaving PTL owes no goodbye to, and waits for none from, itself or a
  // peer in the published dead-set.
  bool excused(int gid) const {
    return gid == ctx_.gid || (peer_dead && peer_dead(gid));
  }

  // --- instrumentation (Fig. 9 layer-cost analysis) ---
  // Invoked when a first fragment is handed up for matching, and when a
  // send request is handed down to a PTL.
  std::function<void()> probe_deliver_to_pml;
  std::function<void()> probe_send_to_ptl;

  std::size_t unexpected_count() const { return unexpected_.size(); }
  std::size_t posted_count() const { return posted_.size(); }

 private:
  // Abort a blocked wait whose epoch stamp the world's abort epoch has
  // passed (unmatched receives only). Returns true when req was failed.
  bool epoch_aborted(Request& req);
  // Deliver an in-sequence fragment into matching.
  void admit(std::unique_ptr<FirstFrag> frag);
  // Bind a matched pair: inline unpack, completion or scheme kick-off.
  void bind(RecvRequest& req, std::unique_ptr<FirstFrag> frag);
  static bool matches(const RecvRequest& req, const MatchHeader& hdr);

  sim::ProcessCtx ctx_;
  Bml bml_;
  sim::Time request_wake_delay_ = 0;

  // Sender-side per-destination sequence numbers.
  std::map<int, std::uint64_t> send_seq_;
  // Receiver-side per-source expected sequence + held out-of-order frags.
  struct InOrder {
    std::uint64_t expected = 1;
    std::map<std::uint64_t, std::unique_ptr<FirstFrag>> held;
  };
  std::map<int, InOrder> recv_seq_;

  // The posted-receive queue is intrusive (Open MPI's opal_list style): no
  // allocation on the critical path, O(1) unlink at match time.
  IntrusiveList<RecvRequest, RecvRequest> posted_;
  std::list<std::unique_ptr<FirstFrag>> unexpected_;
  sim::Signal unexpected_grew_;
  sim::Signal completions_;
  bool finalized_ = false;
};

}  // namespace oqs::pml
