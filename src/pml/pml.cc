#include "pml/pml.h"

#include <algorithm>
#include <cassert>
#include <optional>

#include "base/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace oqs::pml {

Pml::~Pml() {
  if (!finalized_) finalize();
}

void Pml::start_send(SendRequest& req, int ctx_id, int src_rank, int dst_rank,
                     int tag, int dst_gid) {
  assert(!finalized_);
  OQS_TRACE_SPAN(span_, ctx_.gid, "pml", "start_send", "len",
                 req.total_bytes());
  req.set_wake_delay(request_wake_delay_);
  req.completions = &completions_;
  // Opportunistic progress on entry (standard MPI behaviour): connection
  // control traffic — a peer's goodbye before it migrated, for instance —
  // must be seen before the routing decision below.
  if (!bml_.any_threaded()) progress();
  ctx_.compute(ctx_.params->pml_sched_ns);

  req.hdr.ctx = ctx_id;
  req.hdr.src_rank = src_rank;
  req.hdr.dst_rank = dst_rank;
  req.hdr.tag = tag;
  req.hdr.len = req.total_bytes();
  req.hdr.src_gid = ctx_.gid;
  req.hdr.dst_gid = dst_gid;
  req.hdr.seq = ++send_seq_[dst_gid];
  req.dst_gid = dst_gid;
  if (abort_epoch) req.epoch_stamp = abort_epoch();
  if (revoke_count) req.revoke_stamp = revoke_count();

  // Routing (eager vs rendezvous vs striped rendezvous) is the BML's job.
  bml_.send(req);
}

bool Pml::matches(const RecvRequest& req, const MatchHeader& hdr) {
  if (req.ctx != hdr.ctx) return false;
  if (req.src_rank != kAnySource && req.src_rank != hdr.src_rank) return false;
  if (req.tag != kAnyTag && req.tag != hdr.tag) return false;
  return true;
}

void Pml::post_recv(RecvRequest& req) {
  assert(!finalized_);
  OQS_TRACE_SPAN(span_, ctx_.gid, "pml", "post_recv", "cap", req.capacity);
  OQS_METRIC_INC("pml.recv.posted");
  req.set_wake_delay(request_wake_delay_);
  req.completions = &completions_;
  if (abort_epoch) req.epoch_stamp = abort_epoch();
  if (revoke_count) req.revoke_stamp = revoke_count();
  ctx_.compute(ctx_.params->pml_match_ns);
  // Check the unexpected queue first, in arrival order.
  for (auto it = unexpected_.begin(); it != unexpected_.end(); ++it) {
    if (matches(req, (*it)->hdr)) {
      std::unique_ptr<FirstFrag> frag = std::move(*it);
      unexpected_.erase(it);
      OQS_METRIC_INC("pml.match.from_unexpected");
      OQS_TRACE_INSTANT(ctx_.gid, "pml", "match.unexpected", "len",
                        frag->hdr.len);
      bind(req, std::move(frag));
      return;
    }
  }
  posted_.push_back(req);
}

bool Pml::resolve_peer(int gid) {
  if (!peer_resolver || (peer_dead && peer_dead(gid))) return false;
  const ContactInfo info = peer_resolver(gid);
  bool reachable = false;
  for (std::size_t i = 0; i < bml_.num_ptls(); ++i) {
    Ptl& ptl = bml_.ptl(i);
    reachable |= ptl.reaches(gid) || ok(ptl.add_peer(gid, info));
  }
  return reachable;
}

void Pml::cancel(RecvRequest& req) {
  if (req.complete() || req.matched) return;
  if (static_cast<ListItem<RecvRequest>&>(req).linked()) posted_.erase(req);
  req.fail(Status::kShutdown);
}

bool Pml::iprobe(int ctx_id, int src_rank, int tag, MatchHeader* out) {
  ctx_.compute(ctx_.params->pml_match_ns);
  return find_unexpected(ctx_id, src_rank, tag, out);
}

bool Pml::find_unexpected(int ctx_id, int src_rank, int tag,
                          MatchHeader* out) const {
  for (const auto& frag : unexpected_) {
    const MatchHeader& h = frag->hdr;
    if (h.ctx != ctx_id) continue;
    if (src_rank != kAnySource && src_rank != h.src_rank) continue;
    if (tag != kAnyTag && tag != h.tag) continue;
    if (out != nullptr) *out = h;
    return true;
  }
  return false;
}

void Pml::incoming_first(std::unique_ptr<FirstFrag> frag) {
  if (probe_deliver_to_pml) probe_deliver_to_pml();
  // Enforce per-sender arrival order across PTLs: admit seq n only after
  // n-1. Fragments from the future are held.
  InOrder& io = recv_seq_[frag->hdr.src_gid];
  if (frag->hdr.seq != io.expected) {
    assert(frag->hdr.seq > io.expected && "duplicate sequence number");
    const std::uint64_t seq = frag->hdr.seq;
    io.held.emplace(seq, std::move(frag));
    return;
  }
  ++io.expected;
  admit(std::move(frag));
  // Drain any directly-following held fragments.
  for (;;) {
    auto it = io.held.find(io.expected);
    if (it == io.held.end()) break;
    std::unique_ptr<FirstFrag> next = std::move(it->second);
    io.held.erase(it);
    ++io.expected;
    admit(std::move(next));
  }
}

void Pml::admit(std::unique_ptr<FirstFrag> frag) {
  ctx_.compute(ctx_.params->pml_match_ns);
  for (RecvRequest& req : posted_) {
    if (matches(req, frag->hdr)) {
      posted_.erase(req);
      OQS_METRIC_INC("pml.match.from_posted");
      OQS_TRACE_INSTANT(ctx_.gid, "pml", "match.posted", "len", frag->hdr.len);
      bind(req, std::move(frag));
      return;
    }
  }
  OQS_METRIC_INC("pml.match.unexpected_queued");
  OQS_TRACE_INSTANT(ctx_.gid, "pml", "match.miss", "len", frag->hdr.len);
  unexpected_.push_back(std::move(frag));
  unexpected_grew_.notify();
}

void Pml::bind(RecvRequest& req, std::unique_ptr<FirstFrag> frag) {
  req.matched = true;
  req.matched_hdr = frag->hdr;
  req.set_total(std::min<std::size_t>(frag->hdr.len, req.capacity));

  // Truncation: an eager overrun completes with kTruncate after delivering
  // the bytes that fit; a rendezvous overrun cannot be honoured (its RDMA
  // targets the posted buffer) and is a program error.
  if (frag->hdr.len > req.capacity) {
    log::warn("pml", "truncation: incoming ", frag->hdr.len, "B > posted ",
              req.capacity, "B");
    assert(frag->hdr.len <= frag->inline_data.size() &&
           frag->hdr.kind != FragKind::kRendezvousStriped &&
           "rendezvous truncation is unsupported; post a large enough buffer");
    req.fail(Status::kTruncate);  // completes first; progress below still counts
  }

  // A striped RTS carries the schedule, not payload: the BML lands its
  // inline prefix. Any other first fragment's inline payload is unpacked
  // into the user buffer here, through the convertor.
  if (frag->hdr.kind != FragKind::kRendezvousStriped) {
    if (!frag->inline_data.empty()) {
      const std::size_t take =
          std::min<std::size_t>(frag->inline_data.size(), req.capacity);
      ctx_.compute(ctx_.params->host_memcpy_startup_ns +
                   ModelParams::xfer_ns(take, ctx_.params->host_memcpy_mbps));
      req.convertor.unpack(frag->inline_data.data(), take);
      recv_progress(req, take);
    } else if (frag->hdr.len == 0) {
      // Zero-byte message: complete on match.
      req.finish(Status::kOk);
    }
    if (req.complete()) return;
    if (frag->hdr.len <= frag->inline_data.size()) return;  // eager, in flight
  }

  // Long message: the BML runs its fragment schedule for the rest.
  ctx_.compute(ctx_.params->pml_sched_ns);
  if (frag->hdr.kind == FragKind::kRendezvous)
    return bml_.matched_single(req, std::move(frag));
  bml_.matched_striped(req, std::move(frag));
}

void Pml::send_progress(SendRequest& req, std::size_t bytes) {
  req.add_progress(bytes);
  if (req.complete()) {
    ctx_.compute(ctx_.params->pml_complete_ns);
    OQS_METRIC_INC("pml.send.completed");
    OQS_TRACE_INSTANT(ctx_.gid, "pml", "send.complete", "len",
                      req.total_bytes());
  }
}

void Pml::recv_progress(RecvRequest& req, std::size_t bytes) {
  req.add_progress(bytes);
  if (req.complete()) {
    ctx_.compute(ctx_.params->pml_complete_ns);
    OQS_METRIC_INC("pml.recv.completed");
    OQS_TRACE_INSTANT(ctx_.gid, "pml", "recv.complete", "len",
                      req.total_bytes());
  }
}

int Pml::progress() { return bml_.progress(); }

// A blocked wait whose epoch stamp has been passed aborts rather than spin
// forever: an unmatched receive will never match once its sender is dead
// (or the communicator revoked), so it is unlinked and failed. Matched
// receives and in-flight sends are left to complete — the peer_failed
// sweeps fail the ones that target a corpse.
bool Pml::epoch_aborted(Request& req) {
  if (!abort_epoch) return false;
  if (abort_epoch() <= req.epoch_stamp) return false;
  if (req.kind() == Request::Kind::kSend) {
    // Only an explicit revoke aborts sends, and only while the rendezvous
    // handshake has not progressed (abort_send refuses otherwise): an
    // unmatched send to a live-but-stopped survivor would hang forever,
    // while a transfer already streaming completes and carries the result.
    const bool revoked = revoke_count && revoke_count() > req.revoke_stamp;
    if (!revoked) return false;
    if (!bml_.abort_send(static_cast<SendRequest&>(req))) return false;
    OQS_METRIC_INC("pml.failure.sends_aborted");
    req.fail(Status::kRevoked);
    return true;
  }
  if (req.kind() != Request::Kind::kRecv) return false;
  auto& r = static_cast<RecvRequest&>(req);
  if (r.matched) return false;
  const bool revoked = revoke_count && revoke_count() > r.revoke_stamp;
  // Bare death declaration: only receives that can never complete abort —
  // a named sender in the dead-set, or a wildcard source (no longer
  // satisfiable deterministically once a potential matcher is gone).
  const bool sender_dead =
      r.src_gid < 0 || (peer_dead && peer_dead(r.src_gid));
  if (!revoked && !sender_dead) return false;
  if (static_cast<ListItem<RecvRequest>&>(r).linked()) posted_.erase(r);
  OQS_METRIC_INC("pml.failure.recvs_aborted");
  r.fail(revoked ? Status::kRevoked : Status::kErrProcFailed);
  return true;
}

namespace {
// The interrupt-mode round as data: the sole rail's poll points, and when
// they find nothing on an idle rail, a block inside the rail that counts as
// progress. So only a round on an active rail (a protocol exchange in
// flight) idles, and only such a round describes itself; the rail notifies
// changed() when it goes idle.
class BlockingRound final : public sim::PollPlan {
 public:
  explicit BlockingRound(Ptl& ptl) : ptl_(ptl), plan_(ptl.poll_plan()) {}
  int sweep(std::size_t from, bool paid) override {
    if (plan_.sweep(from, paid) > 0) return 1;
    if (ptl_.active()) return 0;  // protocol in flight: keep polling
    ptl_.progress_blocking();
    return 1;
  }
  int watch(sim::IdleWait& w) override {
    if (!ptl_.active() || !w.watch(&ptl_.changed())) return -1;
    return plan_.watch(w);
  }
  bool quiet() const override { return ptl_.active() && plan_.quiet(); }
  sim::Time point_ns() const override { return plan_.point_ns(); }

 private:
  Ptl& ptl_;
  sim::PollPlan& plan_;
};
}  // namespace

void Pml::wait(Request& req) {
  if (bml_.any_threaded()) {
    req.done_flag().wait();
    return;
  }
  // Interrupt-driven blocking only works when a single rail is active — a
  // process cannot block inside one PTL while others carry traffic (§3.2).
  // The BML counts *wired* rails (live endpoints), not constructed PTL
  // objects, so a dormant secondary module does not forfeit blocking waits.
  // Block only while the PTL is idle; once a protocol exchange is in flight
  // (rendezvous answered, RDMA outstanding), poll it to completion so a
  // multi-step protocol costs one interrupt, not one per step. A dead peer
  // raises no interrupt, but the World's failure subscriber calls
  // wake_waits() after every declaration/revoke, so the block returns and
  // the checks run. Otherwise the round polls every rail, and the PTLs
  // charge its cost. Either way an idle stretch parks on the rails' queues
  // and events, the request and the abort epoch.
  assert((!abort_epoch || abort_signal != nullptr) &&
         "abort_epoch needs an abort_signal");
  std::optional<BlockingRound> blocking;
  if (Ptl* sole = bml_.sole_blocking_ptl(); sole != nullptr)
    blocking.emplace(*sole);
  auto done = [&req] { return req.complete(); };
  auto abort = [this, &req] { return epoch_aborted(req); };
  ctx_.wait_until(sim::Cadence::kPoll,
                  sim::watched(&req.done_flag().signal(), done),
                  blocking ? static_cast<sim::PollPlan*>(&*blocking) : &bml_,
                  sim::watched(abort_signal, abort));
}

Pml::SequenceState Pml::export_sequences() const {
  SequenceState s;
  s.send_next = send_seq_;
  for (const auto& [gid, io] : recv_seq_) {
    assert(io.held.empty() && "exporting sequences with out-of-order frags held");
    s.recv_expected[gid] = io.expected;
  }
  return s;
}

void Pml::import_sequences(const SequenceState& s) {
  send_seq_ = s.send_next;
  for (const auto& [gid, expected] : s.recv_expected)
    recv_seq_[gid].expected = expected;
}

void Pml::finalize() {
  if (finalized_) return;
  finalized_ = true;
  // Unlink (and fail) any receives still posted so their storage can be
  // reclaimed safely after teardown.
  while (RecvRequest* req = posted_.pop_front()) req->fail(Status::kShutdown);
  bml_.finalize();
}

void Pml::peer_failed(int gid) {
  if (finalized_) return;
  // Drop unexpected fragments and out-of-order holds from the corpse:
  // nothing will ever consume them, and a held fragment would stall the
  // per-sender sequence window forever.
  std::size_t purged = 0;
  for (auto it = unexpected_.begin(); it != unexpected_.end();) {
    if ((*it)->hdr.src_gid == gid) {
      it = unexpected_.erase(it);
      ++purged;
    } else {
      ++it;
    }
  }
  auto sit = recv_seq_.find(gid);
  if (sit != recv_seq_.end()) {
    purged += sit->second.held.size();
    sit->second.held.clear();
  }
  if (purged > 0) OQS_METRIC_ADD("pml.failure.frags_purged", purged);
  // Eagerly fail unmatched receives the death makes unsatisfiable: those
  // naming the corpse as their sender, and wildcard-source receives (ULFM:
  // the match could have involved the dead process). Eager — rather than
  // leaving it to the lazy epoch check in wait() — because threaded-mode
  // callers block on the request's done flag, which only fail() signals.
  std::vector<RecvRequest*> doomed;
  for (RecvRequest& r : posted_)
    if (!r.matched && (r.src_gid == gid || r.src_gid < 0)) doomed.push_back(&r);
  for (RecvRequest* r : doomed) {
    posted_.erase(*r);
    OQS_METRIC_INC("pml.failure.recvs_aborted");
    r->fail(Status::kErrProcFailed);
  }
  log::warn("pml", "gid ", ctx_.gid, ": peer ", gid,
            " declared dead; purged ", purged, " fragment(s), aborted ",
            doomed.size(), " posted recv(s)");
  bml_.peer_failed(gid);
}

void Pml::wake_waits() {
  // Also while finalizing: each PTL ignores the nudge once it has closed.
  for (std::size_t i = 0; i < num_ptls(); ++i) ptl(i).wake();
}

void Pml::halt() {
  if (finalized_) return;
  finalized_ = true;
  while (RecvRequest* req = posted_.pop_front())
    req->fail(Status::kErrProcFailed);
  unexpected_.clear();
  for (auto& [gid, io] : recv_seq_) io.held.clear();
  bml_.halt();
}

}  // namespace oqs::pml
