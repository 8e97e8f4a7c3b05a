#include "pml/bml.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "base/checksum.h"
#include "base/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pml/pml.h"
#include "rte/oob.h"  // put_pod/get_pod helpers
#include "sim/engine.h"

namespace oqs::pml {

namespace {
// CRC re-pulls after a fragment checksum mismatch are bounded separately
// from the failover attempt cap: a corrupting rail gets several chances
// before the whole receive fails.
constexpr int kStripeMaxCrcRetries = 8;

// Serialized schedule overhead in the RTS body (everything but the rail
// table and the inline payload): checksummed flag, inline_len, push_len,
// push_unit, frag_size, nfrags.
constexpr std::size_t kScheduleFixedBytes = 1 + 8 + 8 + 4 + 8 + 4;

double rail_weight(const Ptl& p) { return std::max(p.bandwidth_weight(), 1.0); }
}  // namespace

Bml::Bml(Pml& pml) : pml_(pml) {}

Bml::~Bml() { *alive_ = false; }

void Bml::add_ptl(std::unique_ptr<Ptl> ptl) { ptls_.push_back(std::move(ptl)); }

bool Bml::any_threaded() const {
  for (const auto& p : ptls_)
    if (p->threaded()) return true;
  return false;
}

Ptl* Bml::sole_blocking_ptl() const {
  Ptl* sole = nullptr;
  for (const auto& p : ptls_) {
    if (!p->wired()) continue;
    if (sole != nullptr) return nullptr;  // two live rails: cannot block
    sole = p.get();
  }
  return sole != nullptr && sole->blocking_capable() ? sole : nullptr;
}

Ptl* Bml::find_rail(const std::string& name) const {
  for (const auto& p : ptls_)
    if (p->name() == name) return p.get();
  return nullptr;
}

std::size_t Bml::pipeline_frag_bytes() const {
  const std::size_t v = pml_.ctx().params->pipeline_frag_bytes;
  return v > 0 ? v : 16384;
}

int Bml::pipeline_depth() const {
  const int v = pml_.ctx().params->pipeline_depth;
  return v > 0 ? v : 1;
}

int Bml::pipeline_push_frags() const {
  const int v = pml_.ctx().params->pipeline_push_frags;
  return v > 0 ? v : 0;
}

// ------------------------------------------------------ rail selection ----

double Bml::score(const Ptl& p, std::size_t total) const {
  // Estimated completion time: first-fragment latency plus serialization at
  // the rail's bandwidth. Small messages chase latency, large ones
  // bandwidth; a rail with unknown bandwidth only wins by default.
  const double bw = p.bandwidth_weight();
  const double serialize =
      bw > 0.0 ? static_cast<double>(total) * 1000.0 / bw : 1e18;
  return p.latency_ns() + serialize;
}

Ptl* Bml::choose(int dst_gid, std::size_t total) {
  Ptl* best = nullptr;
  double best_score = 0.0;
  for (const auto& p : ptls_) {
    if (!p->reaches(dst_gid)) continue;
    const double s = score(*p, total);
    if (best == nullptr || s < best_score) {
      best = p.get();
      best_score = s;
    }
  }
  return best;
}

std::vector<Ptl*> Bml::stripe_rails(int gid) const {
  std::vector<Ptl*> rails;
  for (const auto& p : ptls_)
    if (p->reaches(gid)) rails.push_back(p.get());
  return rails;
}

// ----------------------------------------------------------- send path ----

void Bml::send(SendRequest& req) {
  const int dst_gid = req.dst_gid;
  // Fast-fail against the published dead-set: a send to a declared-dead
  // peer must not burn a retransmission timeout (or worse, trigger the
  // resolve_peer fallback and re-add a corpse's stale contact info).
  if (pml_.peer_dead && pml_.peer_dead(dst_gid)) {
    OQS_METRIC_INC("bml.failure.sends_gated");
    req.fail(Status::kErrProcFailed);
    return;
  }
  Ptl* ptl = choose(dst_gid, req.total_bytes());
  if (ptl == nullptr && pml_.resolve_peer(dst_gid))
    ptl = choose(dst_gid, req.total_bytes());
  if (ptl == nullptr) {
    log::error("bml", "no PTL reaches gid ", dst_gid);
    req.fail(Status::kUnreachable);
    return;
  }
  OQS_METRIC_INC("pml.send.total");
  if (req.total_bytes() <= ptl->eager_limit()) {
    OQS_METRIC_INC("pml.send.eager");
    OQS_TRACE_INSTANT(pml_.ctx().gid, "pml", "send.eager", "len",
                      req.total_bytes(), "dst",
                      static_cast<std::uint64_t>(dst_gid));
    if (pml_.probe_send_to_ptl) pml_.probe_send_to_ptl();
    ptl->send_first(req);
    return;
  }
  OQS_METRIC_INC("pml.send.rendezvous");
  OQS_TRACE_INSTANT(pml_.ctx().gid, "pml", "send.rendezvous", "len",
                    req.total_bytes(), "dst",
                    static_cast<std::uint64_t>(dst_gid));
  const RdvShape shape = ptl->rendezvous_shape();
  if (shape.kind == RdvShape::Kind::kPipelined)
    send_fragmented(req, ptl);
  else
    send_single(req, ptl, shape);
}

void Bml::send_fragmented(SendRequest& req, Ptl* primary) {
  const sim::ProcessCtx& ctx = pml_.ctx();
  const std::size_t total = req.total_bytes();
  // The chosen (best-score) rail leads: it carries the RTS, the inline
  // prefix and the pushed fragments, and its region is first in the table
  // so FINs prefer it. It reaches the peer, so it is in the set.
  std::vector<Ptl*> rails = stripe_rails(req.dst_gid);
  const auto lead = std::find(rails.begin(), rails.end(), primary);
  assert(lead != rails.end() && "rendezvous over a rail that misses the peer");
  std::rotate(rails.begin(), lead, lead + 1);

  // End-to-end fragment checksums when the rails verify payloads (the
  // receiver re-pulls a mismatching fragment).
  const bool checksummed = primary->stripe_checksummed();

  // Plan the one authoritative schedule. The RTS frame budget bounds the
  // inline prefix: the primary's eager limit minus the serialized rail
  // table, the schedule fields, and a worst-case CRC table.
  std::size_t overhead = 4 + kScheduleFixedBytes;
  for (Ptl* r : rails) overhead += 1 + r->name().size() + 8;
  if (checksummed) overhead += 4 * kMaxPullFrags;
  const std::size_t slot = primary->eager_limit();
  const std::uint64_t inline_cap = slot > overhead ? slot - overhead : 0;
  const FragSchedule plan = plan_frags(
      total, inline_cap, static_cast<std::uint32_t>(pipeline_push_frags()),
      static_cast<std::uint32_t>(primary->pipeline_push_unit()),
      pipeline_frag_bytes());
  assert(plan.pull_base + plan.pull_len == total);

  // Stage non-contiguous payloads once; every rail exposes the same bytes.
  const void* src = req.buf;
  if (!req.type->is_contiguous()) {
    req.staging.resize(total);
    ctx.compute(ctx.params->host_memcpy_startup_ns +
                ModelParams::xfer_ns(total, ctx.params->host_memcpy_mbps));
    req.convertor.pack(req.staging.data(), total);
    src = req.staging.data();
  }
  const char* s = static_cast<const char*>(src);

  StripedSend op;
  op.req = &req;
  op.gid = req.dst_gid;
  op.rest = plan.pull_len;
  // Expose the WHOLE pull region on EVERY rail (regions are rail-local —
  // each NIC has its own MMU), so the receiver can pull any fragment over
  // any surviving rail if one dies mid-transfer. The inline/push prefix is
  // outside the region by construction: pulls cannot re-deliver it.
  if (plan.pull_len > 0) {
    for (Ptl* r : rails) {
      const std::uint64_t region = r->stripe_expose(
          s + plan.pull_base, static_cast<std::size_t>(plan.pull_len));
      assert(region != 0 && "stripe_expose cannot fail on a real PTL");
      op.regions.emplace_back(r, region);
    }
  }

  std::vector<std::uint32_t> crcs;
  if (checksummed && plan.nfrags > 0) {
    ctx.compute(ModelParams::xfer_ns(plan.pull_len, ctx.params->crc_mbps));
    crcs.resize(plan.nfrags);
    for (std::uint32_t i = 0; i < plan.nfrags; ++i)
      crcs[i] =
          crc32c(reinterpret_cast<const std::uint8_t*>(s) + plan.frag_offset(i),
                 static_cast<std::size_t>(plan.frag_bytes(i)));
  }

  const std::uint64_t id = next_send_id_++;
  op.want_mask =
      plan.nfrags >= 64 ? ~0ull : (1ull << plan.nfrags) - 1;

  // Serialize the schedule: the rail table (name, region handle), then the
  // boundary fields the receiver feeds back through derive_frags() — both
  // sides compute fragment offsets from the same numbers — then the CRC
  // table and the inline prefix bytes.
  std::vector<std::uint8_t> blob;
  rte::put_pod(blob, static_cast<std::uint32_t>(op.regions.size()));
  for (const auto& [r, region] : op.regions) {
    const std::string& nm = r->name();
    rte::put_pod(blob, static_cast<std::uint8_t>(nm.size()));
    blob.insert(blob.end(), nm.begin(), nm.end());
    rte::put_pod(blob, region);
  }
  rte::put_pod(blob, static_cast<std::uint8_t>(checksummed ? 1 : 0));
  rte::put_pod(blob, plan.inline_len);
  rte::put_pod(blob, plan.push_len);
  rte::put_pod(blob, plan.push_unit);
  rte::put_pod(blob, plan.frag_size);
  rte::put_pod(blob, plan.nfrags);
  for (std::uint32_t c : crcs) rte::put_pod(blob, c);
  if (plan.inline_len > 0)
    blob.insert(blob.end(), s, s + plan.inline_len);

  req.hdr.kind = FragKind::kRendezvousStriped;
  req.hdr.cookie = id;
  if (plan.nfrags > 0) {
    ssends_.emplace(id, std::move(op));
    striped_changed_.notify();
  }

  OQS_METRIC_INC("bml.send.pipelined");
  OQS_TRACE_INSTANT(ctx.gid, "bml", "send.fragmented", "len", total, "frags",
                    static_cast<std::uint64_t>(plan.nfrags));
  if (pml_.probe_send_to_ptl) pml_.probe_send_to_ptl();

  // Copying the prefix into wire frames is real host work the eager path
  // charges per-fragment; charge it once here for the inline+push bytes.
  if (plan.pull_base > 0)
    ctx.compute(ctx.params->host_memcpy_startup_ns +
                ModelParams::xfer_ns(plan.pull_base,
                                     ctx.params->host_memcpy_mbps));

  // The fragmented first fragment is an ordinary sequenced fragment on the
  // primary rail: it flows through Pml::incoming_first on the receiver, so
  // per-sender arrival order is preserved across the striped path.
  primary->bml_post(req.dst_gid, req.hdr, blob.data(), blob.size());

  // Eagerly push the first pipeline fragments behind the RTS: payload is
  // already streaming while the receiver matches, which is what closes the
  // mid-range gap against Tport's NIC-side pipelining (Fig. 10c/d). The
  // frames ride the same sequenced stream as the RTS, so they arrive after
  // it and are retransmitted by go-back-N like any data frame.
  for (std::uint32_t i = 0; i < plan.push_frames(); ++i) {
    MatchHeader ph = req.hdr;
    ph.kind = FragKind::kPipeFrag;
    ph.aux = plan.push_offset(i);
    ph.len = plan.push_bytes(i);
    OQS_METRIC_INC("bml.pipeline.push_tx");
    primary->bml_post(req.dst_gid, ph, s + plan.push_offset(i),
                      static_cast<std::size_t>(plan.push_bytes(i)));
  }

  // Buffered-send semantics for the prefix: those bytes are on (or queued
  // for) the wire; the pulled remainder completes at FIN aggregation.
  if (plan.pull_len == 0)
    pml_.send_progress(req, total);
  else if (plan.pull_base > 0)
    pml_.send_progress(req, static_cast<std::size_t>(plan.pull_base));
}

void Bml::send_single(SendRequest& req, Ptl* rail, const RdvShape& shape) {
  const sim::ProcessCtx& ctx = pml_.ctx();
  const ModelParams& p = *ctx.params;
  if (pml_.probe_send_to_ptl) pml_.probe_send_to_ptl();
  // One pull fragment behind the inline prefix, nothing pushed.
  const FragSchedule plan =
      derive_frags(req.total_bytes(), shape.inline_cap, 0, 0, 0);
  const double mbps = shape.dtype_engine ? p.dtype_pack_mbps : p.host_memcpy_mbps;
  auto pack = [&](void* dst, std::uint64_t bytes) {
    ctx.compute(p.host_memcpy_startup_ns + ModelParams::xfer_ns(bytes, mbps));
    req.convertor.pack(dst, bytes);
  };
  if (shape.dtype_engine) ctx.compute(p.dtype_engine_startup_ns);
  std::vector<std::uint8_t> body(sizeof(RdvBody) + plan.inline_len);
  if (plan.inline_len > 0) pack(body.data() + sizeof(RdvBody), plan.inline_len);
  // An RDMA region is one address range (§4.2): stage non-contiguous data.
  const void* src = static_cast<const char*>(req.buf) + plan.pull_base;
  if (!req.type->is_contiguous()) {
    req.staging.resize(plan.pull_len);
    pack(req.staging.data(), plan.pull_len);
    src = req.staging.data();
  }
  const std::uint64_t region = rail->stripe_expose(src, plan.pull_len);
  assert(region != 0 && "stripe_expose cannot fail on a real PTL");
  const RdvBody rdv{shape.kind == RdvShape::Kind::kRead ? region : 0, 0};
  std::memcpy(body.data(), &rdv, sizeof(rdv));

  const std::uint64_t id = next_send_id_++;
  StripedSend& op = ssends_[id];
  op.req = &req;
  op.gid = req.dst_gid;
  op.rest = plan.pull_len;
  op.regions.emplace_back(rail, region);
  op.want_mask = 1;
  op.held = rail;
  striped_changed_.notify();
  rail->hold(1);
  req.hdr.kind = FragKind::kRendezvous;
  req.hdr.cookie = id;
  OQS_METRIC_INC("ptl.rdv.started");
  rail->bml_post(req.dst_gid, req.hdr, body.data(), body.size());
  if (plan.inline_len > 0) pml_.send_progress(req, plan.inline_len);
}

void Bml::handle_stripe_fin(std::uint64_t id, std::uint64_t idx, Status st) {
  auto it = ssends_.find(id);
  if (it == ssends_.end()) {
    log::warn("bml", "FIN for unknown send ", id);
    return;
  }
  StripedSend& op = it->second;
  const std::uint64_t bit = 1ull << (idx & 63);
  if ((op.fin_mask & bit) != 0) return;  // duplicate FIN (retransmission)
  op.fin_mask |= bit;
  if (!ok(st)) op.failed = true;
  if ((op.fin_mask & op.want_mask) != op.want_mask) return;

  // All fragments accounted for: one aggregated completion.
  StripedSend done = take_send(it);
  OQS_METRIC_INC("bml.stripe.send_done");
  OQS_TRACE_INSTANT(pml_.ctx().gid, "bml", "stripe.send_done", "len",
                    done.rest);
  if (done.failed)
    done.req->fail(Status::kError);
  else
    pml_.send_progress(*done.req, done.rest);
}

void Bml::handle_cts(Ptl& rail, const MatchHeader& hdr, const CtsBody& body) {
  MatchHeader fin;
  fin.kind = FragKind::kFin;
  fin.cookie = body.recv_cookie;
  fin.src_gid = pml_.ctx().gid;
  fin.dst_gid = hdr.src_gid;
  auto it = ssends_.find(hdr.cookie);
  if (it == ssends_.end()) {
    // The send was aborted (communicator revoked) while this CTS was in
    // flight: the receiver's matched recv waits on our put. Answer with an
    // error FIN so it completes with kRevoked, not a hang.
    log::warn("bml", "CTS for unknown send ", hdr.cookie);
    fin.status = static_cast<std::uint16_t>(Status::kRevoked);
    rail.bml_post(hdr.src_gid, fin, nullptr, 0);
    return;
  }
  StripedSend& op = it->second;
  op.putting = true;
  auto done = [this, tok = std::weak_ptr<bool>(alive_), id = hdr.cookie](Status st) {
    auto a = tok.lock();
    if (a && *a) on_put_done(id, st);
  };
  const auto [ptl, region] = op.regions.front();
  if (ptl->stripe_put(op.gid, region, body.region, op.rest, done, &fin) == 0)
    on_put_done(hdr.cookie, Status::kUnreachable);
}

void Bml::on_put_done(std::uint64_t id, Status st) {
  auto it = ssends_.find(id);
  if (ok(st) || it == ssends_.end()) return handle_stripe_fin(id, 0, st);
  take_send(it).req->fail(st);
}

// -------------------------------------------------------- receive path ----

void Bml::matched_single(RecvRequest& req, std::unique_ptr<FirstFrag> frag) {
  // The plan comes from the RTS alone: its length and inline prefix, its
  // arrival rail, and the region it names (read) or not (write).
  Ptl* rail = frag->ptl;
  const sim::ProcessCtx& ctx = pml_.ctx();
  if (!rail->reaches(frag->hdr.src_gid)) return req.fail(Status::kUnreachable);
  StripedRecv op;
  op.req = &req;
  op.gid = frag->hdr.src_gid;
  op.sender_cookie = frag->hdr.cookie;
  op.shape = frag->region != 0 ? RdvShape::Kind::kRead : RdvShape::Kind::kWrite;
  op.plan = derive_frags(frag->hdr.len, frag->inline_data.size(), 0, 0, 0);
  op.rest = op.plan.pull_len;
  op.unpack_mbps = rail->rendezvous_shape().dtype_engine
                       ? ctx.params->dtype_pack_mbps
                       : ctx.params->host_memcpy_mbps;
  op.held = rail;
  // Staging mirrors the message; only the pulled tail lands in it.
  op.staged = !req.type->is_contiguous();
  if (op.staged) req.staging.resize(op.plan.total);
  op.base = op.staged ? reinterpret_cast<char*>(req.staging.data())
                      : static_cast<char*>(req.buf);
  op.rails.push_back({rail->name(), frag->region, rail, {}, 0});
  op.pending.resize(1);
  op.pending[0].slot = 0;
  // Write shape: expose the landing zone, then tell the sender where it is.
  if (op.shape == RdvShape::Kind::kWrite)
    op.exposed = rail->stripe_expose(op.base + op.plan.pull_base, op.rest);
  else
    op.rails[0].queue.push_back(0);
  const std::uint64_t rid = next_recv_id_++;
  const CtsBody body{rid, op.exposed};
  MatchHeader cts;
  cts.kind = FragKind::kAck;
  cts.cookie = op.sender_cookie;
  cts.src_gid = ctx.gid;
  cts.dst_gid = op.gid;
  rrecvs_.emplace(rid, std::move(op));
  striped_changed_.notify();
  rail->hold(1);
  if (body.region == 0)
    pump(rid);
  else
    rail->bml_post(cts.dst_gid, cts, &body, sizeof(body));
  arm_stripe_timer();
}

void Bml::handle_put_fin(const MatchHeader& hdr) {
  auto it = rrecvs_.find(hdr.cookie);
  if (it == rrecvs_.end()) {
    log::warn("bml", "FIN for unknown recv ", hdr.cookie);
    return;
  }
  StripedRecv& op = it->second;
  op.pending[0].done = true;  // settled by the sender: no FIN back
  // An error FIN: the sender aborted the rendezvous after our CTS (a
  // revoke raced the handshake), and no data arrived.
  if (hdr.status != 0) return fail_recv(hdr.cookie, static_cast<Status>(hdr.status));
  ++op.done_count;
  maybe_finish_recv(hdr.cookie);
}

void Bml::matched_striped(RecvRequest& req, std::unique_ptr<FirstFrag> frag) {
  const std::vector<std::uint8_t>& blob = frag->inline_data;
  std::size_t off = 0;
  const sim::ProcessCtx& ctx = pml_.ctx();

  StripedRecv op;
  op.req = &req;
  op.gid = frag->hdr.src_gid;
  op.sender_cookie = frag->hdr.cookie;
  op.rest = frag->hdr.len;
  op.unpack_mbps = ctx.params->host_memcpy_mbps;

  const auto nrails = rte::get_pod<std::uint32_t>(blob, off);
  for (std::uint32_t i = 0; i < nrails; ++i) {
    const auto nlen = rte::get_pod<std::uint8_t>(blob, off);
    std::string name(blob.begin() + static_cast<std::ptrdiff_t>(off),
                     blob.begin() + static_cast<std::ptrdiff_t>(off + nlen));
    off += nlen;
    const auto region = rte::get_pod<std::uint64_t>(blob, off);
    RailSched rs;
    rs.name = std::move(name);
    rs.region = region;
    Ptl* p = find_rail(rs.name);
    rs.ptl = p;
    op.rails.push_back(std::move(rs));
  }
  op.checksummed = rte::get_pod<std::uint8_t>(blob, off) != 0;
  const auto inline_len = rte::get_pod<std::uint64_t>(blob, off);
  const auto push_len = rte::get_pod<std::uint64_t>(blob, off);
  const auto push_unit = rte::get_pod<std::uint32_t>(blob, off);
  const auto frag_size = rte::get_pod<std::uint64_t>(blob, off);
  const auto nfrags = rte::get_pod<std::uint32_t>(blob, off);

  // Re-derive the fragment boundaries from the sender's numbers through the
  // one shared authority; a disagreement is a protocol bug, not a runtime
  // condition.
  op.plan =
      derive_frags(frag->hdr.len, inline_len, push_len, push_unit, frag_size);
  assert(op.plan.nfrags == nfrags &&
         "sender and receiver derived different fragment schedules");
  (void)nfrags;
  op.push_expected = op.plan.push_len;

  if (op.checksummed) {
    op.crcs.resize(op.plan.nfrags);
    for (std::uint32_t i = 0; i < op.plan.nfrags; ++i)
      op.crcs[i] = rte::get_pod<std::uint32_t>(blob, off);
  }

  if (req.type->is_contiguous()) {
    op.base = static_cast<char*>(req.buf);
  } else {
    req.staging.resize(op.rest);
    op.base = reinterpret_cast<char*>(req.staging.data());
    op.staged = true;
  }

  // The inline prefix rides at the tail of the RTS body; it lands here and
  // nowhere else (the pull region starts at pull_base).
  if (op.plan.inline_len > 0) {
    assert(blob.size() - off == op.plan.inline_len);
    ctx.compute(ctx.params->host_memcpy_startup_ns +
                ModelParams::xfer_ns(op.plan.inline_len,
                                     ctx.params->host_memcpy_mbps));
    std::memcpy(op.base, blob.data() + off,
                static_cast<std::size_t>(op.plan.inline_len));
  }

  op.pending.resize(op.plan.nfrags);
  // Bandwidth-weighted fragment dispatch: each fragment goes to the rail
  // that finishes its backlog+fragment earliest. With equal rails this
  // degenerates to round-robin; a slow rail naturally takes fewer
  // fragments. Suspect/absent rails take none.
  {
    std::vector<double> load(op.rails.size(), 0.0);
    for (std::uint32_t i = 0; i < op.plan.nfrags; ++i) {
      int best = -1;
      double best_v = 0.0;
      for (std::size_t r = 0; r < op.rails.size(); ++r) {
        const RailSched& rs = op.rails[r];
        if (rs.ptl == nullptr || !rs.ptl->reaches(op.gid) ||
            suspect_rails_.count(rs.name) != 0)
          continue;
        const double v =
            (load[r] + static_cast<double>(op.plan.frag_bytes(i))) /
            rail_weight(*rs.ptl);
        if (best < 0 || v < best_v) {
          best = static_cast<int>(r);
          best_v = v;
        }
      }
      if (best < 0) break;  // no usable rail: issue_pull will fail the recv
      op.pending[i].slot = best;
      op.rails[static_cast<std::size_t>(best)].queue.push_back(i);
      load[static_cast<std::size_t>(best)] +=
          static_cast<double>(op.plan.frag_bytes(i));
    }
  }

  const std::uint64_t rid = next_recv_id_++;
  const auto key = std::make_pair(op.gid, op.sender_cookie);
  const std::uint32_t count = op.plan.nfrags;
  rrecvs_.emplace(rid, std::move(op));
  striped_changed_.notify();
  by_cookie_[key] = rid;
  OQS_METRIC_INC("bml.recv.striped");
  OQS_TRACE_INSTANT(ctx.gid, "bml", "recv.striped", "len", frag->hdr.len,
                    "frags", static_cast<std::uint64_t>(count));

  // Pushed fragments that raced ahead of the match land now.
  if (auto st = pipe_stash_.find(key); st != pipe_stash_.end()) {
    auto frames = std::move(st->second);
    pipe_stash_.erase(st);
    for (auto& [foff, bytes] : frames) {
      if (rrecvs_.find(rid) == rrecvs_.end()) return;  // completed/failed
      apply_push(rid, foff, bytes.data(), bytes.size());
    }
  }
  if (rrecvs_.find(rid) == rrecvs_.end()) return;

  if (count > 0) {
    // A fragment with no usable rail fails the receive through the normal
    // path: force one issue attempt so the failure is reported.
    bool any_queued = false;
    for (const RailSched& rs : rrecvs_.at(rid).rails)
      any_queued = any_queued || !rs.queue.empty();
    if (!any_queued) {
      fail_recv(rid, Status::kUnreachable);
      return;
    }
    pump(rid);
    arm_stripe_timer();
  } else {
    maybe_finish_recv(rid);
  }
}

void Bml::handle_pipe_frag(const MatchHeader& hdr, const std::uint8_t* data,
                           std::size_t len) {
  const auto key = std::make_pair(hdr.src_gid, hdr.cookie);
  auto it = by_cookie_.find(key);
  if (it == by_cookie_.end()) {
    // Pushed fragments can outrun the posting of the receive (the RTS sits
    // in the unexpected queue); stash them until the match lands.
    OQS_METRIC_INC("bml.pipeline.push_stashed");
    pipe_stash_[key].emplace_back(hdr.aux,
                                  std::vector<std::uint8_t>(data, data + len));
    return;
  }
  apply_push(it->second, hdr.aux, data, len);
}

void Bml::apply_push(std::uint64_t rid, std::uint64_t offset,
                     const std::uint8_t* data, std::size_t len) {
  auto it = rrecvs_.find(rid);
  if (it == rrecvs_.end()) return;
  StripedRecv& op = it->second;
  // Pushed fragments live strictly between the inline prefix and the pull
  // region; anything else would re-deliver bytes another path owns.
  if (offset < op.plan.inline_len || offset + len > op.plan.pull_base) {
    log::error("bml", "pushed fragment outside its window: off ", offset,
               " len ", len);
    return;
  }
  const sim::ProcessCtx& ctx = pml_.ctx();
  ctx.compute(ctx.params->host_memcpy_startup_ns +
              ModelParams::xfer_ns(len, ctx.params->host_memcpy_mbps));
  std::memcpy(op.base + offset, data, len);
  op.push_got += len;
  OQS_METRIC_INC("bml.pipeline.push_rx");
  OQS_TRACE_INSTANT(ctx.gid, "bml", "pipeline.push", "off", offset, "len",
                    static_cast<std::uint64_t>(len));
  maybe_finish_recv(rid);
}

bool Bml::usable(const StripedRecv& op, const RailSched& rs) const {
  return rs.ptl != nullptr && rs.ptl->reaches(op.gid) &&
         suspect_rails_.count(rs.name) == 0;
}

void Bml::pump(std::uint64_t rid) {
  auto it = rrecvs_.find(rid);
  if (it == rrecvs_.end()) return;
  const int depth = pipeline_depth();
  bool advanced = true;
  while (advanced) {
    advanced = false;
    // Re-find the op each sweep: issue_pull can mutate rrecvs_.
    auto cur = rrecvs_.find(rid);
    if (cur == rrecvs_.end()) return;
    StripedRecv& op = cur->second;
    auto usable = [&](const RailSched& rs) { return this->usable(op, rs); };
    // A dead rail's queued fragments migrate to the least-loaded survivor's
    // queue (not straight to the wire: the depth limit still applies, so a
    // failover does not dump an unbounded burst on the surviving rail).
    int total_inflight = 0;
    for (const RailSched& rs : op.rails) total_inflight += rs.inflight;
    for (std::size_t r = 0; r < op.rails.size(); ++r) {
      RailSched& rs = op.rails[r];
      if (usable(rs) || rs.queue.empty()) continue;
      while (!rs.queue.empty()) {
        int best = -1;
        for (std::size_t t = 0; t < op.rails.size(); ++t) {
          if (!usable(op.rails[t])) continue;
          if (best < 0 || op.rails[t].queue.size() <
                              op.rails[static_cast<std::size_t>(best)].queue.size())
            best = static_cast<int>(t);
        }
        if (best < 0) {
          // Every rail is gone. With pulls still in flight their completion
          // (or the watchdog) decides the fate; otherwise nothing ever will.
          if (total_inflight == 0) fail_recv(rid, Status::kUnreachable);
          return;
        }
        const std::uint32_t idx = rs.queue.front();
        rs.queue.pop_front();
        op.pending[idx].slot = best;
        op.rails[static_cast<std::size_t>(best)].queue.push_back(idx);
      }
    }
    for (std::size_t r = 0; r < op.rails.size(); ++r) {
      RailSched& rs = op.rails[r];
      if (rs.queue.empty() || rs.inflight >= depth) continue;
      const std::uint32_t idx = rs.queue.front();
      rs.queue.pop_front();
      advanced = true;
      issue_pull(rid, idx);
      if (rrecvs_.find(rid) == rrecvs_.end()) return;  // failed mid-issue
    }
  }
}

void Bml::issue_pull(std::uint64_t rid, std::uint32_t idx) {
  auto it = rrecvs_.find(rid);
  if (it == rrecvs_.end()) return;
  StripedRecv& op = it->second;
  PendingPull& pend = op.pending[idx];

  auto usable = [&](const RailSched& rs) { return this->usable(op, rs); };
  // Preferred rail: the scheduled assignment. Failing that (suspect,
  // absent, unreachable), the least-busy live rail — the sender exposed the
  // whole pull region on every rail for exactly this case.
  int slot = pend.slot;
  if (slot < 0 || !usable(op.rails[static_cast<std::size_t>(slot)])) {
    slot = -1;
    for (std::size_t r = 0; r < op.rails.size(); ++r) {
      if (!usable(op.rails[r])) continue;
      if (slot < 0 ||
          op.rails[r].inflight < op.rails[static_cast<std::size_t>(slot)].inflight)
        slot = static_cast<int>(r);
    }
    if (slot < 0) {
      fail_recv(rid, Status::kUnreachable);
      return;
    }
    pend.slot = slot;
  }
  RailSched& rs = op.rails[static_cast<std::size_t>(slot)];

  const sim::ProcessCtx& ctx = pml_.ctx();
  const std::uint64_t foff = op.plan.frag_offset(idx);
  const std::uint64_t flen = op.plan.frag_bytes(idx);
  ++pend.attempts;
  pend.rail = rs.ptl;
  pend.done = false;
  // Generous per-fragment deadline: the failover timeout plus several times
  // the ideal serialization, so a loaded-but-healthy rail is never culled —
  // including the rail's current backlog, which balloons when a failover
  // collapses a dead rail's share onto this one.
  std::uint64_t ahead =
      static_cast<std::uint64_t>(rs.inflight) * op.plan.frag_size;
  for (const std::uint32_t q : rs.queue) ahead += op.plan.frag_bytes(q);
  pend.deadline = ctx.engine->now() + ctx.params->stripe_timeout_ns +
                  2 * ModelParams::xfer_ns(ahead, ctx.params->link_mbps) +
                  8 * ModelParams::xfer_ns(flen, ctx.params->link_mbps);
  // The read shape's FIN_ACK rides the pull itself (§4.2, Fig. 8).
  MatchHeader fin_ack;
  fin_ack.kind = FragKind::kStripeFin;
  fin_ack.cookie = op.sender_cookie;
  fin_ack.src_gid = ctx.gid;
  fin_ack.dst_gid = op.gid;
  pend.pull_id = rs.ptl->stripe_pull(
      op.gid, rs.region, static_cast<std::size_t>(foff - op.plan.pull_base),
      op.base + foff, static_cast<std::size_t>(flen),
      [this, tok = std::weak_ptr<bool>(alive_), rid, idx](Status st) {
        auto a = tok.lock();
        if (!a || !*a) return;
        on_pull_done(rid, idx, st);
      },
      op.shape == RdvShape::Kind::kRead ? &fin_ack : nullptr);
  if (pend.pull_id == 0) {
    // The rail refused outright (peer gone there): immediately suspect.
    suspect_rails_.insert(rs.name);
    if (pend.attempts <= static_cast<int>(ptls_.size()) + 1)
      issue_pull(rid, idx);
    else
      fail_recv(rid, Status::kUnreachable);
    return;
  }
  ++rs.inflight;
  OQS_TRACE_INSTANT(ctx.gid, "bml", "stripe.pull", "idx",
                    static_cast<std::uint64_t>(idx), "len", flen);
}

void Bml::on_pull_done(std::uint64_t rid, std::uint32_t idx, Status st) {
  auto it = rrecvs_.find(rid);
  if (it == rrecvs_.end()) return;
  StripedRecv& op = it->second;
  PendingPull& pend = op.pending[idx];
  if (pend.done) return;  // stale completion after a reassignment
  if (pend.slot >= 0)
    --op.rails[static_cast<std::size_t>(pend.slot)].inflight;
  const sim::ProcessCtx& ctx = pml_.ctx();
  const std::uint64_t foff = op.plan.frag_offset(idx);
  const std::uint64_t flen = op.plan.frag_bytes(idx);

  if (!ok(st)) {
    if (st == Status::kErrProcFailed || st == Status::kFault) {
      // The PEER died, or its region is gone (the send was aborted), not
      // the rail: failover to another rail would only pull from the same
      // corpse or hole, and marking the rail suspect would penalize
      // traffic to every other peer. Fail the receive outright.
      fail_recv(rid, st);
      return;
    }
    if (pend.rail != nullptr) suspect_rails_.insert(pend.rail->name());
    if (pend.attempts > static_cast<int>(ptls_.size()) + 1) {
      fail_recv(rid, st);
      return;
    }
    issue_pull(rid, idx);
    return;
  }

  if (op.checksummed) {
    ctx.compute(ModelParams::xfer_ns(flen, ctx.params->crc_mbps));
    if (crc32c(op.base + foff, static_cast<std::size_t>(flen)) !=
        op.crcs[idx]) {
      OQS_METRIC_INC("bml.stripe.crc_retries");
      if (++pend.crc_retries > kStripeMaxCrcRetries) {
        fail_recv(rid, Status::kError);
        return;
      }
      // Re-pull without burning a failover attempt: a corrupting wire is
      // not a dead rail.
      --pend.attempts;
      issue_pull(rid, idx);
      return;
    }
  }

  pend.done = true;
  pend.pull_id = 0;
  ++op.done_count;
  OQS_TRACE_INSTANT(ctx.gid, "bml", "stripe.done", "idx",
                    static_cast<std::uint64_t>(idx), "len", flen);
  // FIN per fragment; the sender aggregates all FINs into one completion.
  // (The read shape's FIN_ACK already went with the pull.)
  if (op.shape == RdvShape::Kind::kPipelined)
    send_stripe_fin(op, idx, Status::kOk);
  // Freeing a depth slot starts the next queued fragment immediately: this
  // back-to-back chain is the pipeline.
  pump(rid);
  maybe_finish_recv(rid);
}

void Bml::send_stripe_fin(StripedRecv& op, std::size_t idx, Status st) {
  // Control traffic stays on the primary (first live) rail, like the
  // fragmented first fragment: a FIN must never ride a rail that might be
  // the one being failed over, or its loss would strand the sender's
  // aggregation.
  Ptl* rail = nullptr;
  for (const RailSched& rs : op.rails) {
    if (usable(op, rs)) {
      rail = rs.ptl;
      break;
    }
  }
  // Suspect is a local verdict, not proof of death: rather than strand the
  // sender's FIN aggregation, fall back to any rail that still claims to
  // reach the peer.
  if (rail == nullptr)
    for (const RailSched& rs : op.rails)
      if (rs.ptl != nullptr && rs.ptl->reaches(op.gid)) {
        rail = rs.ptl;
        break;
      }
  if (rail == nullptr) return;  // no rail at all: the sender is gone anyway
  MatchHeader fin;
  fin.kind = FragKind::kStripeFin;
  fin.src_gid = pml_.ctx().gid;
  fin.dst_gid = op.gid;
  fin.cookie = op.sender_cookie;
  fin.aux = idx;
  fin.status = static_cast<std::uint16_t>(st);
  // Not control-flagged: under reliability the FIN rides the sequenced
  // go-back-N stream, so a lost FIN is retransmitted, not stranded.
  rail->bml_post(op.gid, fin, nullptr, 0);
}

void Bml::maybe_finish_recv(std::uint64_t rid) {
  auto it = rrecvs_.find(rid);
  if (it == rrecvs_.end()) return;
  const StripedRecv& op = it->second;
  if (op.done_count == op.plan.nfrags && op.push_got >= op.push_expected)
    finish_recv(rid);
}

void Bml::finish_recv(std::uint64_t rid) {
  StripedRecv op = take_recv(rrecvs_.find(rid));
  const sim::ProcessCtx& ctx = pml_.ctx();
  if (op.staged) {
    ctx.compute(ctx.params->host_memcpy_startup_ns +
                ModelParams::xfer_ns(op.rest, op.unpack_mbps));
    op.req->convertor.unpack(
        op.req->staging.data() + (op.plan.total - op.rest), op.rest);
  }
  OQS_METRIC_INC("bml.stripe.recv_done");
  OQS_TRACE_INSTANT(ctx.gid, "bml", "stripe.recv_done", "len", op.rest);
  pml_.recv_progress(*op.req, op.rest);
}

void Bml::fail_recv(std::uint64_t rid, Status st) {
  auto it = rrecvs_.find(rid);
  if (it == rrecvs_.end()) return;
  StripedRecv op = take_recv(it);
  for (PendingPull& pend : op.pending) {
    if (!pend.done && pend.rail != nullptr && pend.pull_id != 0)
      pend.rail->stripe_cancel(pend.pull_id);
  }
  // Report every unfinished fragment to the sender so it unexposes its
  // regions and fails the send instead of waiting forever.
  for (std::size_t i = 0; i < op.pending.size(); ++i)
    if (!op.pending[i].done) send_stripe_fin(op, i, st);
  log::warn("bml", "rendezvous recv from gid ", op.gid, " failed: ",
            to_string(st));
  OQS_METRIC_INC("bml.stripe.failed");
  op.req->fail(st);
}

// ------------------------------------------------------ stripe failover ----

void Bml::arm_stripe_timer() {
  if (stripe_timer_armed_ || finalized_ || rrecvs_.empty()) return;
  stripe_timer_armed_ = true;
  const sim::ProcessCtx& ctx = pml_.ctx();
  const sim::Time interval =
      std::max<sim::Time>(ctx.params->stripe_timeout_ns / 4, 1000);
  ctx.engine->schedule(interval, [this, token = alive_] {
    if (!*token) return;
    // Timer events are plain callbacks; re-issuing pulls charges host CPU,
    // which requires a fiber — so the scan runs in a short-lived one.
    pml_.ctx().engine->spawn("bml-stripe", [this, token] {
      if (!*token) return;
      stripe_fire();
    });
  });
}

void Bml::stripe_fire() {
  stripe_timer_armed_ = false;
  const sim::ProcessCtx& ctx = pml_.ctx();
  const sim::Time now = ctx.engine->now();
  // Collect overdue fragments first: issue_pull / fail_recv mutate rrecvs_.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> overdue;
  for (auto& [rid, op] : rrecvs_) {
    for (std::uint32_t i = 0; i < op.pending.size(); ++i) {
      const PendingPull& pend = op.pending[i];
      if (!pend.done && pend.pull_id != 0 && now >= pend.deadline)
        overdue.emplace_back(rid, i);
    }
  }
  for (const auto& [rid, idx] : overdue) {
    auto it = rrecvs_.find(rid);
    if (it == rrecvs_.end()) continue;
    StripedRecv& op = it->second;
    PendingPull& pend = op.pending[idx];
    if (pend.done || pend.pull_id == 0) continue;
    // The pull sat past its deadline: presume the rail dead, abandon the
    // pull, and re-issue the fragment on a survivor.
    log::warn("bml", "fragment ", idx, " overdue on rail ",
              pend.rail != nullptr ? pend.rail->name() : "?",
              "; failing over");
    OQS_METRIC_INC("bml.stripe.failovers");
    OQS_TRACE_INSTANT(ctx.gid, "bml", "stripe.failover", "idx",
                      static_cast<std::uint64_t>(idx));
    if (pend.rail != nullptr) {
      pend.rail->stripe_cancel(pend.pull_id);
      suspect_rails_.insert(pend.rail->name());
    }
    if (pend.slot >= 0)
      --op.rails[static_cast<std::size_t>(pend.slot)].inflight;
    pend.pull_id = 0;
    if (pend.attempts > static_cast<int>(ptls_.size()) + 1) {
      fail_recv(rid, Status::kUnreachable);
      continue;
    }
    issue_pull(rid, idx);
    // The dead rail's queued fragments reassign as the pump pops them (the
    // issue path skips suspect rails), so drain it now.
    pump(rid);
  }
  arm_stripe_timer();
}

// ------------------------------------------------------------ lifecycle ----

int Bml::progress() {
  int n = 0;
  for (const auto& p : ptls_) n += p->progress();
  return n;
}

int Bml::sweep(std::size_t from, bool paid) {
  if (from == 0 && !paid) return progress();
  int n = 0;
  for (std::size_t r = 0; r < ptls_.size(); ++r) {
    if (from >= plan_shape_[r]) {  // walked, fruitless, before the park
      from -= plan_shape_[r];
      continue;
    }
    n += ptls_[r]->poll_plan().sweep(from, paid);
    from = 0;
    paid = false;
  }
  return n;
}

int Bml::watch(sim::IdleWait& w) {
  plan_shape_.clear();
  int points = 0;
  for (const auto& p : ptls_) {
    sim::PollPlan& plan = p->poll_plan();
    if (plan.point_ns() != point_ns()) return -1;
    const int n = plan.watch(w);
    if (n < 0) return -1;
    plan_shape_.push_back(static_cast<std::size_t>(n));
    points += n;
  }
  return points;
}

bool Bml::quiet() const {
  for (const auto& p : ptls_)
    if (!p->poll_plan().quiet()) return false;
  return true;
}

sim::Time Bml::point_ns() const { return pml_.ctx().params->host_poll_ns; }

void Bml::finalize() {
  if (finalized_) return;
  // Drain in-flight fragmented operations first (the failover timer keeps
  // running, so a dead rail cannot wedge the drain), then quiesce the rails.
  pml_.ctx().wait_until(
      sim::Cadence::kPoll,
      sim::watched(&striped_changed_, [this] { return striped_active() == 0; }),
      this);
  finalized_ = true;
  *alive_ = false;
  pipe_stash_.clear();
  for (const auto& p : ptls_) p->leave();
  for (const auto& p : ptls_) p->finalize();
}

// -------------------------------------------------------- process faults ----

void Bml::peer_failed(int gid) {
  // Rails first: the dead endpoint goes !alive and its stream drops, so
  // nothing below can queue new frames at the corpse. The rails' RDMA
  // purges call back into on_pull_done / on_put_done with kErrProcFailed,
  // which fails the owning operations without polluting suspect_rails_.
  for (const auto& p : ptls_) p->peer_failed(gid);
  // Receives still pulling from, or awaiting a FIN of, the dead sender
  // (fragments queued but not yet issued never saw a pull callback).
  std::vector<std::uint64_t> doomed;
  for (auto& [rid, op] : rrecvs_)
    if (op.gid == gid) doomed.push_back(rid);
  for (std::uint64_t rid : doomed) fail_recv(rid, Status::kErrProcFailed);
  // Sends waiting on a CTS or FINs the dead receiver can never issue.
  doomed.clear();
  for (auto& [id, op] : ssends_)
    if (op.gid == gid) doomed.push_back(id);
  for (std::uint64_t id : doomed) {
    auto it = ssends_.find(id);
    if (it == ssends_.end()) continue;
    StripedSend op = take_send(it);
    OQS_METRIC_INC("bml.failure.ssends_purged");
    if (op.req != nullptr) op.req->fail(Status::kErrProcFailed);
  }
  // Pushed fragments stashed from the dead sender will never match.
  for (auto it = pipe_stash_.begin(); it != pipe_stash_.end();) {
    if (it->first.first == gid)
      it = pipe_stash_.erase(it);
    else
      ++it;
  }
}

bool Bml::abort_send(SendRequest& req) {
  // Abortable only while no receiver FIN has arrived and no put has left:
  // a set bit in fin_mask means data already landed in the receiver's
  // buffer, so the transfer must run to completion and carry the result.
  for (auto it = ssends_.begin(); it != ssends_.end(); ++it) {
    StripedSend& op = it->second;
    if (op.req != &req) continue;
    if (op.fin_mask != 0 || op.putting) return false;
    take_send(it);
    OQS_METRIC_INC("bml.failure.ssends_aborted");
    return true;
  }
  return false;
}

Bml::StripedSend Bml::take_send(
    std::map<std::uint64_t, StripedSend>::iterator it) {
  StripedSend op = std::move(it->second);
  ssends_.erase(it);
  striped_changed_.notify();
  for (auto& [rail, region] : op.regions) rail->stripe_unexpose(region);
  if (op.held != nullptr) op.held->hold(-1);
  return op;
}

Bml::StripedRecv Bml::take_recv(
    std::map<std::uint64_t, StripedRecv>::iterator it) {
  StripedRecv op = std::move(it->second);
  rrecvs_.erase(it);
  striped_changed_.notify();
  by_cookie_.erase(std::make_pair(op.gid, op.sender_cookie));
  if (op.exposed != 0) op.held->stripe_unexpose(op.exposed);
  if (op.held != nullptr) op.held->hold(-1);
  return op;
}

void Bml::halt() {
  if (finalized_) return;
  finalized_ = true;
  *alive_ = false;
  while (!ssends_.empty()) {
    StripedSend op = take_send(ssends_.begin());
    if (op.req != nullptr) op.req->fail(Status::kErrProcFailed);
  }
  while (!rrecvs_.empty()) {
    StripedRecv op = take_recv(rrecvs_.begin());
    if (op.req != nullptr) op.req->fail(Status::kErrProcFailed);
  }
  by_cookie_.clear();
  pipe_stash_.clear();
  for (const auto& p : ptls_) p->halt();
}

}  // namespace oqs::pml
