#include "ptl/tcp/ptl_tcp.h"

#include <cassert>
#include <cstring>

#include "base/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rte/oob.h"

namespace oqs::ptl_tcp {

using pml::FragKind;
using pml::MatchHeader;

PtlTcp::PtlTcp(pml::Pml& pml, elan4::QsNet& net, int node)
    : pml_(pml), net_(net), node_(node) {
  addr_ = net_.eth().attach(this);
}

PtlTcp::~PtlTcp() {
  if (!finalized_) finalize();
}

std::vector<std::uint8_t> PtlTcp::contact() const {
  std::vector<std::uint8_t> blob;
  rte::put_pod(blob, static_cast<std::int32_t>(addr_));
  return blob;
}

Status PtlTcp::add_peer(int gid, const pml::ContactInfo& info) {
  auto it = info.find(name_);
  if (it == info.end()) return Status::kUnreachable;
  std::size_t off = 0;
  TcpEndpoint& p = peers_[gid];
  p.gid = gid;
  p.alive = true;
  p.said_bye = p.heard_bye = false;
  p.addr = rte::get_pod<std::int32_t>(it->second, off);
  changed_.notify();
  return Status::kOk;
}

void PtlTcp::charge_io(std::size_t bytes) {
  const ModelParams& p = net_.params();
  net_.node(node_).cpu().compute(p.syscall_ns + p.tcp_stack_ns +
                                 ModelParams::xfer_ns(bytes, p.tcp_copy_mbps));
}

void PtlTcp::post_frame(TcpEndpoint& peer, const MatchHeader& hdr,
                        const void* payload, std::size_t payload_len) {
  // The choke point: nothing follows our goodbye to a peer (say_goodbye
  // marks it before posting the goodbye itself).
  if (peer.said_bye && hdr.kind != FragKind::kGoodbye) return;
  std::vector<std::uint8_t> frame(sizeof(MatchHeader) + payload_len);
  std::memcpy(frame.data(), &hdr, sizeof(MatchHeader));
  if (payload_len > 0)
    std::memcpy(frame.data() + sizeof(MatchHeader), payload, payload_len);
  charge_io(frame.size());
  tx_bytes_ += frame.size();
  net_.eth().send(addr_, peer.addr, std::move(frame));
}

void PtlTcp::say_goodbye(TcpEndpoint& peer) {
  peer.said_bye = true;  // before the post charge, as on Elan4
  MatchHeader bye;
  bye.kind = FragKind::kGoodbye;
  bye.src_gid = pml_.ctx().gid;
  bye.dst_gid = peer.gid;
  post_frame(peer, bye, nullptr, 0);
}

void PtlTcp::send_first(pml::SendRequest& req) {
  // Long messages never reach here: the TCP PTL has no rendezvous of its
  // own, so the BML runs them through the fragment schedule.
  assert(req.total_bytes() <= eager_limit());
  auto pit = peers_.find(req.dst_gid);
  if (pit == peers_.end()) {
    req.fail(Status::kUnreachable);
    return;
  }
  OQS_TRACE_SPAN(span_, node_, "ptl", "send_first", "len", req.total_bytes());
  const std::size_t total = req.total_bytes();
  req.hdr.kind = FragKind::kEager;
  std::vector<std::uint8_t> payload(total);
  if (total > 0) req.convertor.pack(payload.data(), total);
  post_frame(pit->second, req.hdr, payload.data(), payload.size());
  pml_.send_progress(req, total);
}

// ------------------------------------------------ BML striping hooks ----

std::uint64_t PtlTcp::stripe_expose(const void* base, std::size_t len) {
  const std::uint64_t id = next_id_++;
  stripe_regions_.emplace(
      id, StripeRegion{static_cast<const std::uint8_t*>(base), len});
  return id;
}

std::uint64_t PtlTcp::stripe_pull(int gid, std::uint64_t region,
                                  std::size_t offset, void* dst,
                                  std::size_t len,
                                  std::function<void(Status)> done,
                                  const MatchHeader* fin) {
  // The TCP rail leads only pipelined schedules, whose FINs the BML posts.
  assert(fin == nullptr);
  (void)fin;
  auto it = peers_.find(gid);
  if (it == peers_.end() || !it->second.alive) return 0;
  const std::uint64_t id = next_id_++;
  stripe_pulls_.emplace(id, StripePull{static_cast<std::uint8_t*>(dst), len,
                                       std::move(done), gid});
  MatchHeader preq;
  preq.kind = FragKind::kPullReq;
  preq.src_gid = pml_.ctx().gid;
  preq.dst_gid = gid;
  preq.cookie = id;       // echoed back in the response
  preq.aux = region;      // exposer's region handle
  preq.len = len;
  std::vector<std::uint8_t> body;
  rte::put_pod(body, static_cast<std::uint64_t>(offset));
  rte::put_pod(body, static_cast<std::uint64_t>(len));
  OQS_TRACE_INSTANT(node_, "ptl", "stripe.pull_req", "id", id, "len",
                    static_cast<std::uint64_t>(len));
  post_frame(it->second, preq, body.data(), body.size());
  return id;
}

void PtlTcp::bml_post(int gid, const MatchHeader& hdr, const void* body,
                      std::size_t body_len) {
  auto it = peers_.find(gid);
  if (it == peers_.end() || !it->second.alive) return;
  post_frame(it->second, hdr, body, body_len);
}

void PtlTcp::eth_deliver(int, std::vector<std::uint8_t> frame) {
  inbox_.push_back(std::move(frame));
  changed_.notify();
}

void PtlTcp::handle_frame(std::vector<std::uint8_t>&& frame) {
  if (halted_) return;  // dead host: the kernel buffered it, nobody reads it
  if (frame.size() < sizeof(MatchHeader)) {
    log::warn(name_, "runt frame (", frame.size(), "B) dropped");
    OQS_METRIC_INC("ptl.frames.runt_dropped");
    return;
  }
  MatchHeader hdr;
  std::memcpy(&hdr, frame.data(), sizeof(MatchHeader));
  charge_io(frame.size());
  OQS_TRACE_SPAN(span_, node_, "ptl", "handle_frame", "kind",
                 static_cast<std::uint64_t>(hdr.kind));
  OQS_METRIC_INC("ptl.frames.handled");

  // First contact: a frame from a peer with no endpoint wires it (a
  // goodbye too: it can overtake the peer's first frame on another PTL).
  if (hdr.src_gid != pml_.ctx().gid &&
      peers_.find(hdr.src_gid) == peers_.end())
    pml_.resolve_peer(hdr.src_gid);

  switch (hdr.kind) {
    case FragKind::kEager:
    case FragKind::kRendezvousStriped: {
      auto ff = std::make_unique<pml::FirstFrag>();
      ff->hdr = hdr;
      ff->ptl = this;
      ff->inline_data.assign(frame.begin() + sizeof(MatchHeader), frame.end());
      pml_.incoming_first(std::move(ff));
      break;
    }
    case FragKind::kStripeFin:
      pml_.bml().handle_stripe_fin(hdr.cookie, hdr.aux,
                                   static_cast<Status>(hdr.status));
      break;
    case FragKind::kPipeFrag:
      pml_.bml().handle_pipe_frag(hdr, frame.data() + sizeof(MatchHeader),
                                  frame.size() - sizeof(MatchHeader));
      break;
    case FragKind::kPullReq: {
      std::size_t off = sizeof(MatchHeader);
      const auto roff = rte::get_pod<std::uint64_t>(frame, off);
      const auto rlen = rte::get_pod<std::uint64_t>(frame, off);
      auto pit = peers_.find(hdr.src_gid);
      if (pit == peers_.end() || !pit->second.alive) break;
      MatchHeader resp;
      resp.kind = FragKind::kPullResp;
      resp.src_gid = pml_.ctx().gid;
      resp.dst_gid = hdr.src_gid;
      resp.cookie = hdr.cookie;  // the puller's pull id
      auto rit = stripe_regions_.find(hdr.aux);
      if (rit == stripe_regions_.end() ||
          roff + rlen > rit->second.len) {
        resp.status = static_cast<std::uint16_t>(Status::kFault);
        post_frame(pit->second, resp, nullptr, 0);
        break;
      }
      resp.status = static_cast<std::uint16_t>(Status::kOk);
      resp.len = rlen;
      post_frame(pit->second, resp, rit->second.base + roff,
                 static_cast<std::size_t>(rlen));
      break;
    }
    case FragKind::kPullResp: {
      auto it = stripe_pulls_.find(hdr.cookie);
      if (it == stripe_pulls_.end()) break;  // cancelled pull: stale response
      StripePull op = std::move(it->second);
      stripe_pulls_.erase(it);
      if (hdr.status != static_cast<std::uint16_t>(Status::kOk)) {
        if (op.done) op.done(static_cast<Status>(hdr.status));
        break;
      }
      const std::size_t part = frame.size() - sizeof(MatchHeader);
      if (part != op.len) {
        if (op.done) op.done(Status::kError);
        break;
      }
      std::memcpy(op.dst, frame.data() + sizeof(MatchHeader), part);
      if (op.done) op.done(Status::kOk);
      break;
    }
    case FragKind::kGoodbye: {
      // The peer tore down (finalize or migration): stop addressing its
      // socket, and answer unless ours went out already. A later send
      // re-resolves fresh contact info lazily.
      auto pit = peers_.find(hdr.src_gid);
      if (pit == peers_.end()) break;
      changed_.notify();
      if (pit->second.hear_bye()) say_goodbye(pit->second);
      break;
    }
    default:
      log::warn(name_, "unexpected frame kind ",
                static_cast<int>(hdr.kind));
      OQS_METRIC_INC("ptl.frames.unknown_kind");
  }
}

int PtlTcp::progress() { return sweep(0, false); }

int PtlTcp::sweep(std::size_t from, bool paid) {
  (void)from;  // one point
  // One poll() syscall over the socket set.
  if (!paid) net_.node(node_).cpu().compute(net_.params().host_poll_ns);
  int n = 0;
  while (!inbox_.empty()) {
    std::vector<std::uint8_t> f = std::move(inbox_.front());
    inbox_.pop_front();
    handle_frame(std::move(f));
    ++n;
  }
  return n;
}

void PtlTcp::say_goodbyes() {
  for (auto& [gid, peer] : peers_)
    if (!peer.said_bye && !pml_.excused(gid)) say_goodbye(peer);
}

void PtlTcp::leave() {
  if (left_) return;
  left_ = true;
  // Tell the peers we talked to that we are leaving, so they stop
  // addressing this socket (a send to a detached address drops silently —
  // a migrated peer would hang).
  say_goodbyes();
}

void PtlTcp::finalize() {
  if (finalized_) return;
  leave();
  finalized_ = true;
  // Detach once each peer has said goodbye back or joined the dead-set
  // (pml/endpoint.h); a peer first heard from meanwhile is owed one too.
  auto excused = [this](int gid) { return pml_.excused(gid); };
  for (;;) {
    const pml::Leave s = pml::leave_state(peers_, excused);
    if (s == pml::Leave::kDone) break;
    if (s == pml::Leave::kSay) {
      say_goodbyes();
      continue;
    }
    auto moved = [&] { return pml::leave_state(peers_, excused) != s; };
    pml_.ctx().wait_until(sim::Cadence::kPoll, sim::watched(&changed_, moved),
                          this, sim::watched(pml_.abort_signal, moved));
  }
  net_.eth().detach(addr_);
}

// ------------------------------------------------------ process faults ----

void PtlTcp::peer_failed(int gid) {
  auto pit = peers_.find(gid);
  if (pit != peers_.end()) {
    pit->second.alive = false;
    changed_.notify();
  }
  std::vector<std::uint64_t> doomed;
  for (auto& [id, sp] : stripe_pulls_)
    if (sp.gid == gid) doomed.push_back(id);
  for (std::uint64_t id : doomed) {
    auto it = stripe_pulls_.find(id);
    if (it == stripe_pulls_.end()) continue;
    StripePull sp = std::move(it->second);
    stripe_pulls_.erase(it);
    if (sp.done) sp.done(Status::kErrProcFailed);
  }
}

void PtlTcp::halt() {
  if (finalized_) return;
  finalized_ = true;
  halted_ = true;
  stripe_pulls_.clear();
  stripe_regions_.clear();
  // Endpoints are retired, never erased (the goodbye walk in finalize()
  // may be suspended mid-map).
  for (auto& [gid, peer] : peers_) peer.alive = false;
  inbox_.clear();
  // No goodbye traffic: the socket just vanishes. Peers' later frames to
  // the detached address drop silently, exactly like a dead host's port.
  net_.eth().detach(addr_);
}

}  // namespace oqs::ptl_tcp
