#include "ptl/elan4/ptl_elan4.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "base/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rte/oob.h"  // put_pod/get_pod helpers

namespace oqs::ptl_elan4 {

using elan4::E4Addr;
using elan4::E4Event;
using elan4::QdmaCmd;
using elan4::Vpid;
using pml::FragKind;
using pml::MatchHeader;

PtlElan4::PtlElan4(pml::Pml& pml, elan4::QsNet& net, int node, Options opts,
                   int rail, std::string name)
    : pml_(pml),
      net_(net),
      node_(node),
      rail_(rail),
      opts_(opts),
      name_(std::move(name)) {
  assert(rail_ >= 0 && rail_ < net.num_rails());
  // Interrupt and one-thread progress need every completion to land in the
  // combined queue; two-thread needs the separate queue (paper §4.3).
  if (opts_.progress == Progress::kInterrupt || opts_.progress == Progress::kOneThread)
    opts_.completion = Completion::kSharedCombined;
  if (opts_.progress == Progress::kTwoThreads)
    opts_.completion = Completion::kSharedSeparate;
  // Reliability verifies rendezvous payloads per fragment, which only the
  // fragment schedule does: the paper schemes carry no payload checksum.
  if (opts_.reliability) opts_.scheme = Scheme::kPipelined;
  rtuning_.send_window = opts_.send_window;
  rtuning_.suspect_timeouts = net_.params().suspect_timeouts;
  rtuning_.seq_start = opts_.seq_start;

  device_ = net_.open(node_, rail_);
  assert(device_ && "no free Elan4 context on this node");
  recv_q_ = device_->create_queue(opts_.qslots, 2048);
  if (opts_.completion == Completion::kSharedSeparate)
    comp_q_ = device_->create_queue(opts_.qslots, 2048);

  if (threaded()) {
    pml_.set_request_wake_delay(net_.params().thread_wakeup_ns);
    start_threads();
  }
}

PtlElan4::~PtlElan4() {
  if (!finalized_) finalize();
}

double PtlElan4::bandwidth_weight() const { return net_.params().link_mbps; }

double PtlElan4::latency_ns() const {
  // First-fragment one-way estimate for the BML's rail selection: post +
  // NIC launch + two fabric hops + slot landing.
  const ModelParams& p = net_.params();
  return static_cast<double>(p.host_qdma_post_ns + p.nic_qdma_start_ns +
                             2 * p.hop_ns + p.nic_slot_write_ns);
}

// ----------------------------------------------------------- wire-up ----

std::vector<std::uint8_t> PtlElan4::contact() const {
  std::vector<std::uint8_t> blob;
  rte::put_pod(blob, device_->vpid());
  rte::put_pod(blob, static_cast<std::int32_t>(recv_q_->id()));
  return blob;
}

Status PtlElan4::add_peer(int gid, const pml::ContactInfo& info) {
  auto it = info.find(name_);
  if (it == info.end()) return Status::kUnreachable;
  std::size_t off = 0;
  const auto& blob = it->second;
  // A new or re-added (migrated, rejoined) peer starts a fresh connection,
  // reliability stream included: its sequence spaces start at seq_start (0
  // in production; tests place it near 65535 to exercise wraparound).
  // Pml::resolve_peer never re-adds a live peer.
  Elan4Endpoint& p = peers_[gid];
  p.gid = gid;
  p.alive = true;
  p.vpid = rte::get_pod<Vpid>(blob, off);
  p.recv_queue = rte::get_pod<std::int32_t>(blob, off);
  p.stream = opts_.reliability ? make_stream(gid) : nullptr;
  changed_.notify();
  return Status::kOk;
}

bool PtlElan4::reaches(int gid) const {
  auto it = peers_.find(gid);
  return it != peers_.end() && it->second.alive;
}

pml::Endpoint* PtlElan4::endpoint(int gid) {
  auto it = peers_.find(gid);
  return it == peers_.end() ? nullptr : &it->second;
}

bool PtlElan4::wired() const {
  for (const auto& [gid, peer] : peers_)
    if (peer.alive) return true;
  return false;
}

// --------------------------------------------------------- utilities ----

void PtlElan4::charge_pack(std::size_t bytes) {
  const ModelParams& p = net_.params();
  const double rate = opts_.use_dtype_engine ? p.dtype_pack_mbps : p.host_memcpy_mbps;
  device_->compute(p.host_memcpy_startup_ns + ModelParams::xfer_ns(bytes, rate));
}

std::unique_ptr<ptl::ReliableStream> PtlElan4::make_stream(int gid) {
  ptl::ReliableStream::Hooks hooks;
  hooks.wire = [this, gid](const std::vector<std::uint8_t>& frame,
                           void* recycle) {
    post_wire(peers_.at(gid), frame, static_cast<E4Event*>(recycle));
  };
  hooks.charge_crc = [this](std::size_t bytes) {
    device_->compute(ModelParams::xfer_ns(bytes, net_.params().crc_mbps) + 40);
  };
  hooks.now = [this] { return net_.engine().now(); };
  hooks.arm_rtx = [this](sim::Time deadline) { arm_rtx_timer(deadline); };
  hooks.arm_ack = [this] { arm_ack_timer(); };
  hooks.send_nack = [this, gid] { send_nack(gid); };
  hooks.send_ack = [this, gid] { send_frame_ack(gid); };
  hooks.peer_suspect = [this, gid] {
    if (on_peer_suspect_) on_peer_suspect_(gid);
  };
  hooks.window = &changed_;
  hooks.node = node_;
  hooks.name = name_;
  return std::make_unique<ptl::ReliableStream>(rtuning_, counters_,
                                               std::move(hooks));
}

void PtlElan4::post_wire(Elan4Endpoint& peer,
                         const std::vector<std::uint8_t>& frame,
                         E4Event* recycle) {
  tx_bytes_ += frame.size();
  device_->post_qdma(peer.vpid, peer.recv_queue, frame, recycle,
                     /*lossy=*/true);
}

void PtlElan4::post_frame(Elan4Endpoint& peer, const MatchHeader& hdr,
                          const void* body, std::size_t body_len,
                          const void* payload, std::size_t payload_len) {
  const bool sequenced =
      opts_.reliability && (hdr.flags & pml::kFlagControl) == 0;
  const std::size_t trailer = sequenced ? 4 : 0;
  std::vector<std::uint8_t> frame(sizeof(MatchHeader) + body_len + payload_len +
                                  trailer);
  MatchHeader h = hdr;
  if (opts_.reliability) peer.stream->stamp_ack(h);
  if (sequenced) {
    h.flags |= pml::kFlagChecksummed;
    h.frame_seq = peer.stream->assign_seq();
  }
  std::memcpy(frame.data(), &h, sizeof(MatchHeader));
  if (body_len > 0) std::memcpy(frame.data() + sizeof(MatchHeader), body, body_len);
  if (payload_len > 0)
    std::memcpy(frame.data() + sizeof(MatchHeader) + body_len, payload, payload_len);
  if (sequenced) {
    peer.stream->submit(std::move(frame), recycle_event_);
    return;
  }
  // Control frames bypass sequencing. They are still fault-exposed in
  // reliability mode (a lost NACK/ack is recovered by the retransmission
  // timer), except the teardown goodbye, which nothing would resend.
  const bool lossy = opts_.reliability && hdr.kind != FragKind::kGoodbye;
  tx_bytes_ += frame.size();
  device_->post_qdma(peer.vpid, peer.recv_queue, frame, recycle_event_, lossy);
}

void PtlElan4::send_nack(int gid) {
  Elan4Endpoint& peer = peers_.at(gid);
  MatchHeader nack;
  nack.kind = FragKind::kNack;
  nack.flags = pml::kFlagControl;
  nack.cookie = peer.stream->rx_expected();
  nack.src_gid = pml_.ctx().gid;
  nack.dst_gid = gid;
  OQS_METRIC_INC("ptl.reliability.nacks_sent");
  post_frame(peer, nack, nullptr, 0, nullptr, 0);
}

void PtlElan4::send_frame_ack(int gid) {
  Elan4Endpoint& peer = peers_.at(gid);
  MatchHeader ack;
  ack.kind = FragKind::kFrameAck;
  ack.flags = pml::kFlagControl;
  ack.src_gid = pml_.ctx().gid;
  ack.dst_gid = gid;
  OQS_METRIC_INC("ptl.reliability.acks_sent");
  post_frame(peer, ack, nullptr, 0, nullptr, 0);  // ack_seq set by post_frame
}

void PtlElan4::flush_acks() {
  for (auto& [gid, peer] : peers_) {
    if (!peer.alive || peer.stream == nullptr) continue;
    if (peer.stream->ack_debt()) send_frame_ack(gid);
  }
}

void PtlElan4::handle_nack(const MatchHeader& hdr) {
  auto it = peers_.find(hdr.src_gid);
  if (it == peers_.end() || !it->second.alive) return;
  it->second.stream->on_nack(static_cast<std::uint16_t>(hdr.cookie));
}

// ------------------------------------------------------- retry timers ----

void PtlElan4::arm_rtx_timer(sim::Time deadline) {
  if (rtx_timer_armed_) return;
  rtx_timer_armed_ = true;
  sim::Engine& engine = net_.engine();
  const sim::Time now = engine.now();
  const sim::Time delay = deadline > now ? deadline - now : 1;
  engine.schedule(delay, [this, token = alive_] {
    if (!*token) return;
    // Timer events are plain callbacks; posting frames charges host CPU,
    // which requires a fiber — so the work runs in a short-lived one.
    net_.engine().spawn("elan4-rtx", [this, token] {
      if (!*token) return;
      rtx_fire();
    });
  });
}

void PtlElan4::rtx_fire() {
  rtx_timer_armed_ = false;
  const sim::Time now = net_.engine().now();
  sim::Time next = 0;
  for (auto& [gid, peer] : peers_) {
    if (!peer.alive || peer.stream == nullptr) continue;
    const sim::Time deadline = peer.stream->rtx_check(now);
    if (deadline != 0 && (next == 0 || deadline < next)) next = deadline;
  }
  if (next != 0) arm_rtx_timer(next);
}

void PtlElan4::arm_ack_timer() {
  if (ack_timer_armed_) return;
  ack_timer_armed_ = true;
  net_.engine().schedule(ptl::kAckDelayNs, [this, token = alive_] {
    if (!*token) return;
    net_.engine().spawn("elan4-ack", [this, token] {
      if (!*token) return;
      ack_fire();
    });
  });
}

void PtlElan4::ack_fire() {
  ack_timer_armed_ = false;
  for (auto& [gid, peer] : peers_) {
    if (!peer.alive || peer.stream == nullptr) continue;
    if (peer.stream->unacked_rx() > 0) send_frame_ack(gid);
  }
}

Elan4Endpoint* PtlElan4::wait_for_window(int gid) {
  // Application-fiber backpressure: block until the peer's window has room
  // for one more sequenced frame. Progress must keep running while blocked
  // or the acks that open the window are never processed.
  Elan4Endpoint* ep = nullptr;
  auto room = [&] {
    auto it = peers_.find(gid);
    ep = it == peers_.end() || !it->second.alive ? nullptr : &it->second;
    return ep == nullptr || !opts_.reliability ||
           ep->window_in_use() < opts_.send_window;
  };
  pml_.ctx().wait_until(wait_cadence(), sim::watched(&changed_, room),
                        wait_plan());
  return ep;
}

void PtlElan4::arm_completion(E4Event* ev, std::uint64_t id) {
  if (opts_.completion == Completion::kDirectPoll) {
    poll_list_.emplace_back(id, ev);
    poll_list_changed_.notify();
    return;
  }
  // Chain a small QDMA to the descriptor that lands in our own queue — the
  // shared-completion-queue mechanism of Fig. 6.
  MatchHeader hdr;
  hdr.kind = FragKind::kComplete;
  hdr.flags = pml::kFlagControl;
  hdr.cookie = id;
  hdr.src_gid = hdr.dst_gid = pml_.ctx().gid;
  QdmaCmd cmd;
  cmd.src_vpid = device_->vpid();
  cmd.dest_vpid = device_->vpid();
  cmd.dest_queue = opts_.completion == Completion::kSharedSeparate ? comp_q_->id()
                                                                   : recv_q_->id();
  cmd.data.resize(sizeof(MatchHeader));
  std::memcpy(cmd.data.data(), &hdr, sizeof(MatchHeader));
  ev->chain(std::move(cmd));
}

// --------------------------------------------------------- send path ----

void PtlElan4::send_first(pml::SendRequest& req) {
  // send_first runs on the application fiber, the one place the protocol
  // may block: a full send window backpressures the sender here instead of
  // dropping retransmission history.
  Elan4Endpoint* pp = wait_for_window(req.dst_gid);
  if (pp == nullptr) {
    req.fail(Status::kUnreachable);
    return;
  }
  OQS_TRACE_SPAN(span_, node_, "ptl", "send_first", "len", req.total_bytes());
  Elan4Endpoint& peer = *pp;
  const ModelParams& p = net_.params();
  const std::size_t total = req.total_bytes();
  if (opts_.use_dtype_engine) device_->compute(p.dtype_engine_startup_ns);

  if (total <= eager_limit()) {
    // Eager: whole payload rides the first QDMA from a send buffer.
    req.hdr.kind = FragKind::kEager;
    std::vector<std::uint8_t> payload(total);
    if (total > 0) {
      charge_pack(total);
      req.convertor.pack(payload.data(), total);
    }
    // In the shared-completion-queue designs the send request is tied to
    // the QDMA's local event: it completes when the chained completion
    // message is handled, not at post time. This is the cost Fig. 8 shows
    // for One-Queue/Two-Queue under polling, and what routes per-send work
    // to the completion thread in two-thread progress (§6.4). Interrupt
    // mode keeps buffered-immediate completion (one interrupt per wait).
    const bool track_recycle = opts_.completion != Completion::kDirectPoll;
    const bool defer_completion =
        track_recycle && opts_.progress != Progress::kInterrupt;
    if (track_recycle) {
      E4Event* ev = device_->alloc_event("sendbuf");
      ev->init(1);
      if (defer_completion) {
        const std::uint64_t id = next_id_++;
        PendingSend op;
        op.req = &req;
        op.gid = req.dst_gid;
        op.rest = total;
        op.awaiting = 1;
        sends_.emplace(id, std::move(op));
        changed_.notify();
        arm_completion(ev, id);
      } else {
        arm_completion(ev, kRecycleCookie);
      }
      // The recycle event fires on the frame's injection; attach it by
      // posting through the same path the descriptor would use.
      recycle_event_ = ev;
    }
    post_frame(peer, req.hdr, nullptr, 0, payload.data(), payload.size());
    recycle_event_ = nullptr;
    // Buffered semantics: the user buffer is reusable once packed.
    if (!defer_completion) pml_.send_progress(req, total);
    return;
  }

  // Paper rendezvous. The inline payload (if enabled) is clamped so the
  // frame fits one 2 KB slot.
  const std::size_t max_inline = 2048 - sizeof(MatchHeader) - sizeof(RdvBody);
  const std::size_t inline_len =
      std::min(opts_.inline_rendezvous ? eager_limit() : 0, max_inline);

  const std::uint64_t id = next_id_++;
  PendingSend op;
  op.req = &req;
  op.gid = req.dst_gid;
  op.rest = total - inline_len;

  req.hdr.kind = FragKind::kRendezvous;
  req.hdr.cookie = id;

  std::vector<std::uint8_t> inline_buf(inline_len);
  if (inline_len > 0) {
    charge_pack(inline_len);
    req.convertor.pack(inline_buf.data(), inline_len);
  }

  // Expose the remainder: directly for contiguous data, via a packed
  // staging buffer otherwise (the E4_Addr constraint of §4.2).
  const char* src;
  if (req.type->is_contiguous()) {
    src = static_cast<const char*>(req.buf) + inline_len;
  } else {
    req.staging.resize(op.rest);
    charge_pack(op.rest);
    req.convertor.pack(req.staging.data(), op.rest);
    src = reinterpret_cast<const char*>(req.staging.data());
  }
  op.src_addr = device_->map(const_cast<char*>(src), op.rest);

  RdvBody body{};
  body.src_addr =
      opts_.scheme == Scheme::kRdmaRead ? op.src_addr : elan4::kNullE4Addr;

  sends_.emplace(id, std::move(op));
  changed_.notify();
  OQS_METRIC_INC("ptl.rdv.started");
  OQS_TRACE_INSTANT(node_, "ptl", "rdv.first_frag", "cookie", id, "rest",
                    total - inline_len);
  post_frame(peer, req.hdr, &body, sizeof(body), inline_buf.data(), inline_len);
  if (inline_len > 0) pml_.send_progress(req, inline_len);
}

void PtlElan4::handle_ack(const MatchHeader& hdr, const AckBody& body) {
  auto it = sends_.find(hdr.cookie);
  if (it == sends_.end()) {
    log::warn(name_, "ACK for unknown send cookie ", hdr.cookie);
    // The send was aborted (communicator revoked) while this ACK was in
    // flight: the receiver has a matched recv waiting on our RDMA write.
    // Answer with an error FIN so it completes with kRevoked, not a hang.
    auto pit = peers_.find(hdr.src_gid);
    if (pit != peers_.end() && pit->second.alive) {
      MatchHeader fin;
      fin.kind = FragKind::kFin;
      fin.cookie = body.recv_cookie;
      fin.status = static_cast<std::uint16_t>(Status::kRevoked);
      fin.src_gid = pml_.ctx().gid;
      fin.dst_gid = hdr.src_gid;
      post_frame(pit->second, fin, nullptr, 0, nullptr, 0);
    }
    return;
  }
  PendingSend& op = it->second;
  const Elan4Endpoint& peer = peers_.at(op.gid);
  op.peer_recv_cookie = body.recv_cookie;
  OQS_TRACE_INSTANT(node_, "ptl", "rdv.ack", "cookie", hdr.cookie, "rest",
                    op.rest);

  assert(body.dst_addr != elan4::kNullE4Addr);
  op.awaiting = 1;
  const bool chain_fin = opts_.chained_fin;
  op.fin_needed = !chain_fin;

  E4Event* ev = device_->alloc_event("put");
  ev->init(1);
  op.events.push_back(ev);
  if (chain_fin) {
    MatchHeader fin;
    fin.kind = FragKind::kFin;
    fin.cookie = op.peer_recv_cookie;
    fin.src_gid = pml_.ctx().gid;
    fin.dst_gid = op.gid;
    QdmaCmd cmd;
    cmd.src_vpid = device_->vpid();
    cmd.dest_vpid = peer.vpid;
    cmd.dest_queue = peer.recv_queue;
    cmd.data.resize(sizeof(MatchHeader));
    std::memcpy(cmd.data.data(), &fin, sizeof(MatchHeader));
    ev->chain(std::move(cmd));
  }
  arm_completion(ev, it->first);
  tx_bytes_ += op.rest;
  device_->rdma_write(peer.vpid, op.src_addr, body.dst_addr,
                      static_cast<std::uint32_t>(op.rest), ev);
}

void PtlElan4::complete_send(std::uint64_t id, PendingSend& op) {
  if (op.fin_needed) {
    auto pit = peers_.find(op.gid);
    if (pit != peers_.end() && pit->second.alive) {
      MatchHeader fin;
      fin.kind = FragKind::kFin;
      fin.cookie = op.peer_recv_cookie;
      fin.src_gid = pml_.ctx().gid;
      fin.dst_gid = op.gid;
      post_frame(pit->second, fin, nullptr, 0, nullptr, 0);
    }
  }
  if (op.src_addr != elan4::kNullE4Addr) device_->unmap(op.src_addr);
  pml::SendRequest* req = op.req;
  const std::size_t rest = op.rest;
  OQS_METRIC_INC("ptl.rdv.send_done");
  OQS_TRACE_INSTANT(node_, "ptl", "rdv.send_done", "cookie", id, "rest", rest);
  sends_.erase(id);
  changed_.notify();
  pml_.send_progress(*req, rest);
}

void PtlElan4::handle_fin_ack(const MatchHeader& hdr) {
  auto it = sends_.find(hdr.cookie);
  if (it == sends_.end()) {
    log::warn(name_, "FIN_ACK for unknown send cookie ", hdr.cookie);
    return;
  }
  complete_send(it->first, it->second);
}

// ------------------------------------------------------ receive path ----

void PtlElan4::matched(pml::RecvRequest& req, std::unique_ptr<pml::FirstFrag> frag) {
  auto* ef = static_cast<ElanFirstFrag*>(frag.get());
  auto pit = peers_.find(ef->hdr.src_gid);
  if (pit == peers_.end() || !pit->second.alive) {
    req.fail(Status::kUnreachable);
    return;
  }
  OQS_TRACE_SPAN(span_, node_, "ptl", "rdv.matched", "len", ef->hdr.len);
  Elan4Endpoint& peer = pit->second;
  const std::size_t got_inline = ef->inline_data.size();
  const std::uint64_t id = next_id_++;

  PendingRecv op;
  op.req = &req;
  op.gid = ef->hdr.src_gid;
  op.send_cookie = ef->send_cookie;
  op.rest = ef->hdr.len - got_inline;

  if (req.type->is_contiguous()) {
    op.dst_ptr = static_cast<char*>(req.buf) + got_inline;
  } else {
    req.staging.resize(op.rest);
    op.dst_ptr = reinterpret_cast<char*>(req.staging.data());
    op.staged = true;
  }
  op.dst_addr = device_->map(op.dst_ptr, op.rest);

  // The sender's scheme decides: RDMA-read exposes its source address in
  // the first fragment, RDMA-write leaves it null.
  if (ef->src_addr != elan4::kNullE4Addr) {
    op.finack_needed = !opts_.chained_fin;
    op.awaiting = 1;
    E4Event* ev = device_->alloc_event("get");
    ev->init(1);
    if (opts_.chained_fin) {
      MatchHeader fa;
      fa.kind = FragKind::kFinAck;
      fa.cookie = op.send_cookie;
      fa.src_gid = pml_.ctx().gid;
      fa.dst_gid = op.gid;
      QdmaCmd cmd;
      cmd.src_vpid = device_->vpid();
      cmd.dest_vpid = peer.vpid;
      cmd.dest_queue = peer.recv_queue;
      cmd.data.resize(sizeof(MatchHeader));
      std::memcpy(cmd.data.data(), &fa, sizeof(MatchHeader));
      ev->chain(std::move(cmd));
    }
    const std::size_t rest = op.rest;
    const E4Addr dst_addr = op.dst_addr;
    recvs_.emplace(id, std::move(op));
    changed_.notify();
    OQS_METRIC_ADD("ptl.rdma.read_bytes", rest);
    OQS_TRACE_INSTANT(node_, "ptl", "rdv.issue_reads", "cookie", id, "rest",
                      rest);
    arm_completion(ev, id);
    tx_bytes_ += rest;
    device_->rdma_read(peer.vpid, ef->src_addr, dst_addr,
                       static_cast<std::uint32_t>(rest), ev);
    return;
  }

  // RDMA-write scheme: ACK with the exposed landing zone's address.
  OQS_METRIC_ADD("ptl.rdma.write_bytes", op.rest);
  OQS_TRACE_INSTANT(node_, "ptl", "rdv.ack_sent", "cookie", op.send_cookie,
                    "rest", op.rest);
  MatchHeader ack;
  ack.kind = FragKind::kAck;
  ack.cookie = op.send_cookie;
  ack.src_gid = pml_.ctx().gid;
  ack.dst_gid = op.gid;
  AckBody body{};
  body.recv_cookie = id;
  body.dst_addr = op.dst_addr;
  recvs_.emplace(id, std::move(op));
  changed_.notify();
  post_frame(peer, ack, &body, sizeof(body), nullptr, 0);
}

void PtlElan4::complete_recv(std::uint64_t id, PendingRecv& op) {
  if (op.finack_needed) {
    auto pit = peers_.find(op.gid);
    if (pit != peers_.end() && pit->second.alive) {
      MatchHeader fa;
      fa.kind = FragKind::kFinAck;
      fa.cookie = op.send_cookie;
      fa.src_gid = pml_.ctx().gid;
      fa.dst_gid = op.gid;
      post_frame(pit->second, fa, nullptr, 0, nullptr, 0);
    }
  }
  if (op.dst_addr != elan4::kNullE4Addr) device_->unmap(op.dst_addr);
  if (op.staged) {
    charge_pack(op.rest);
    op.req->convertor.unpack(op.req->staging.data(), op.rest);
  }
  pml::RecvRequest* req = op.req;
  const std::size_t rest = op.rest;
  OQS_METRIC_INC("ptl.rdv.recv_done");
  OQS_TRACE_INSTANT(node_, "ptl", "rdv.recv_done", "cookie", id, "rest", rest);
  recvs_.erase(id);
  changed_.notify();
  pml_.recv_progress(*req, rest);
}

void PtlElan4::handle_fin(const MatchHeader& hdr) {
  auto it = recvs_.find(hdr.cookie);
  if (it == recvs_.end()) {
    log::warn(name_, "FIN for unknown recv cookie ", hdr.cookie);
    return;
  }
  if (hdr.status != 0) {
    // Error FIN: the sender aborted the rendezvous after our ACK (revoke
    // raced the handshake). No data arrived; fail the matched recv.
    PendingRecv op = std::move(it->second);
    recvs_.erase(it);
    changed_.notify();
    if (op.dst_addr != elan4::kNullE4Addr) device_->unmap(op.dst_addr);
    OQS_METRIC_INC("ptl.failure.recvs_purged");
    op.req->fail(static_cast<Status>(hdr.status));
    return;
  }
  complete_recv(it->first, it->second);
}

// ------------------------------------------------ BML striping hooks ----

std::uint64_t PtlElan4::stripe_expose(const void* base, std::size_t len) {
  return device_->map(const_cast<void*>(base), len);
}

void PtlElan4::stripe_unexpose(std::uint64_t region) {
  device_->unmap(static_cast<E4Addr>(region));
}

std::uint64_t PtlElan4::stripe_pull(int gid, std::uint64_t region,
                                    std::size_t offset, void* dst,
                                    std::size_t len,
                                    std::function<void(Status)> done) {
  auto it = peers_.find(gid);
  if (it == peers_.end() || !it->second.alive) return 0;
  const std::uint64_t id = next_id_++;
  StripePull sp;
  sp.dst_addr = device_->map(dst, len);
  sp.done = std::move(done);
  sp.gid = gid;
  E4Event* ev = device_->alloc_event("stripe");
  ev->init(1);
  sp.event = ev;
  const E4Addr dst_addr = sp.dst_addr;
  pulls_.emplace(id, std::move(sp));
  changed_.notify();
  arm_completion(ev, id);
  tx_bytes_ += len;
  device_->rdma_read(it->second.vpid, static_cast<E4Addr>(region) + offset,
                     dst_addr, static_cast<std::uint32_t>(len), ev);
  return id;
}

void PtlElan4::stripe_cancel(std::uint64_t pull_id) {
  auto it = pulls_.find(pull_id);
  if (it == pulls_.end()) return;
  device_->unmap(it->second.dst_addr);
  pulls_.erase(it);
  changed_.notify();
  // Drop the poll-list registration too (the event may never fire).
  unpoll(pull_id);
}

void PtlElan4::bml_post(int gid, const MatchHeader& hdr, const void* body,
                        std::size_t body_len) {
  auto it = peers_.find(gid);
  if (it == peers_.end() || !it->second.alive) return;
  post_frame(it->second, hdr, body, body_len, nullptr, 0);
}

void PtlElan4::handle_local_complete(std::uint64_t id) {
  if (id == kRecycleCookie) {
    // A 2KB send buffer returned to the pool.
    OQS_METRIC_INC("ptl.sendbuf.recycled");
    return;
  }
  OQS_TRACE_INSTANT(node_, "ptl", "local_complete", "cookie", id);
  if (auto it = sends_.find(id); it != sends_.end()) {
    if (--it->second.awaiting <= 0) complete_send(id, it->second);
    return;
  }
  if (auto it = recvs_.find(id); it != recvs_.end()) {
    if (--it->second.awaiting <= 0) complete_recv(id, it->second);
    return;
  }
  if (auto it = pulls_.find(id); it != pulls_.end()) {
    StripePull sp = std::move(it->second);
    pulls_.erase(it);
    changed_.notify();
    device_->unmap(sp.dst_addr);
    if (sp.done) sp.done(Status::kOk);
    return;
  }
  log::warn(name_, "completion for unknown op ", id);
}

// ---------------------------------------------------------- progress ----

void PtlElan4::handle_frame(elan4::QdmaQueue::Slot&& slot) {
  if (halted_) return;  // dead host: the NIC landed the frame, nobody reads it
  if (slot.data.size() < sizeof(MatchHeader)) {
    // Defense in depth: a runt frame cannot carry a trustworthy header (not
    // even the piggybacked ack), so it is dropped whole.
    log::warn(name_, "runt frame (", slot.data.size(), "B) dropped");
    OQS_METRIC_INC("ptl.frames.runt_dropped");
    return;
  }
  MatchHeader hdr;
  std::memcpy(&hdr, slot.data.data(), sizeof(MatchHeader));
  OQS_TRACE_SPAN(span_, node_, "ptl", "handle_frame", "kind",
                 static_cast<std::uint64_t>(hdr.kind));
  OQS_METRIC_INC("ptl.frames.handled");

  // First contact: a frame from a peer this rail has no endpoint for wires
  // it (on every rail), and a first fragment from a peer we thought was gone
  // means it migrated or rejoined, so its fresh contact is fetched. Both
  // happen before the reliability gate, so the frame is admitted on the new
  // stream. A goodbye only ever retires a peer.
  if (hdr.src_gid != pml_.ctx().gid && hdr.kind != FragKind::kGoodbye) {
    auto pit = peers_.find(hdr.src_gid);
    const bool first = hdr.kind == FragKind::kEager ||
                       hdr.kind == FragKind::kRendezvous ||
                       hdr.kind == FragKind::kRendezvousStriped;
    if (pit == peers_.end() || (first && !pit->second.alive))
      pml_.resolve_peer(hdr.src_gid);
  }

  // Reliability gate. Self-addressed control frames (chained completions)
  // never take this path. For peer frames: first harvest the piggybacked
  // cumulative ack — valid even on duplicates and out-of-order frames
  // (headers are never corrupted in flight; only payload bytes beyond the
  // protected prefix are) — then verify the trailer and enforce per-sender
  // ordering before anything is acted on.
  if (opts_.reliability && hdr.src_gid != pml_.ctx().gid) {
    auto pit = peers_.find(hdr.src_gid);
    if (pit != peers_.end() && pit->second.alive)
      pit->second.stream->harvest_ack(hdr.ack_seq);
    if ((hdr.flags & pml::kFlagControl) == 0) {
      if (pit == peers_.end() || pit->second.stream == nullptr) return;
      if (!pit->second.stream->admit(hdr, slot.data)) return;
      // Strip the CRC trailer before normal parsing.
      slot.data.resize(slot.data.size() - 4);
    }
  }

  switch (hdr.kind) {
    case FragKind::kEager:
    case FragKind::kRendezvous:
    case FragKind::kRendezvousStriped: {
      auto frag = std::make_unique<ElanFirstFrag>();
      frag->hdr = hdr;
      frag->ptl = this;
      std::size_t off = sizeof(MatchHeader);
      if (hdr.kind == FragKind::kRendezvous) {
        RdvBody body;
        std::memcpy(&body, slot.data.data() + off, sizeof(body));
        off += sizeof(body);
        frag->src_addr = body.src_addr;
        frag->send_cookie = hdr.cookie;
      }
      // kRendezvousStriped carries the BML's stripe map as inline_data.
      frag->inline_data.assign(slot.data.begin() + static_cast<std::ptrdiff_t>(off),
                               slot.data.end());
      if (opts_.use_dtype_engine)
        device_->compute(net_.params().dtype_engine_startup_ns);
      pml_.incoming_first(std::move(frag));
      break;
    }
    case FragKind::kAck: {
      AckBody body;
      std::memcpy(&body, slot.data.data() + sizeof(MatchHeader), sizeof(body));
      handle_ack(hdr, body);
      break;
    }
    case FragKind::kFin:
      handle_fin(hdr);
      break;
    case FragKind::kFinAck:
      handle_fin_ack(hdr);
      break;
    case FragKind::kStripeFin:
      pml_.bml().handle_stripe_fin(hdr);
      break;
    case FragKind::kPipeFrag:
      // Eagerly pushed pipeline fragment: payload straight to the BML,
      // which routes it by (sender, cookie) — no matching involved.
      pml_.bml().handle_pipe_frag(hdr,
                                  slot.data.data() + sizeof(MatchHeader),
                                  slot.data.size() - sizeof(MatchHeader));
      break;
    case FragKind::kComplete:
      handle_local_complete(hdr.cookie);
      break;
    case FragKind::kNack:
      handle_nack(hdr);
      break;
    case FragKind::kFrameAck:
      break;  // pure ack carrier: fully consumed by the gate above

    case FragKind::kGoodbye:
      if (hdr.src_gid != pml_.ctx().gid) {
        auto it = peers_.find(hdr.src_gid);
        if (it != peers_.end()) it->second.alive = false;
        changed_.notify();
      }
      // A self-goodbye just wakes a blocked thread during shutdown.
      break;
    default:
      log::warn(name_, "unexpected frame kind ", static_cast<int>(hdr.kind));
      OQS_METRIC_INC("ptl.frames.unknown_kind");
      break;
  }
}

void PtlElan4::unpoll(std::uint64_t id) {
  std::erase_if(poll_list_, [id](const auto& e) { return e.first == id; });
  poll_list_changed_.notify();
}

int PtlElan4::drain(elan4::QdmaQueue* q, bool paid) {
  int n = 0;
  elan4::QdmaQueue::Slot slot;
  for (;; paid = false) {
    if (!paid) device_->charge_poll();
    if (!q->consume(&slot)) return n;
    handle_frame(std::move(slot));
    ++n;
  }
}

int PtlElan4::poll_direct(std::size_t first, bool paid) {
  if (poll_list_.empty()) return 0;
  int n = 0;
  std::vector<std::uint64_t> ready;
  // charge_poll() suspends this fiber while the CPU cost is charged, and
  // other fibers (the BML stripe watchdog re-issuing or cancelling pulls)
  // mutate poll_list_ in that window — so never hold an iterator across it.
  for (std::size_t i = first; i < poll_list_.size(); paid = false) {
    if (!paid) device_->charge_poll();
    if (i >= poll_list_.size()) break;  // list shrank while suspended
    if (poll_list_[i].second->done()) {
      ready.push_back(poll_list_[i].first);
      poll_list_.erase(poll_list_.begin() + static_cast<std::ptrdiff_t>(i));
      ++n;
    } else {
      ++i;
    }
  }
  if (n > 0) poll_list_changed_.notify();
  for (std::uint64_t id : ready) handle_local_complete(id);
  return n;
}

int PtlElan4::progress() { return sweep(0, false); }

int PtlElan4::sweep(std::size_t from, bool paid) {
  int n = 0;
  std::size_t point = 0;
  for (elan4::QdmaQueue* q : {recv_q_, comp_q_}) {
    if (q == nullptr || point++ < from) continue;
    n += drain(q, paid);
    paid = false;
  }
  if (opts_.completion == Completion::kDirectPoll)
    n += poll_direct(from > point ? from - point : 0, paid);
  return n;
}

int PtlElan4::watch(sim::IdleWait& w) {
  int points = 0;
  for (elan4::QdmaQueue* q : {recv_q_, comp_q_}) {
    if (q == nullptr) continue;
    if (!w.watch(&q->signal())) return -1;
    ++points;
  }
  if (opts_.completion != Completion::kDirectPoll) return points;
  if (!w.watch(&poll_list_changed_)) return -1;
  for (const auto& [id, ev] : poll_list_) {
    if (!w.watch(&ev->signal())) return -1;
    ++points;
  }
  return points;
}

bool PtlElan4::quiet() const {
  for (const elan4::QdmaQueue* q : {recv_q_, comp_q_})
    if (q != nullptr && q->has_pending()) return false;
  if (opts_.completion != Completion::kDirectPoll) return true;
  for (const auto& [id, ev] : poll_list_)
    if (ev->done()) return false;
  return true;
}

sim::Time PtlElan4::point_ns() const { return net_.params().host_poll_ns; }

int PtlElan4::progress_blocking() {
  // Drain whatever is pending; if nothing, block on the receive queue's
  // interrupt (every completion funnels there in interrupt mode).
  int n = progress();
  if (n > 0) return n;
  device_->queue_wait(recv_q_);
  return progress();
}

void PtlElan4::start_threads() {
  sim::Engine& engine = net_.engine();
  live_threads_ = opts_.progress == Progress::kTwoThreads ? 2 : 1;

  // After an interrupt wakes the main progress thread it stays hot for a
  // short spin window, so the follow-up events of an in-flight rendezvous
  // (the read completion, the FIN) are picked up by polling rather than
  // each paying another interrupt.
  const sim::Time spin_ns = 12 * sim::kUs;
  auto loop = [this, spin_ns, &engine](elan4::QdmaQueue* q, bool spin) {
    while (!stopping_) {
      device_->queue_wait(q);
      elan4::QdmaQueue::Slot slot;
      if (!spin) {
        while (device_->queue_poll(q, &slot)) handle_frame(std::move(slot));
        continue;
      }
      // Fixed spin window from the wakeup: follow-up events of the exchange
      // just handled are caught by polling; then the thread re-blocks and
      // the next inbound message pays one interrupt.
      const sim::Time woke = engine.now();
      while (!stopping_ && engine.now() - woke < spin_ns) {
        while (device_->queue_poll(q, &slot)) handle_frame(std::move(slot));
      }
    }
    live_threads_ = live_threads_ - 1;
  };
  engine.spawn("elan4-progress", [loop, this] { loop(recv_q_, true); });
  // The dedicated completion-queue thread blocks per event: every local
  // DMA completion it serves costs a full interrupt wakeup.
  if (opts_.progress == Progress::kTwoThreads)
    engine.spawn("elan4-completion", [loop, this] { loop(comp_q_, false); });
}

void PtlElan4::send_self(FragKind kind) {
  MatchHeader hdr;
  hdr.kind = kind;
  hdr.flags = pml::kFlagControl;
  hdr.src_gid = hdr.dst_gid = pml_.ctx().gid;
  std::vector<std::uint8_t> frame(sizeof(MatchHeader));
  std::memcpy(frame.data(), &hdr, sizeof(MatchHeader));
  device_->post_qdma(device_->vpid(), recv_q_->id(), frame);
  if (comp_q_ != nullptr)
    device_->post_qdma(device_->vpid(), comp_q_->id(), frame);
}

void PtlElan4::finalize() {
  if (finalized_) return;
  finalized_ = true;
  const sim::ProcessCtx& host = pml_.ctx();

  // Quiesce: pending messages must complete before teardown (§4.1), so no
  // leftover DMA descriptor can regenerate traffic. Stripe pulls count: the
  // BML cancels the doomed ones before it lets the rails finalize.
  host.wait_until(wait_cadence(),
                  sim::watched(&changed_, [this] { return !active(); }),
                  wait_plan());

  if (opts_.reliability) {
    // Acknowledge everything received so peers can prune and leave too,
    // then wait for our own outstanding frames to be acknowledged (the
    // retransmission timer keeps recovering losses meanwhile). Without
    // this, a dropped final FIN_ACK would strand the other side forever.
    flush_acks();
    auto settled = [this] {
      for (auto& [gid, peer] : peers_)
        if (peer.alive && peer.window_in_use() > 0) return false;
      return sends_.empty() && recvs_.empty();
    };
    host.wait_until(wait_cadence(), sim::watched(&changed_, settled),
                    wait_plan());
  }

  // Tell the peers we talked to that we are leaving, so they stop
  // addressing our context. Before each goodbye, read what already arrived:
  // a peer whose own goodbye is waiting there may have closed its context
  // since, and a goodbye to it would be dropped. (Progress threads read the
  // queue themselves.)
  for (auto& [gid, peer] : peers_) {
    if (peer.alive && !threaded()) drain(recv_q_, /*paid=*/false);
    if (!peer.alive) continue;
    MatchHeader bye;
    bye.kind = FragKind::kGoodbye;
    bye.flags = pml::kFlagControl;
    bye.src_gid = pml_.ctx().gid;
    bye.dst_gid = gid;
    post_frame(peer, bye, nullptr, 0, nullptr, 0);
  }

  if (threaded()) {
    stopping_ = true;
    send_self(FragKind::kGoodbye);
    host.wait_until(sim::Cadence::kThreadExit,
                    sim::watched(&live_threads_.signal(),
                                 [this] { return live_threads_ == 0; }));
  }

  // Let in-flight goodbyes drain before the contexts disappear.
  net_.engine().sleep(5 * net_.params().interrupt_ns);
  // Disarm the reliability timers: any already-scheduled callback sees the
  // cleared token and no-ops instead of touching a closed device.
  *alive_ = false;
  device_->close();
}

// ------------------------------------------------------ process faults ----

void PtlElan4::peer_failed(int gid) {
  auto pit = peers_.find(gid);
  if (pit != peers_.end()) {
    pit->second.alive = false;
    // Dropping the stream empties its sent log: the shared retransmission
    // timer stops re-arming against the corpse (nothing else would ever
    // stop it — the engine could not drain) and its backlog is released.
    pit->second.stream.reset();
    changed_.notify();
  }
  auto purge_poll = [this](std::uint64_t id) { unpoll(id); };
  // Fail in-flight rendezvous ops addressed at the dead peer: the FIN /
  // FIN_ACK / ACK they are waiting on can never arrive.
  std::vector<std::uint64_t> doomed;
  for (auto& [id, op] : sends_)
    if (op.gid == gid) doomed.push_back(id);
  for (std::uint64_t id : doomed) {
    auto it = sends_.find(id);
    if (it == sends_.end()) continue;
    PendingSend op = std::move(it->second);
    sends_.erase(it);
    changed_.notify();
    purge_poll(id);
    OQS_METRIC_INC("ptl.failure.sends_purged");
    if (op.src_addr != elan4::kNullE4Addr) device_->unmap(op.src_addr);
    if (op.req != nullptr) op.req->fail(Status::kErrProcFailed);
  }
  doomed.clear();
  for (auto& [id, op] : recvs_)
    if (op.gid == gid) doomed.push_back(id);
  for (std::uint64_t id : doomed) {
    auto it = recvs_.find(id);
    if (it == recvs_.end()) continue;
    PendingRecv op = std::move(it->second);
    recvs_.erase(it);
    changed_.notify();
    purge_poll(id);
    OQS_METRIC_INC("ptl.failure.recvs_purged");
    if (op.dst_addr != elan4::kNullE4Addr) device_->unmap(op.dst_addr);
    if (op.req != nullptr) op.req->fail(Status::kErrProcFailed);
  }
  doomed.clear();
  for (auto& [id, sp] : pulls_)
    if (sp.gid == gid) doomed.push_back(id);
  for (std::uint64_t id : doomed) {
    auto it = pulls_.find(id);
    if (it == pulls_.end()) continue;
    StripePull sp = std::move(it->second);
    pulls_.erase(it);
    changed_.notify();
    purge_poll(id);
    device_->unmap(sp.dst_addr);
    if (sp.done) sp.done(Status::kErrProcFailed);
  }
}

void PtlElan4::wake() {
  if (halted_ || finalized_) return;
  // A self-addressed goodbye is the established "wake a blocked thread"
  // nudge (see finalize): it lands in the receive queue, queue_wait
  // returns, and handle_frame discards it (src == self).
  send_self(FragKind::kGoodbye);
}

bool PtlElan4::abort_send(pml::SendRequest* req) {
  for (auto it = sends_.begin(); it != sends_.end(); ++it) {
    PendingSend& op = it->second;
    if (op.req != req) continue;
    // Abortable only while awaiting the ACK; once the RDMA is in flight
    // the transfer completes on its own and carries the real result.
    if (op.awaiting != 0 || !op.events.empty()) return false;
    if (op.src_addr != elan4::kNullE4Addr) device_->unmap(op.src_addr);
    unpoll(it->first);
    sends_.erase(it);
    changed_.notify();
    OQS_METRIC_INC("ptl.failure.sends_aborted");
    return true;
  }
  return false;
}

void PtlElan4::halt() {
  if (finalized_) return;
  finalized_ = true;
  halted_ = true;
  stopping_ = true;
  // Timer callbacks already scheduled see the cleared token and no-op.
  *alive_ = false;
  // The process died mid-flight: no goodbyes, no quiesce. The device
  // context stays open — the capability slot is only marked failed — so
  // peers' frames keep landing in the receive queue (bounded by their send
  // windows) until teardown closes it; handle_frame never reads them.
  for (auto& [id, op] : sends_) {
    if (op.src_addr != elan4::kNullE4Addr) device_->unmap(op.src_addr);
    if (op.req != nullptr) op.req->fail(Status::kErrProcFailed);
  }
  sends_.clear();
  changed_.notify();
  for (auto& [id, op] : recvs_) {
    if (op.dst_addr != elan4::kNullE4Addr) device_->unmap(op.dst_addr);
    if (op.req != nullptr) op.req->fail(Status::kErrProcFailed);
  }
  recvs_.clear();
  changed_.notify();
  for (auto& [id, sp] : pulls_) device_->unmap(sp.dst_addr);
  pulls_.clear();
  changed_.notify();
  poll_list_.clear();
  poll_list_changed_.notify();
  // Endpoints are retired, never erased: a timer walk suspended mid-map
  // (it charges while posting) must find its iterator still valid.
  for (auto& [gid, peer] : peers_) peer.alive = false;
  changed_.notify();
}

}  // namespace oqs::ptl_elan4
