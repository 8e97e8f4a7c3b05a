#include "ptl/elan4/ptl_elan4.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <utility>

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

namespace {
// The cookie of finalize's self-addressed goodbye that stops a progress
// thread (a wake() nudge carries 0).
constexpr std::uint64_t kStopCookie = 1;

bool is_stop_nudge(const std::vector<std::uint8_t>& frame, int self) {
  MatchHeader hdr;
  if (frame.size() < sizeof(hdr)) return false;
  std::memcpy(&hdr, frame.data(), sizeof(hdr));
  return hdr.kind == FragKind::kGoodbye && hdr.src_gid == self &&
         hdr.cookie == kStopCookie;
}
}  // namespace

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
  // Reliability verifies rendezvous payloads per fragment before its FIN,
  // which only the pipelined shape does: the paper's shapes chain the FIN
  // to the RDMA itself.
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
  p.said_bye = p.heard_bye = false;
  p.vpid = rte::get_pod<Vpid>(blob, off);
  p.recv_queue = rte::get_pod<std::int32_t>(blob, off);
  p.stream = opts_.reliability ? make_stream(gid) : nullptr;
  changed_.notify();
  return Status::kOk;
}

Elan4Endpoint* PtlElan4::live_peer(int gid) {
  auto it = peers_.find(gid);
  return it != peers_.end() && it->second.alive ? &it->second : nullptr;
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
  // A backlogged or retransmitted frame after our goodbye: refused, as
  // post_frame refuses new ones.
  if (peer.said_bye) return;
  tx_bytes_ += frame.size();
  device_->post_qdma(peer.vpid, peer.recv_queue, frame, recycle,
                     /*lossy=*/true);
}

void PtlElan4::post_frame(Elan4Endpoint& peer, const MatchHeader& hdr,
                          const void* body, std::size_t body_len,
                          const void* payload, std::size_t payload_len) {
  // The choke point: nothing follows our goodbye to a peer (say_goodbye
  // marks it before posting the goodbye itself).
  if (peer.said_bye && hdr.kind != FragKind::kGoodbye) return;
  const bool sequenced =
      opts_.reliability && (hdr.flags & pml::kFlagControl) == 0;
  const std::size_t trailer = sequenced ? 4 : 0;
  std::vector<std::uint8_t> frame(sizeof(MatchHeader) + body_len + payload_len +
                                  trailer);
  MatchHeader h = hdr;
  // A goodbye to a peer whose stream a failure dropped carries no ack.
  if (peer.stream != nullptr) peer.stream->stamp_ack(h);
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

void PtlElan4::say_goodbye(Elan4Endpoint& peer) {
  // Marked before the post charge: a frame another fiber posts meanwhile
  // is refused rather than following the goodbye.
  peer.said_bye = true;
  MatchHeader bye;
  bye.kind = FragKind::kGoodbye;
  bye.flags = pml::kFlagControl;
  bye.src_gid = pml_.ctx().gid;
  bye.dst_gid = peer.gid;
  post_frame(peer, bye, nullptr, 0, nullptr, 0);
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
  if (Elan4Endpoint* peer = live_peer(hdr.src_gid))
    peer->stream->on_nack(static_cast<std::uint16_t>(hdr.cookie));
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
    ep = live_peer(gid);
    return ep == nullptr || !opts_.reliability ||
           ep->window_in_use() < opts_.send_window;
  };
  pml_.ctx().wait_until(wait_cadence(), sim::watched(&changed_, room),
                        wait_plan());
  return ep;
}

QdmaCmd PtlElan4::header_qdma(Vpid vpid, int queue,
                              const MatchHeader& hdr) const {
  QdmaCmd cmd;
  cmd.src_vpid = device_->vpid();
  cmd.dest_vpid = vpid;
  cmd.dest_queue = queue;
  cmd.data.resize(sizeof(MatchHeader));
  std::memcpy(cmd.data.data(), &hdr, sizeof(MatchHeader));
  return cmd;
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
  assert(total <= eager_limit() && "long messages ride the BML's schedule");
  if (opts_.use_dtype_engine) device_->compute(p.dtype_engine_startup_ns);

  // The whole payload rides the first QDMA from a send buffer.
  req.hdr.kind = FragKind::kEager;
  std::vector<std::uint8_t> payload(total);
  if (total > 0) {
    const double mbps =
        opts_.use_dtype_engine ? p.dtype_pack_mbps : p.host_memcpy_mbps;
    device_->compute(p.host_memcpy_startup_ns + ModelParams::xfer_ns(total, mbps));
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
    std::function<void(Status)> done;
    // Only a purge (peer death, halt) fails a deferred send: the event
    // reports the frame's injection, after which the QDMA is the NIC's.
    if (defer_completion)
      done = [this, &req](Status st) {
        if (st == Status::kErrProcFailed) return req.fail(st);
        pml_.send_progress(req, req.total_bytes());
      };
    // The recycle event fires on the frame's injection; attach it by
    // posting through the same path the descriptor would use.
    track(peer,
          defer_completion ? NicOp::State::kPending : NicOp::State::kRecycle,
          elan4::kNullE4Addr, std::move(done), nullptr, &recycle_event_);
  }
  post_frame(peer, req.hdr, nullptr, 0, payload.data(), payload.size());
  recycle_event_ = nullptr;
  // Buffered semantics: the user buffer is reusable once packed.
  if (!defer_completion) pml_.send_progress(req, total);
}

// ------------------------------------------------ BML striping hooks ----

std::uint64_t PtlElan4::stripe_expose(const void* base, std::size_t len) {
  return device_->map(const_cast<void*>(base), len);
}

void PtlElan4::stripe_unexpose(std::uint64_t region) {
  device_->unmap(static_cast<E4Addr>(region));
}

pml::RdvShape PtlElan4::rendezvous_shape() const {
  pml::RdvShape shape;
  shape.dtype_engine = opts_.use_dtype_engine;
  if (opts_.scheme == Scheme::kPipelined) return shape;
  shape.kind = opts_.scheme == Scheme::kRdmaRead ? pml::RdvShape::Kind::kRead
                                                 : pml::RdvShape::Kind::kWrite;
  // The prefix is clamped so the RTS fits one 2 KB slot.
  if (opts_.inline_rendezvous)
    shape.inline_cap = std::min<std::size_t>(
        eager_limit(), 2048 - sizeof(MatchHeader) - sizeof(pml::RdvBody));
  return shape;
}

std::uint64_t PtlElan4::track(const Elan4Endpoint& peer, NicOp::State state,
                               E4Addr dst_addr, std::function<void(Status)> done,
                               const MatchHeader* fin, E4Event** ev) {
  const std::uint64_t id = next_id_++;
  NicOp& op = ops_[id];
  op.event = device_->make_event("local-op");
  op.event->init(1);
  *ev = op.event.get();
  op.state = state;
  op.done = std::move(done);
  op.gid = peer.gid;
  op.dst_addr = dst_addr;
  if (fin != nullptr) {
    // The chained-event mechanism (§4.2): the NIC sends the FIN itself
    // once the data has moved, before the completion QDMA.
    if (opts_.chained_fin)
      (*ev)->chain(header_qdma(peer.vpid, peer.recv_queue, *fin));
    else
      op.fin = *fin;
  }
  if (state == NicOp::State::kPending) {
    ++pending_;
    changed_.notify();
  }
  if (opts_.completion == Completion::kDirectPoll) {
    polled_changed_.notify();
    return id;
  }
  // Chain a small QDMA to the descriptor that lands in our own queue — the
  // shared-completion-queue mechanism of Fig. 6.
  MatchHeader hdr;
  hdr.kind = FragKind::kComplete;
  hdr.flags = pml::kFlagControl;
  hdr.cookie = id;
  hdr.src_gid = hdr.dst_gid = pml_.ctx().gid;
  const elan4::QdmaQueue* q =
      opts_.completion == Completion::kSharedSeparate ? comp_q_ : recv_q_;
  (*ev)->chain(header_qdma(device_->vpid(), q->id(), hdr));
  return id;
}

std::uint64_t PtlElan4::stripe_pull(int gid, std::uint64_t region,
                                    std::size_t offset, void* dst,
                                    std::size_t len,
                                    std::function<void(Status)> done,
                                    const MatchHeader* fin) {
  Elan4Endpoint* peer = live_peer(gid);
  if (peer == nullptr) return 0;
  const E4Addr dst_addr = device_->map(dst, len);
  E4Event* ev = nullptr;
  const std::uint64_t id = track(*peer, NicOp::State::kPending, dst_addr,
                                 std::move(done), fin, &ev);
  tx_bytes_ += len;
  device_->rdma_read(peer->vpid, static_cast<E4Addr>(region) + offset,
                     dst_addr, static_cast<std::uint32_t>(len), ev);
  return id;
}

std::uint64_t PtlElan4::stripe_put(int gid, std::uint64_t region,
                                   std::uint64_t remote, std::size_t len,
                                   std::function<void(Status)> done,
                                   const MatchHeader* fin) {
  Elan4Endpoint* peer = live_peer(gid);
  if (peer == nullptr) return 0;
  E4Event* ev = nullptr;
  const std::uint64_t id = track(*peer, NicOp::State::kPending,
                                 elan4::kNullE4Addr, std::move(done), fin, &ev);
  tx_bytes_ += len;
  device_->rdma_write(peer->vpid, static_cast<E4Addr>(region),
                      static_cast<E4Addr>(remote),
                      static_cast<std::uint32_t>(len), ev);
  return id;
}

void PtlElan4::stripe_cancel(std::uint64_t pull_id) {
  auto it = ops_.find(pull_id);
  if (it == ops_.end() || it->second.state != NicOp::State::kPending) return;
  // Abandoned, not forgotten: the RDMA may still be in flight toward this
  // context, so the op keeps its event (still polled or chained) and
  // teardown waits for it unless the peer or the rail died (leave's
  // quiesce excuses those).
  retire(it->second, NicOp::State::kCancelled);
  changed_.notify();
}

void PtlElan4::bml_post(int gid, const MatchHeader& hdr, const void* body,
                        std::size_t body_len) {
  if (Elan4Endpoint* peer = live_peer(gid))
    post_frame(*peer, hdr, body, body_len, nullptr, 0);
}

void PtlElan4::handle_local_complete(std::uint64_t id) {
  // The one place an op leaves ops_, and only once its event triggered.
  auto it = ops_.find(id);
  if (it == ops_.end() || !it->second.event->done()) return;
  NicOp op = std::move(it->second);
  ops_.erase(it);
  if (op.state == NicOp::State::kRecycle) {
    // A 2KB send buffer returned to the pool.
    OQS_METRIC_INC("ptl.sendbuf.recycled");
    return;
  }
  OQS_TRACE_INSTANT(node_, "ptl", "local_complete", "cookie", id);
  if (op.state == NicOp::State::kCancelled) changed_.notify();
  if (op.state != NicOp::State::kPending) return;
  --pending_;
  changed_.notify();
  // Unchained: the host posts the FIN first, then tidies up.
  if (op.fin) bml_post(op.gid, *op.fin, nullptr, 0);
  if (op.dst_addr != elan4::kNullE4Addr) device_->unmap(op.dst_addr);
  // The event's status: an RDMA that touched an unmapped region faulted.
  if (op.done) op.done(op.event->status());
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
  // it (on every rail) — a goodbye too, which can overtake the peer's first
  // frame on another rail — and a first fragment from a peer we thought was
  // gone means it migrated or rejoined, so its fresh contact is fetched.
  // Both happen before the reliability gate, so the frame is admitted on the
  // new stream.
  if (hdr.src_gid != pml_.ctx().gid) {
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
      auto frag = std::make_unique<pml::FirstFrag>();
      frag->hdr = hdr;
      frag->ptl = this;
      std::size_t off = sizeof(MatchHeader);
      if (hdr.kind == FragKind::kRendezvous) {
        pml::RdvBody body;
        std::memcpy(&body, slot.data.data() + off, sizeof(body));
        off += sizeof(body);
        frag->region = body.region;
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
      pml::CtsBody body;
      std::memcpy(&body, slot.data.data() + sizeof(MatchHeader), sizeof(body));
      pml_.bml().handle_cts(*this, hdr, body);
      break;
    }
    case FragKind::kFin:
      pml_.bml().handle_put_fin(hdr);
      break;
    case FragKind::kStripeFin:
      pml_.bml().handle_stripe_fin(hdr.cookie, hdr.aux,
                                   static_cast<Status>(hdr.status));
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
      if (hdr.src_gid == pml_.ctx().gid) {
        // A self-goodbye only wakes a blocked reader (wake, finalize).
        --nudges_;
        break;
      }
      if (auto it = peers_.find(hdr.src_gid); it != peers_.end()) {
        changed_.notify();
        if (it->second.hear_bye()) say_goodbye(it->second);  // answer it
      }
      break;
    default:
      log::warn(name_, "unexpected frame kind ", static_cast<int>(hdr.kind));
      OQS_METRIC_INC("ptl.frames.unknown_kind");
      break;
  }
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
  // The first polled op with an id >= `id`.
  auto polled_from = [this](std::uint64_t id) {
    auto it = ops_.lower_bound(id);
    while (it != ops_.end() && !it->second.polled()) ++it;
    return it;
  };
  auto it = polled_from(0);
  for (; it != ops_.end() && first > 0; --first) it = polled_from(it->first + 1);
  std::vector<std::uint64_t> ready;
  // charge_poll() suspends this fiber while the CPU cost is charged, and
  // other fibers (the BML stripe watchdog re-issuing or cancelling pulls)
  // change ops_ in that window — so never hold an iterator across it: the
  // op to probe is found again by id after each charge.
  for (; it != ops_.end(); paid = false) {
    const std::uint64_t id = it->first;
    if (!paid) device_->charge_poll();
    it = polled_from(id);
    if (it == ops_.end()) break;  // nothing left to probe
    if (it->second.event->done()) {
      it->second.reaped = true;
      ready.push_back(it->first);
    }
    it = polled_from(it->first + 1);
  }
  if (!ready.empty()) polled_changed_.notify();
  for (std::uint64_t id : ready) handle_local_complete(id);
  return static_cast<int>(ready.size());
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
  if (!w.watch(&polled_changed_)) return -1;
  for (const auto& [id, op] : ops_) {
    if (!op.polled()) continue;
    if (!w.watch(&op.event->signal())) return -1;
    ++points;
  }
  return points;
}

bool PtlElan4::quiet() const {
  for (const elan4::QdmaQueue* q : {recv_q_, comp_q_})
    if (q != nullptr && q->has_pending()) return false;
  if (opts_.completion != Completion::kDirectPoll) return true;
  for (const auto& [id, op] : ops_)
    if (op.polled() && op.event->done()) return false;
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
  // A thread leaves once it has read finalize's stop nudge from its queue
  // (so nothing addressed to the queue is still in flight at close), or
  // when the host dies.
  auto loop = [this, spin_ns, &engine](elan4::QdmaQueue* q, bool spin) {
    elan4::QdmaQueue::Slot slot;
    bool stop = false;
    auto serve = [&] {
      while (!stop && device_->queue_poll(q, &slot)) {
        stop = is_stop_nudge(slot.data, pml_.ctx().gid);
        handle_frame(std::move(slot));
      }
    };
    while (!stop && !halted_) {
      device_->queue_wait(q);
      // Fixed spin window from the wakeup: follow-up events of the exchange
      // just handled are caught by polling; then the thread re-blocks and
      // the next inbound message pays one interrupt.
      const sim::Time woke = engine.now();
      do serve();
      while (spin && !stop && !halted_ && engine.now() - woke < spin_ns);
    }
    live_threads_ = live_threads_ - 1;
  };
  engine.spawn("elan4-progress", [loop, this] { loop(recv_q_, true); });
  // The dedicated completion-queue thread blocks per event: every local
  // DMA completion it serves costs a full interrupt wakeup.
  if (opts_.progress == Progress::kTwoThreads)
    engine.spawn("elan4-completion", [loop, this] { loop(comp_q_, false); });
}

void PtlElan4::nudge(std::uint64_t cookie) {
  MatchHeader hdr;
  hdr.kind = FragKind::kGoodbye;
  hdr.flags = pml::kFlagControl;
  hdr.cookie = cookie;
  hdr.src_gid = hdr.dst_gid = pml_.ctx().gid;
  // Only a progress thread blocks on the completion queue.
  const bool both = comp_q_ != nullptr && threaded();
  // Counted before the post charges: teardown reads every nudge back
  // before it closes the queues.
  nudges_ += both ? 2 : 1;
  std::vector<std::uint8_t> frame(sizeof(MatchHeader));
  std::memcpy(frame.data(), &hdr, sizeof(MatchHeader));
  device_->post_qdma(device_->vpid(), recv_q_->id(), frame);
  if (both) device_->post_qdma(device_->vpid(), comp_q_->id(), frame);
}

bool PtlElan4::excused(int gid) {
  // Ourselves, the dead-set, and every peer once the rail's links are down
  // (nothing crosses a dead rail, goodbyes included).
  return pml_.excused(gid) || net_.fabric().rail_dead(rail_);
}

void PtlElan4::say_goodbyes() {
  for (auto& [gid, peer] : peers_)
    if (!peer.said_bye && !excused(gid)) say_goodbye(peer);
}

void PtlElan4::leave() {
  if (left_) return;
  left_ = true;
  const sim::ProcessCtx& host = pml_.ctx();

  // Quiesce: pending messages must complete before teardown (§4.1), so no
  // leftover DMA descriptor can regenerate traffic. Stripe pulls count: the
  // BML cancels the doomed ones before it lets the rails finalize, and a
  // cancelled one still lands here unless its peer or the rail died.
  auto quiet = [this] {
    return !active() && std::all_of(ops_.begin(), ops_.end(), [this](auto& e) {
      return e.second.state != NicOp::State::kCancelled ||
             excused(e.second.gid);
    });
  };
  host.wait_until(wait_cadence(), sim::watched(&changed_, quiet), wait_plan(),
                  sim::watched(pml_.abort_signal, quiet));

  if (opts_.reliability) {
    // Acknowledge everything received so peers can prune and leave too,
    // then wait for our own outstanding frames to be acknowledged (the
    // retransmission timer keeps recovering losses meanwhile). Without
    // this, a dropped final FIN would strand the other side forever.
    flush_acks();
    auto settled = [this] {
      return std::none_of(peers_.begin(), peers_.end(), [](const auto& e) {
        return e.second.alive && e.second.window_in_use() > 0;
      });
    };
    host.wait_until(wait_cadence(), sim::watched(&changed_, settled),
                    wait_plan());
  }
  say_goodbyes();
}

void PtlElan4::finalize() {
  if (finalized_) return;
  leave();
  finalized_ = true;
  const sim::ProcessCtx& host = pml_.ctx();

  // Close once every peer leave() said goodbye to has said goodbye back
  // (pml/endpoint.h). A peer first heard from meanwhile is owed one too,
  // hence the loop.
  auto excused = [this](int gid) { return this->excused(gid); };
  for (;;) {
    const pml::Leave s = pml::leave_state(peers_, excused);
    if (s == pml::Leave::kSay) {
      say_goodbyes();
      continue;
    }
    // Unthreaded, the nudges posted so far must be read back first.
    if (s == pml::Leave::kDone && (threaded() || nudges_ == 0)) break;
    if (threaded()) {
      // The progress threads read the goodbyes; a dead-set change (the
      // abort signal) excuses a peer that will never send one.
      auto moved = [&] { return pml::leave_state(peers_, excused) != s; };
      host.wait_until(sim::Cadence::kThreaded, sim::watched(&changed_, moved),
                      nullptr, sim::watched(pml_.abort_signal, moved));
      continue;
    }
    // Block on the receive queue's interrupt, then read everything that
    // landed in one pass: one poll, as the ring's producer index says how
    // many slots are new. A dead-set change arrives as a wake() nudge.
    device_->queue_wait(recv_q_);
    device_->charge_poll();
    for (elan4::QdmaQueue::Slot slot; recv_q_->consume(&slot);)
      handle_frame(std::move(slot));
  }

  if (threaded()) {
    stopping_ = true;
    nudge(kStopCookie);
    host.wait_until(sim::Cadence::kThreadExit,
                    sim::watched(&live_threads_.signal(),
                                 [this] { return live_threads_ == 0; }));
  }
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
  // Fail what is in flight toward the dead peer: the completions and FINs
  // it would take part in can never arrive.
  purge([gid](const NicOp& op) { return op.gid == gid; });
}

void PtlElan4::purge(const std::function<bool(const NicOp&)>& doomed) {
  // Callbacks run last: one may cancel or purge other entries.
  std::vector<std::function<void(Status)>> fail;
  for (auto& [id, op] : ops_) {
    if (op.state != NicOp::State::kPending || !doomed(op)) continue;
    fail.push_back(retire(op, NicOp::State::kPurged));
    OQS_METRIC_INC("ptl.failure.ops_purged");
  }
  changed_.notify();
  polled_changed_.notify();
  for (auto& done : fail)
    if (done) done(Status::kErrProcFailed);
}

std::function<void(Status)> PtlElan4::retire(NicOp& op, NicOp::State state) {
  if (op.state == NicOp::State::kPending) --pending_;
  op.state = state;
  op.fin.reset();
  if (op.dst_addr != elan4::kNullE4Addr) device_->unmap(op.dst_addr);
  op.dst_addr = elan4::kNullE4Addr;
  return std::exchange(op.done, nullptr);
}

void PtlElan4::wake() {
  if (halted_ || stopping_ || device_->closed()) return;
  // A self-addressed goodbye is the "wake a blocked reader" nudge: it
  // lands in the receive queue, queue_wait returns, and handle_frame
  // discards it (src == self). Teardown's wait takes it too, to re-read
  // the dead-set.
  nudge();
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
  // The BML halted first, so only eager sends' callbacks still act.
  purge([](const NicOp&) { return true; });
  // Endpoints are retired, never erased: a timer walk suspended mid-map
  // (it charges while posting) must find its iterator still valid.
  for (auto& [gid, peer] : peers_) peer.alive = false;
  changed_.notify();
}

}  // namespace oqs::ptl_elan4
