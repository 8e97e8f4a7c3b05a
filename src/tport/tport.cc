#include "tport/tport.h"

#include <cassert>
#include <cstring>

#include "base/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace oqs::tport {

using elan4::Vpid;

Tport::Tport(TportDomain& domain, int node) : domain_(domain), node_(node) {
  device_ = domain_.net_.open(node);
  assert(device_ && "no free Elan4 context for Tport");
  domain_.ports_[device_->vpid()] = this;
}

Tport::~Tport() {
  domain_.ports_.erase(device_->vpid());
  device_->close();
}

bool Tport::try_match(PostedRecv& pr, Vpid src, std::uint64_t tag) const {
  if (pr.src != kAnyVpid && pr.src != src) return false;
  return (tag & pr.mask) == (pr.tag & pr.mask);
}

void Tport::reap(const void* keep) {
  std::erase_if(tx_reqs_, [keep](const std::unique_ptr<TxReq>& t) {
    return t.get() != keep && t->done && t->harvested;
  });
  std::erase_if(rx_reqs_, [keep](const std::unique_ptr<RxReq>& r) {
    return r.get() != keep && r->done && r->harvested;
  });
}

Tport::TxReq* Tport::send(Vpid dst, std::uint64_t tag, const void* buf,
                          std::size_t len) {
  elan4::QsNet& net = domain_.net_;
  const ModelParams& p = net.params();
  reap(nullptr);
  OQS_TRACE_SPAN(span_, node_, "tport", "send", "len", len);
  OQS_METRIC_INC("tport.tx_msgs");
  OQS_METRIC_ADD("tport.tx_bytes", len);
  device_->compute(p.tport_cmd_ns);

  tx_reqs_.push_back(std::make_unique<TxReq>());
  TxReq* tx = tx_reqs_.back().get();

  if (!net.capability().is_live(dst)) {
    log::warn("tport", "send to dead vpid ", dst);
    tx->failed = true;  // hardware completes the descriptor with an error
    tx->done = true;
    return tx;
  }
  Tport* peer = nullptr;
  if (auto it = domain_.ports_.find(dst); it != domain_.ports_.end())
    peer = it->second;
  if (peer == nullptr) {
    log::warn("tport", "no Tport registered for vpid ", dst);
    tx->failed = true;
    tx->done = true;
    return tx;
  }

  const std::uint64_t msg_id =
      (static_cast<std::uint64_t>(device_->vpid()) << 40) | next_msg_id_++;
  const int dst_node = net.node_of(dst);
  elan4::Elan4Nic& nic = device_->nic();
  const char* src_bytes = static_cast<const char*>(buf);
  const Vpid my_vpid = device_->vpid();
  const int my_node = node_;
  elan4::QsNet* netp = &net;

  // Eager messages complete at the source once injected; only large
  // messages tie the sender's flag to the delivery ack.
  const bool eager = len <= kTportEagerMax;
  TxReq* remote_flag = eager ? nullptr : tx;

  // Fragment; the NIC streams the whole message without host round trips —
  // the pipelining that gives Tport its mid-range bandwidth edge.
  std::size_t off = 0;
  bool first = true;
  sim::Time earliest = net.engine().now();
  do {
    const std::size_t room = p.mtu - kTportHeaderBytes;
    const std::size_t frag = std::min(room, len - off);
    const bool last = off + frag >= len;
    const sim::Time startup = first ? p.nic_qdma_start_ns : p.nic_frag_ns;
    // The Tport engine is NIC firmware sharing the card's DMA engines, and
    // it cuts fragments through: headers leave after startup while payloads
    // stream — the single-message pipelining the paper credits for
    // MPICH-QsNetII's mid-range bandwidth (§6.5).
    const sim::Time inject_at = nic.tx_engine_mut().reserve_cut_through(
        earliest, startup + ModelParams::xfer_ns(frag + kTportHeaderBytes, p.pci_mbps),
        startup);
    earliest = inject_at;

    const std::uint64_t frag_off = off;
    const bool frag_first = first;
    TxReq* local_done = last && eager ? tx : nullptr;
    net.engine().schedule_at(inject_at, [netp, peer, my_vpid, my_node, dst_node,
                                         msg_id, tag, len, frag, frag_off,
                                         frag_first, last, src_bytes, local_done,
                                         tx = remote_flag]() {
      std::vector<std::uint8_t> payload(frag);
      if (frag > 0) std::memcpy(payload.data(), src_bytes + frag_off, frag);
      // Local completion: the NIC has consumed the host buffer. Only now may
      // the sender see it and reuse the buffer.
      if (local_done != nullptr) local_done->done = true;
      netp->fabric().transmit(
          my_node, dst_node, static_cast<std::uint32_t>(frag) + kTportHeaderBytes,
          [peer, msg_id, my_vpid, my_node, tag, len, frag_off, frag_first, last,
           payload = std::move(payload), tx]() mutable {
            peer->rx_fragment(msg_id, my_vpid, my_node, tag, len, frag_off,
                              std::move(payload), frag_first, last, tx);
          });
    });
    off += frag;
    first = false;
  } while (off < len);

  return tx;
}

Tport::RxReq* Tport::recv(Vpid src, std::uint64_t tag, std::uint64_t tag_mask,
                          void* buf, std::size_t capacity) {
  const ModelParams& p = domain_.net_.params();
  reap(nullptr);
  OQS_TRACE_SPAN(span_, node_, "tport", "recv_post", "cap", capacity);
  OQS_METRIC_INC("tport.rx_posted");
  device_->compute(p.tport_cmd_ns);

  rx_reqs_.push_back(std::make_unique<RxReq>());
  RxReq* rx = rx_reqs_.back().get();
  PostedRecv pr{rx, src, tag, tag_mask, static_cast<char*>(buf), capacity};

  // NIC checks the unexpected store first (completed or still inbound).
  for (auto it = unexpected_.begin(); it != unexpected_.end(); ++it) {
    if (it->claimed_by != nullptr) continue;
    if (!try_match(pr, it->src, it->tag)) continue;
    if (it->complete) {
      const std::size_t take = std::min(capacity, it->data.size());
      device_->charge_copy(take);  // drain bounce buffer into the user buffer
      if (take > 0) std::memcpy(buf, it->data.data(), take);
      rx->done = true;
      rx->len = take;
      rx->src = it->src;
      rx->tag = it->tag;
      rx->truncated = it->data.size() > capacity;
      unexpected_bytes_ -= it->data.size();
      unexpected_.erase(it);
    } else {
      // Message still streaming in: claim it; completion copies it over.
      it->claimed_by = rx;
      it->claimed_buf = static_cast<char*>(buf);
      it->claimed_cap = capacity;
    }
    return rx;
  }

  posted_.push_back(pr);
  return rx;
}

void Tport::rx_fragment(std::uint64_t msg_id, Vpid src, int src_node,
                        std::uint64_t tag, std::size_t total, std::uint64_t offset,
                        std::vector<std::uint8_t> payload, bool first, bool last,
                        TxReq* tx_done) {
  elan4::QsNet& net = domain_.net_;
  const ModelParams& p = net.params();
  elan4::Elan4Nic& nic = device_->nic();

  sim::Time visible = p.nic_frag_ns;
  if (first) visible += p.nic_tport_match_ns;  // NIC-side tag match
  const sim::Time done = nic.rx_engine_mut().reserve_cut_through(
      net.engine().now(),
      visible + ModelParams::xfer_ns(payload.size(), p.pci_mbps), visible);

  net.engine().schedule_at(done, [this, msg_id, src, src_node, tag, total, offset,
                                  payload = std::move(payload), first,
                                  last, tx_done]() mutable {
    if (first) {
      Inbound in;
      in.src = src;
      in.src_node = src_node;
      in.tag = tag;
      in.total = total;
      in.tx_done = tx_done;
      // Match against the NIC-resident posted-receive list.
      for (auto it = posted_.begin(); it != posted_.end(); ++it) {
        if (try_match(*it, src, tag)) {
          in.matched = *it;
          in.is_matched = true;
          posted_.erase(it);
          break;
        }
      }
      OQS_TRACE_INSTANT(node_, "tport",
                        in.is_matched ? "nic_match.hit" : "nic_match.miss",
                        "len", total);
      if (!in.is_matched) {
        OQS_METRIC_INC("tport.unexpected");
        unexpected_.push_back(Unexpected{src, tag, std::vector<std::uint8_t>(total),
                                         false, nullptr, nullptr, 0});
        in.unex = std::prev(unexpected_.end());
        unexpected_bytes_ += total;
      }
      inbound_.emplace(msg_id, std::move(in));
    }
    auto iit = inbound_.find(msg_id);
    if (iit == inbound_.end()) {
      log::warn("tport", "fragment for unknown message ", msg_id);
      return;
    }
    Inbound& in = iit->second;
    if (!payload.empty()) {
      if (in.is_matched) {
        // Land directly in the user buffer (true zero-copy delivery).
        const std::size_t cap = in.matched.capacity;
        if (offset < cap) {
          const std::size_t take = std::min(payload.size(), cap - offset);
          std::memcpy(in.matched.buf + offset, payload.data(), take);
        }
      } else {
        std::memcpy(in.unex->data.data() + offset, payload.data(), payload.size());
      }
    }
    in.received += payload.size();
    if (last) {
      assert(in.received == in.total);
      finish_inbound(in);
      inbound_.erase(iit);
    }
  });
}

void Tport::finish_inbound(Inbound& in) {
  elan4::QsNet& net = domain_.net_;
  OQS_METRIC_INC("tport.rx_msgs");
  OQS_METRIC_ADD("tport.rx_bytes", in.total);
  OQS_TRACE_INSTANT(node_, "tport", "rx_complete", "len", in.total);
  if (in.is_matched) {
    RxReq* rx = in.matched.req;
    rx->len = std::min(in.total, in.matched.capacity);
    rx->src = in.src;
    rx->tag = in.tag;
    rx->truncated = in.total > in.matched.capacity;
    rx->done = true;
  } else if (in.unex->claimed_by != nullptr) {
    Unexpected& u = *in.unex;
    RxReq* rx = u.claimed_by;
    const std::size_t take = std::min(u.claimed_cap, u.data.size());
    // The NIC drains the bounce buffer into the user buffer itself (this
    // runs in NIC context, so the cost lands on the rx engine, not a core).
    device_->nic().rx_engine_mut().reserve(
        domain_.net_.engine().now(),
        ModelParams::xfer_ns(take, domain_.net_.params().pci_mbps));
    if (take > 0) std::memcpy(u.claimed_buf, u.data.data(), take);
    rx->len = take;
    rx->src = u.src;
    rx->tag = u.tag;
    rx->truncated = u.data.size() > u.claimed_cap;
    rx->done = true;
    unexpected_bytes_ -= u.data.size();
    unexpected_.erase(in.unex);
  } else {
    in.unex->complete = true;
  }
  // Network-level completion ack back to the sender's flag.
  if (in.tx_done != nullptr) {
    TxReq* tx = in.tx_done;
    net.fabric().transmit(node_, in.src_node, elan4::kRdmaAckBytes,
                          [tx] { tx->done = true; });
  }
}

void Tport::peer_failed(Vpid dead) {
  OQS_METRIC_INC("tport.peer_failures");
  std::size_t failed = 0;
  for (auto it = posted_.begin(); it != posted_.end();) {
    if (it->src == dead) {
      it->req->failed = true;
      it->req->done = true;
      it = posted_.erase(it);
      ++failed;
    } else {
      ++it;
    }
  }
  // Half-streamed messages from the corpse never see their remaining
  // fragments: fail a matched receiver, release an unexpected bounce
  // buffer, and forget the reassembly state either way.
  for (auto iit = inbound_.begin(); iit != inbound_.end();) {
    Inbound& in = iit->second;
    if (in.src != dead) {
      ++iit;
      continue;
    }
    if (in.is_matched) {
      in.matched.req->failed = true;
      in.matched.req->done = true;
      ++failed;
    } else {
      if (in.unex->claimed_by != nullptr) {
        in.unex->claimed_by->failed = true;
        in.unex->claimed_by->done = true;
        ++failed;
      }
      unexpected_bytes_ -= in.unex->data.size();
      unexpected_.erase(in.unex);
    }
    iit = inbound_.erase(iit);
  }
  if (failed > 0) {
    OQS_METRIC_ADD("tport.rx_failed", failed);
    log::warn("tport", "vpid ", device_->vpid(), ": peer ", dead,
              " failed; errored ", failed, " receive(s)");
  }
}

}  // namespace oqs::tport
