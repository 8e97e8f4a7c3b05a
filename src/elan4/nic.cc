#include "elan4/nic.h"

#include <cassert>
#include <cstring>
#include <memory>
#include <utility>

#include "base/log.h"
#include "elan4/event.h"
#include "elan4/qsnet.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace oqs::elan4 {

namespace {
constexpr const char* kLaterDropsCounted =
    " (later QDMA drops on this NIC are counted in elan4.nic.rx_drops and "
    "elan4.nic.dead_vpid_drops, not logged)";
}  // namespace

Elan4Nic::Elan4Nic(QsNet& net, int node, int rail)
    : net_(net), node_(node), rail_(rail) {}

sim::Engine& Elan4Nic::engine() { return net_.engine(); }
const ModelParams& Elan4Nic::params() const { return net_.params(); }
sim::Node* Elan4Nic::host_node() { return &net_.node(node_); }

void Elan4Nic::submit(Command cmd) {
  ++commands_;
  OQS_METRIC_INC("elan4.nic.commands");
  process(std::move(cmd));
}

void Elan4Nic::submit_chained(Command cmd) {
  ++commands_;
  OQS_METRIC_INC("elan4.nic.commands");
  OQS_METRIC_INC("elan4.nic.chained_commands");
  if (auto* q = std::get_if<QdmaCmd>(&cmd)) q->preloaded = true;
  process(std::move(cmd));
}

void Elan4Nic::process(Command&& cmd) {
  std::visit(
      [this](auto&& c) {
        using T = std::decay_t<decltype(c)>;
        if constexpr (std::is_same_v<T, QdmaCmd>)
          do_qdma(std::move(c));
        else if constexpr (std::is_same_v<T, RdmaWriteCmd>)
          do_rdma_write(std::move(c));
        else if constexpr (std::is_same_v<T, RdmaReadCmd>)
          do_rdma_read(std::move(c));
        else
          do_hw_bcast(std::move(c));
      },
      std::move(cmd));
}

QdmaQueue* Elan4Nic::create_queue(std::uint32_t slot_size, std::uint32_t num_slots) {
  const int id = next_queue_id_++;
  auto q = std::make_unique<QdmaQueue>(engine(), params(), &net_.node(node_), id,
                                       slot_size, num_slots);
  QdmaQueue* raw = q.get();
  queues_.emplace(id, std::move(q));
  return raw;
}

Status Elan4Nic::destroy_queue(int id) {
  return queues_.erase(id) > 0 ? Status::kOk : Status::kNotFound;
}

QdmaQueue* Elan4Nic::find_queue(int id) {
  auto it = queues_.find(id);
  return it == queues_.end() ? nullptr : it->second.get();
}

// ---------------------------------------------------------------- QDMA ----

void Elan4Nic::do_qdma(QdmaCmd&& cmd) {
  const ModelParams& p = params();
  if (cmd.src_addr != kNullE4Addr && cmd.src_len > 0) {
    // NIC-read payload (collective descriptors): the DMA engine pulls the
    // bytes from the issuing context's memory when it processes the
    // descriptor, so chained descriptors ship data produced after they were
    // attached. Snapshot here — descriptor-processing time — which is also
    // what makes the combining-tree slot recycling race-free (the slot is
    // reused only a full round after the descriptor ran).
    Status st = Status::kOk;
    const void* host = mmu(net_.context_of(cmd.src_vpid))
                           .translate(cmd.src_addr, cmd.src_len, &st);
    if (!ok(st)) {
      ++translation_faults_;
      OQS_METRIC_INC("elan4.nic.translation_faults");
      E4Event* ev = cmd.local_event;
      const sim::Time done = tx_.reserve(engine().now(), p.nic_qdma_start_ns);
      if (ev != nullptr)
        engine().schedule_at(done, [ev] { ev->fire(Status::kFault); });
      return;
    }
    cmd.data.resize(cmd.src_len);
    std::memcpy(cmd.data.data(), host, cmd.src_len);
  }
  const std::uint32_t len = static_cast<std::uint32_t>(cmd.data.size());
  // Cut-through: the header leaves after descriptor startup while the
  // payload streams behind it; the engine stays busy for the PCI read.
  // Chained (NIC-resident) descriptors skip the host fetch.
  const sim::Time startup =
      cmd.preloaded ? p.nic_chain_fire_ns : p.nic_qdma_start_ns;
  const sim::Time inject_at = tx_.reserve_cut_through(
      engine().now(), startup + ModelParams::xfer_ns(len, p.pci_mbps), startup);

  const sim::Time posted_at = engine().now();
  engine().schedule_at(inject_at, [this, cmd = std::move(cmd), len,
                                   posted_at]() mutable {
    // Local completion: the NIC has read the host buffer and injected.
    OQS_TRACE_SPAN_FROM(posted_at, node_, "elan4", "qdma.inject", "len", len,
                        "dst_vpid", static_cast<std::uint64_t>(cmd.dest_vpid));
    OQS_METRIC_INC("elan4.qdma.posted");
    OQS_METRIC_ADD("elan4.qdma.tx_bytes", len);
    if (cmd.local_event != nullptr) cmd.local_event->fire();
    if (!net_.capability().is_live(cmd.dest_vpid)) {
      ++rx_drops_;
      OQS_METRIC_INC("elan4.nic.dead_vpid_drops");
      if (!std::exchange(drop_logged_, true))
        log::warn("elan4", "QDMA to dead vpid ", cmd.dest_vpid, " dropped",
                  kLaterDropsCounted);
      return;
    }
    const int dst_node = net_.node_of(cmd.dest_vpid);
    Elan4Nic* dst = &net_.nic(dst_node, rail_);
    const Vpid src = cmd.src_vpid;
    const int queue_id = cmd.dest_queue;
    const auto cls = cmd.lossy ? net::Delivery::kLossy : net::Delivery::kGuaranteed;
    if (cmd.remote_event_index >= 0 || cmd.dest_addr != kNullE4Addr) {
      // Collective delivery: land in context memory / fire the indexed
      // event, bypassing the host receive queues entirely.
      const ContextId dst_ctx = net_.context_of(cmd.dest_vpid);
      const E4Addr dest_addr = cmd.dest_addr;
      const bool combine = cmd.combine;
      const int ev_idx = cmd.remote_event_index;
      net_.fabric().transmit(
          node_, dst_node, len + kQdmaWireHeader,
          [dst, dst_ctx, dest_addr, combine, ev_idx,
           data = std::move(cmd.data)]() mutable {
            dst->rx_coll_qdma(dst_ctx, dest_addr, combine, ev_idx,
                              std::move(data));
          },
          rail_, cls);
      return;
    }
    net_.fabric().transmit(
        node_, dst_node, len + kQdmaWireHeader,
        [dst, src, queue_id, data = std::move(cmd.data)]() mutable {
          dst->rx_qdma(src, queue_id, std::move(data));
        },
        rail_, cls);
  });
}

void Elan4Nic::rx_qdma(Vpid src, int queue_id, std::vector<std::uint8_t> data) {
  const ModelParams& p = params();
  // Cut-through on the way to the host, too: the slot is visible after the
  // fixed write cost; the PCI-X transfer paces back-to-back arrivals.
  const sim::Time done = rx_.reserve_cut_through(
      engine().now(),
      p.nic_slot_write_ns + ModelParams::xfer_ns(data.size(), p.pci_mbps),
      p.nic_slot_write_ns);
  // Fault injection: payload bytes may arrive flipped (headers protected so
  // the upper layer can still attribute the damage).
  net_.maybe_corrupt(data, /*protect_prefix=*/96);
  engine().schedule_at(done, [this, src, queue_id, data = std::move(data)]() mutable {
    OQS_METRIC_ADD("elan4.qdma.rx_bytes", data.size());
    QdmaQueue* q = find_queue(queue_id);
    if (q == nullptr) {
      ++rx_drops_;
      OQS_METRIC_INC("elan4.nic.rx_drops");
      if (!std::exchange(drop_logged_, true))
        log::warn("elan4", "QDMA for unknown queue ", queue_id, " on node ",
                  node_, " dropped", kLaterDropsCounted);
      return;
    }
    q->post(src, std::move(data));
  });
}

void Elan4Nic::rx_coll_qdma(ContextId ctx, E4Addr dest_addr, bool combine,
                            int event_index, std::vector<std::uint8_t> data) {
  const ModelParams& p = params();
  // The NIC processor combines (or lands) the payload itself: startup plus
  // a per-byte rate well below the PCI stream rate — the firmware-reduction
  // cost of the NIC-based collective protocol. No payload corruption here:
  // these frames ride the link-level-protected class like RDMA control
  // traffic (the protocol has no software retransmission to recover with).
  const sim::Time svc =
      data.empty() ? p.nic_event_fire_ns
                   : p.nic_combine_startup_ns +
                         ModelParams::xfer_ns(data.size(), p.nic_combine_mbps);
  const sim::Time done = rx_.reserve(engine().now(), svc);
  engine().schedule_at(done, [this, ctx, dest_addr, combine, event_index,
                              data = std::move(data)]() mutable {
    OQS_METRIC_ADD("elan4.coll.rx_bytes", data.size());
    if (!data.empty() && dest_addr != kNullE4Addr) {
      Status st = Status::kOk;
      void* host = mmu(ctx).translate(dest_addr, data.size(), &st);
      if (!ok(st)) {
        ++translation_faults_;
        OQS_METRIC_INC("elan4.nic.translation_faults");
        return;  // no landing, no completion: the host fallback's job
      }
      if (combine) {
        // Element-wise double-precision sum into the accumulator.
        const std::size_t n = data.size() / sizeof(double);
        auto* acc = static_cast<double*>(host);
        double v;
        for (std::size_t i = 0; i < n; ++i) {
          std::memcpy(&v, data.data() + i * sizeof(double), sizeof(double));
          acc[i] += v;
        }
        OQS_METRIC_INC("elan4.coll.combines");
      } else {
        std::memcpy(host, data.data(), data.size());
      }
    }
    if (event_index >= 0) {
      E4Event* ev = event_at(ctx, event_index);
      if (ev != nullptr) {
        ev->fire();
      } else {
        ++rx_drops_;
        OQS_METRIC_INC("elan4.nic.rx_drops");
      }
    }
  });
}

// ---------------------------------------------------------- RDMA train ----

template <typename OnLastInject>
void Elan4Nic::rdma_train(Elan4Nic* dst, ContextId dst_ctx, E4Addr dst_addr,
                          const char* src_host, std::uint32_t len,
                          sim::Time first_startup, E4Event* remote_event,
                          E4Event* ack_event, OnLastInject on_last_inject) {
  const ModelParams& p = params();
  // Fragment to the MTU. Each fragment: PCI read of host memory by the tx
  // engine, then wire injection. The payload is snapshotted at injection
  // time, matching when real hardware reads the host buffer.
  auto fault_seen = std::make_shared<bool>(false);
  std::uint32_t remaining = len;
  std::uint64_t offset = 0;
  sim::Time startup = p.nic_frag_ns + first_startup;
  sim::Time earliest = engine().now();
  while (remaining > 0) {
    const std::uint32_t frag = remaining < p.mtu ? remaining : p.mtu;
    remaining -= frag;
    const bool last = remaining == 0;
    // Cut-through injection: the fragment header leaves after startup while
    // the payload streams off the host over PCI-X behind it.
    const sim::Time inject_at = tx_.reserve_cut_through(
        earliest, startup + ModelParams::xfer_ns(frag, p.pci_mbps), startup);
    earliest = inject_at;
    startup = p.nic_frag_ns;

    engine().schedule_at(inject_at, [this, dst, dst_addr, src_host, offset,
                                     remote_event, ack_event, fault_seen,
                                     dst_ctx, frag, last, on_last_inject]() {
      // Read stream-backs cross the wire as RDMA payload too, so they enter
      // the same tx/rx byte counters as writes (conservation holds across
      // schemes).
      OQS_METRIC_ADD("elan4.rdma.tx_bytes", frag);
      if (last) on_last_inject();
      std::vector<std::uint8_t> data(frag);
      std::memcpy(data.data(), src_host + offset, frag);
      net_.fabric().transmit(
          node_, dst->node(), frag + kRdmaWireHeader,
          [dst, dst_ctx, dst_addr, offset, last, remote_event, ack_node = node_,
           fault_seen, ack_event, data = std::move(data)]() mutable {
            dst->rx_rdma_payload(dst_ctx, dst_addr, offset, std::move(data), last,
                                 remote_event, ack_node, fault_seen, ack_event);
          },
          rail_);
    });
    offset += frag;
  }
}

// ---------------------------------------------------------- RDMA write ----

void Elan4Nic::do_rdma_write(RdmaWriteCmd&& cmd) {
  const ModelParams& p = params();
  const ContextId src_ctx = net_.context_of(cmd.src_vpid);

  Status st = Status::kOk;
  char* src_host = nullptr;
  if (cmd.len > 0) {
    src_host = static_cast<char*>(mmu(src_ctx).translate(cmd.src, cmd.len, &st));
    if (!ok(st)) {
      ++translation_faults_;
      const sim::Time done = tx_.reserve(engine().now(), p.nic_rdma_start_ns);
      E4Event* ev = cmd.local_event;
      if (ev != nullptr)
        engine().schedule_at(done, [ev] { ev->fire(Status::kFault); });
      return;
    }
  }

  if (!net_.capability().is_live(cmd.dest_vpid)) {
    ++rx_drops_;
    E4Event* ev = cmd.local_event;
    if (ev != nullptr)
      engine().schedule(p.nic_rdma_start_ns, [ev] { ev->fire(Status::kUnreachable); });
    return;
  }

  const int dst_node = net_.node_of(cmd.dest_vpid);
  const ContextId dst_ctx = net_.context_of(cmd.dest_vpid);
  Elan4Nic* dst = &net_.nic(dst_node, rail_);

  if (cmd.len == 0) {
    // Degenerate zero-byte write: local completion after descriptor fetch;
    // a bare remote-event packet still crosses the wire if one is attached.
    const sim::Time done = tx_.reserve(engine().now(), p.nic_rdma_start_ns);
    engine().schedule_at(done, [this, cmd, dst]() {
      if (cmd.remote_event != nullptr) {
        net_.fabric().transmit(
            node_, dst->node(), kRdmaWireHeader,
            [dst, ev = cmd.remote_event] { dst->rx_ack(ev, Status::kOk); }, rail_);
      }
      if (cmd.local_event != nullptr) cmd.local_event->fire();
    });
    return;
  }

  rdma_train(dst, dst_ctx, cmd.dst, src_host, cmd.len,
             p.nic_rdma_start_ns + p.nic_mmu_lookup_ns, cmd.remote_event,
             cmd.local_event, [this, posted_at = engine().now(), len = cmd.len,
                               dst_vpid = cmd.dest_vpid] {
               OQS_METRIC_INC("elan4.rdma.writes");
               OQS_TRACE_SPAN_FROM(posted_at, node_, "elan4", "rdma_write.inject",
                                   "len", len, "dst_vpid",
                                   static_cast<std::uint64_t>(dst_vpid));
             });
}

void Elan4Nic::rx_rdma_payload(ContextId ctx, E4Addr dst, std::uint64_t offset,
                               std::vector<std::uint8_t> data, bool last,
                               E4Event* remote_event, int ack_node,
                               std::shared_ptr<bool> fault_seen,
                               E4Event* ack_event) {
  const ModelParams& p = params();
  const sim::Time svc =
      p.nic_frag_ns + ModelParams::xfer_ns(data.size(), p.pci_mbps);
  const sim::Time done = rx_.reserve(engine().now(), svc);
  net_.maybe_corrupt(data, /*protect_prefix=*/0);
  engine().schedule_at(done, [this, ctx, dst, offset, data = std::move(data), last,
                              remote_event, ack_node, fault_seen,
                              ack_event]() mutable {
    OQS_METRIC_ADD("elan4.rdma.rx_bytes", data.size());
    Status st = Status::kOk;
    void* host = mmu(ctx).translate(dst + offset, data.size(), &st);
    if (!ok(st)) {
      ++translation_faults_;
      OQS_METRIC_INC("elan4.nic.translation_faults");
      if (fault_seen) *fault_seen = true;
    } else if (!data.empty()) {
      std::memcpy(host, data.data(), data.size());
    }
    if (last) {
      OQS_TRACE_INSTANT(node_, "elan4", "rdma.land", "offset_end",
                        offset + data.size());
      const Status final_st =
          (fault_seen && *fault_seen) ? Status::kFault : Status::kOk;
      if (remote_event != nullptr) remote_event->fire(final_st);
      if (ack_event != nullptr && ack_node >= 0) {
        // Network-level completion ack back to the issuing NIC.
        Elan4Nic* origin = &net_.nic(ack_node, rail_);
        net_.fabric().transmit(
            node_, ack_node, kRdmaAckBytes,
            [origin, ack_event, final_st] { origin->rx_ack(ack_event, final_st); },
            rail_);
      }
    }
  });
}

void Elan4Nic::rx_ack(E4Event* local_event, Status status) {
  const sim::Time done = rx_.reserve(engine().now(), params().nic_event_fire_ns);
  engine().schedule_at(done, [local_event, status] {
    if (local_event != nullptr) local_event->fire(status);
  });
}

// ----------------------------------------------------- hardware bcast ----

void Elan4Nic::do_hw_bcast(HwBcastCmd&& cmd) {
  const ModelParams& p = params();
  const ContextId src_ctx = net_.context_of(cmd.src_vpid);

  Status st = Status::kOk;
  char* src_host = nullptr;
  if (cmd.len > 0) {
    src_host = static_cast<char*>(mmu(src_ctx).translate(cmd.addr, cmd.len, &st));
    if (!ok(st)) {
      ++translation_faults_;
      E4Event* ev = cmd.local_event;
      const sim::Time done = tx_.reserve(engine().now(), p.nic_rdma_start_ns);
      if (ev != nullptr)
        engine().schedule_at(done, [ev] { ev->fire(Status::kFault); });
      return;
    }
  }

  // Resolve the multicast group once; dead members are skipped.
  std::vector<Vpid> members;
  std::vector<int> dst_nodes;
  for (Vpid v : cmd.group) {
    if (!net_.capability().is_live(v)) {
      ++rx_drops_;
      continue;
    }
    members.push_back(v);
    dst_nodes.push_back(net_.node_of(v));
  }

  std::uint32_t remaining = cmd.len;
  std::uint64_t offset = 0;
  bool first = true;
  sim::Time earliest = engine().now();
  do {
    const std::uint32_t frag = remaining < p.mtu ? remaining : p.mtu;
    remaining -= frag;
    const bool last = remaining == 0;
    sim::Time startup = p.nic_frag_ns;
    if (first) startup += p.nic_rdma_start_ns + p.nic_mmu_lookup_ns;
    first = false;
    const sim::Time inject_at = tx_.reserve_cut_through(
        earliest, startup + ModelParams::xfer_ns(frag, p.pci_mbps), startup);
    earliest = inject_at;

    engine().schedule_at(inject_at, [this, cmd, members, dst_nodes, src_host,
                                     frag, offset, last]() {
      std::vector<std::uint8_t> data(frag);
      if (frag > 0) std::memcpy(data.data(), src_host + offset, frag);
      auto shared = std::make_shared<std::vector<std::uint8_t>>(std::move(data));
      net_.fabric().multicast(
          node_, dst_nodes, frag + kRdmaWireHeader,
          [this, cmd, members, dst_nodes, shared, offset, last](std::size_t i) {
            Elan4Nic& dst = net_.nic(dst_nodes[i], rail_);
            dst.rx_hw_bcast(net_.context_of(members[i]), cmd.addr, offset,
                            *shared, last, cmd.event_index);
          },
          rail_);
      if (last && cmd.local_event != nullptr) cmd.local_event->fire();
    });
    offset += frag;
  } while (remaining > 0);
}

void Elan4Nic::rx_hw_bcast(ContextId ctx, E4Addr addr, std::uint64_t offset,
                           std::vector<std::uint8_t> data, bool last,
                           int event_index) {
  const ModelParams& p = params();
  const sim::Time done = rx_.reserve_cut_through(
      engine().now(), p.nic_frag_ns + ModelParams::xfer_ns(data.size(), p.pci_mbps),
      p.nic_frag_ns);
  engine().schedule_at(done, [this, ctx, addr, offset, data = std::move(data),
                              last, event_index]() {
    Status st = Status::kOk;
    if (!data.empty()) {
      void* host = mmu(ctx).translate(addr + offset, data.size(), &st);
      if (!ok(st)) {
        ++translation_faults_;
        return;  // this member never sees the completion event
      }
      std::memcpy(host, data.data(), data.size());
    }
    if (last) {
      E4Event* ev = event_at(ctx, event_index);
      if (ev != nullptr)
        ev->fire();
      else
        ++rx_drops_;
    }
  });
}

// ----------------------------------------------------------- RDMA read ----

void Elan4Nic::do_rdma_read(RdmaReadCmd&& cmd) {
  const ModelParams& p = params();
  const ContextId my_ctx = net_.context_of(cmd.src_vpid);

  // Validate the local landing zone up front (descriptor sanity check).
  Status st = Status::kOk;
  if (cmd.len > 0) {
    (void)mmu(my_ctx).translate(cmd.dst, cmd.len, &st);
    if (!ok(st)) {
      ++translation_faults_;
      E4Event* ev = cmd.local_event;
      const sim::Time done = tx_.reserve(engine().now(), p.nic_rdma_start_ns);
      if (ev != nullptr)
        engine().schedule_at(done, [ev] { ev->fire(Status::kFault); });
      return;
    }
  }

  if (!net_.capability().is_live(cmd.dest_vpid)) {
    ++rx_drops_;
    E4Event* ev = cmd.local_event;
    if (ev != nullptr)
      engine().schedule(p.nic_rdma_start_ns, [ev] { ev->fire(Status::kUnreachable); });
    return;
  }

  const int dst_node = net_.node_of(cmd.dest_vpid);
  Elan4Nic* dst = &net_.nic(dst_node, rail_);

  OQS_TRACE_INSTANT(node_, "elan4", "rdma_read.request", "len", cmd.len,
                    "dst_vpid", static_cast<std::uint64_t>(cmd.dest_vpid));
  OQS_METRIC_INC("elan4.rdma.reads");
  const sim::Time svc = p.nic_rdma_start_ns + p.nic_mmu_lookup_ns;
  const sim::Time sent_at = tx_.reserve(engine().now(), svc);
  engine().schedule_at(sent_at, [this, dst, cmd]() {
    net_.fabric().transmit(
        node_, dst->node(), kRdmaGetBytes, [dst, cmd] { dst->rx_rdma_get(cmd); },
        rail_);
  });
}

void Elan4Nic::rx_rdma_get(RdmaReadCmd cmd) {
  // Runs on the NIC that owns the data; it streams fragments back to the
  // requester exactly like a write, with the requester's local_event fired
  // when the last fragment lands there.
  const ModelParams& p = params();
  const ContextId owner_ctx = net_.context_of(cmd.dest_vpid);
  const int req_node = net_.node_of(cmd.src_vpid);
  const ContextId req_ctx = net_.context_of(cmd.src_vpid);
  Elan4Nic* req = &net_.nic(req_node, rail_);

  Status st = Status::kOk;
  char* src_host = nullptr;
  if (cmd.len > 0) {
    src_host = static_cast<char*>(mmu(owner_ctx).translate(cmd.src, cmd.len, &st));
  }
  if (!ok(st)) {
    ++translation_faults_;
    const sim::Time done = rx_.reserve(engine().now(), p.nic_rdma_read_req_ns);
    engine().schedule_at(done, [this, req, cmd] {
      net_.fabric().transmit(
          node_, req->node(), kRdmaAckBytes,
          [req, ev = cmd.local_event] { req->rx_ack(ev, Status::kFault); }, rail_);
    });
    return;
  }

  if (cmd.len == 0) {
    const sim::Time done = rx_.reserve(engine().now(), p.nic_rdma_read_req_ns);
    engine().schedule_at(done, [this, req, cmd] {
      net_.fabric().transmit(
          node_, req->node(), kRdmaAckBytes,
          [req, ev = cmd.local_event] { req->rx_ack(ev, Status::kOk); }, rail_);
    });
    return;
  }

  rdma_train(req, req_ctx, cmd.dst, src_host, cmd.len,
             p.nic_rdma_read_req_ns + p.nic_mmu_lookup_ns, cmd.local_event,
             /*ack_event=*/nullptr, [this, len = cmd.len] {
               OQS_TRACE_INSTANT(node_, "elan4", "rdma_read.stream_back", "len",
                                 len);
             });
}

}  // namespace oqs::elan4
