// The Elan4 NIC model.
//
// Each NIC has a serial transmit engine (descriptor fetch, host-memory reads
// over PCI-X, packet injection) and a serial receive engine (packet landing,
// host-memory writes). Commands are posted by the host (or by chained
// events) and serviced in order; large RDMA transfers are fragmented to the
// wire MTU, so PCI-X and link bandwidth limits and their pipelining are
// emergent rather than curve-fit.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "base/params.h"
#include "base/status.h"
#include "elan4/commands.h"
#include "elan4/e4_types.h"
#include "elan4/mmu.h"
#include "elan4/qdma.h"
#include "sim/engine.h"

namespace oqs::elan4 {

class QsNet;
class E4Event;

// Wire overheads (bytes) added to payloads on the fabric.
constexpr std::uint32_t kQdmaWireHeader = 32;
constexpr std::uint32_t kRdmaWireHeader = 24;
constexpr std::uint32_t kRdmaAckBytes = 16;
constexpr std::uint32_t kRdmaGetBytes = 64;

// A serialized NIC resource: requests are serviced FIFO at full rate.
class SerialEngine {
 public:
  sim::Time reserve(sim::Time earliest, sim::Time service) {
    const sim::Time start = earliest > free_at_ ? earliest : free_at_;
    free_at_ = start + service;
    busy_ns_ += service;
    return free_at_;  // completion time
  }

  // Cut-through service: the unit becomes visible downstream `visible` ns
  // after service starts, while the engine stays occupied for `occupy` ns
  // (e.g. the PCI-X read of the payload). Streams this way pay startup
  // latency once but are still paced at the engine's real rate.
  sim::Time reserve_cut_through(sim::Time earliest, sim::Time occupy,
                                sim::Time visible) {
    const sim::Time start = earliest > free_at_ ? earliest : free_at_;
    free_at_ = start + occupy;
    busy_ns_ += occupy;
    return start + visible;
  }

  sim::Time free_at() const { return free_at_; }
  sim::Time busy_ns() const { return busy_ns_; }

 private:
  sim::Time free_at_ = 0;
  sim::Time busy_ns_ = 0;
};

class Elan4Nic {
 public:
  Elan4Nic(QsNet& net, int node, int rail);
  Elan4Nic(const Elan4Nic&) = delete;
  Elan4Nic& operator=(const Elan4Nic&) = delete;

  int node() const { return node_; }
  int rail() const { return rail_; }

  // Post a command from the host (host-side posting cost is charged by the
  // device layer before calling this).
  void submit(Command cmd);
  // Post a command from a chained event: the NIC hands it to itself after
  // the chain-fire cost, with no host involvement.
  void submit_chained(Command cmd);

  QdmaQueue* create_queue(std::uint32_t slot_size, std::uint32_t num_slots);
  Status destroy_queue(int id);
  QdmaQueue* find_queue(int id);
  sim::Node* host_node();

  Mmu& mmu(ContextId ctx) { return mmus_[ctx]; }

  // Global event table: events allocated in symmetric order get the same
  // index in every context — the "global virtual address space" analogue
  // that hardware broadcast completion relies on (paper §4.1). Freed slots
  // go on a per-context free list and the lowest index is reused first, so
  // symmetric alloc/free histories keep yielding symmetric indices.
  int register_event(ContextId ctx, E4Event* ev) {
    auto& tab = event_table_[ctx];
    auto& free = event_free_[ctx];
    if (!free.empty()) {
      const int idx = *free.begin();
      free.erase(free.begin());
      tab[static_cast<std::size_t>(idx)] = ev;
      return idx;
    }
    tab.push_back(ev);
    return static_cast<int>(tab.size()) - 1;
  }
  // Release a table slot. In-flight completions targeting the index resolve
  // to nullptr (and count as rx_drops) — callers quiesce first.
  void unregister_event(ContextId ctx, int index) {
    auto it = event_table_.find(ctx);
    if (it == event_table_.end() || index < 0 ||
        index >= static_cast<int>(it->second.size()))
      return;
    it->second[static_cast<std::size_t>(index)] = nullptr;
    event_free_[ctx].insert(index);
  }
  E4Event* event_at(ContextId ctx, int index) {
    auto it = event_table_.find(ctx);
    if (it == event_table_.end() || index < 0 ||
        index >= static_cast<int>(it->second.size()))
      return nullptr;
    return it->second[static_cast<std::size_t>(index)];
  }
  // Diagnostics for leak regression tests: table extent and live entries.
  std::size_t event_table_size(ContextId ctx) const {
    auto it = event_table_.find(ctx);
    return it == event_table_.end() ? 0 : it->second.size();
  }
  std::size_t event_table_live(ContextId ctx) const {
    auto it = event_table_.find(ctx);
    if (it == event_table_.end()) return 0;
    std::size_t live = 0;
    for (const E4Event* ev : it->second) live += ev != nullptr ? 1 : 0;
    return live;
  }

  // Diagnostics.
  std::uint64_t commands() const { return commands_; }
  std::uint64_t rx_drops() const { return rx_drops_; }
  std::uint64_t translation_faults() const { return translation_faults_; }
  const SerialEngine& tx_engine() const { return tx_; }
  const SerialEngine& rx_engine() const { return rx_; }
  // NIC-firmware extensions (e.g. the Tport engine) share the DMA engines.
  SerialEngine& tx_engine_mut() { return tx_; }
  SerialEngine& rx_engine_mut() { return rx_; }

 private:
  friend class QsNet;

  void process(Command&& cmd);
  void do_qdma(QdmaCmd&& cmd);
  void do_rdma_write(RdmaWriteCmd&& cmd);
  void do_rdma_read(RdmaReadCmd&& cmd);

  // Streams `len` bytes from (src_ctx, src_addr) on this node into
  // (dst_ctx, dst_addr) on `dst`'s node as one train of MTU fragments.
  // `first_startup` is the extra tx-engine cost of the first fragment. When
  // the last fragment lands, `remote_event` fires on dst and, if
  // `ack_event` is set, an ack crosses back here to fire it. Writes and read
  // stream-backs both use it; `on_last_inject` runs as the last fragment
  // leaves and emits only the caller's trace and metric labels.
  template <typename OnLastInject>
  void rdma_train(Elan4Nic* dst, ContextId dst_ctx, E4Addr dst_addr,
                  ContextId src_ctx, E4Addr src_addr, std::uint32_t len,
                  sim::Time first_startup, E4Event* remote_event,
                  E4Event* ack_event, OnLastInject on_last_inject);
  void do_hw_bcast(HwBcastCmd&& cmd);
  void rx_hw_bcast(ContextId ctx, E4Addr addr, std::uint64_t offset,
                   std::vector<std::uint8_t> data, bool last, int event_index);

  // Receive-side handlers (run on the destination NIC at wire-tail arrival).
  void rx_qdma(Vpid src, int queue_id, std::vector<std::uint8_t> data);
  // Collective-QDMA landing: combine/copy into context memory, fire the
  // indexed event (no host queue involved).
  void rx_coll_qdma(ContextId ctx, E4Addr dest_addr, bool combine,
                    int event_index, std::vector<std::uint8_t> data);
  // Lands one RDMA fragment. On the last fragment: fires remote_event here,
  // and if ack_event is set, sends a completion ack to ack_node where
  // ack_event is fired (RDMA-write local completion).
  void rx_rdma_payload(ContextId ctx, E4Addr dst, std::uint64_t offset,
                       std::vector<std::uint8_t> data, bool last,
                       E4Event* remote_event, int ack_node,
                       std::shared_ptr<bool> fault_seen, E4Event* ack_event);
  void rx_rdma_get(RdmaReadCmd cmd);
  void rx_ack(E4Event* local_event, Status status);

  sim::Engine& engine();
  const ModelParams& params() const;

  QsNet& net_;
  int node_;
  int rail_;
  SerialEngine tx_;
  SerialEngine rx_;
  std::map<ContextId, Mmu> mmus_;
  std::map<ContextId, std::vector<E4Event*>> event_table_;
  std::map<ContextId, std::set<int>> event_free_;
  std::map<int, std::unique_ptr<QdmaQueue>> queues_;
  int next_queue_id_ = 1;
  std::uint64_t commands_ = 0;
  std::uint64_t rx_drops_ = 0;
  // A fault-free run drops no QDMA; a crashed peer or an injected delay can
  // drop many, so each NIC logs only its first; the metrics count every one.
  bool drop_logged_ = false;
  std::uint64_t translation_faults_ = 0;
};

}  // namespace oqs::elan4
