#include "elan4/device.h"

#include <algorithm>
#include <cassert>

#include "base/log.h"
#include "elan4/qsnet.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace oqs::elan4 {

Elan4Device::Elan4Device(QsNet& net, int node, int rail, Vpid vpid)
    : net_(net), node_(node), rail_(rail), vpid_(vpid),
      ctx_(net.context_of(vpid)) {
  nic().attach_event_table(ctx_, &table_);
}

Elan4Device::~Elan4Device() {
  if (!closed_) close();
}

Elan4Nic& Elan4Device::nic() { return net_.nic(node_, rail_); }
const ModelParams& Elan4Device::params() const { return net_.params(); }

void Elan4Device::compute(sim::Time ns) { net_.node(node_).cpu().compute(ns); }
sim::ProcessCtx Elan4Device::host() { return net_.host(node_); }

E4Event* Elan4Device::alloc_event(std::string name) {
  auto slot = std::find(table_.begin(), table_.end(), nullptr);
  if (slot == table_.end()) slot = table_.insert(slot, nullptr);
  *slot = std::make_unique<E4Event>(net_.engine(), params(), &nic(),
                                    std::move(name),
                                    static_cast<int>(slot - table_.begin()));
  return slot->get();
}

Status Elan4Device::free_event(E4Event* ev) {
  const auto idx = static_cast<std::size_t>(ev->index());
  if (ev->index() < 0 || idx >= table_.size() || table_[idx].get() != ev)
    return Status::kNotFound;
  table_[idx].reset();
  return Status::kOk;
}

std::unique_ptr<E4Event> Elan4Device::make_event(std::string name) {
  return std::make_unique<E4Event>(net_.engine(), params(), &nic(),
                                   std::move(name));
}

Status Elan4Device::set_event(E4Event* ev) {
  if (closed_) return Status::kShutdown;
  compute(params().host_pio_write_ns);
  E4Event* target = ev;
  net_.engine().schedule(params().nic_event_fire_ns,
                         [target] { target->fire(); });
  return Status::kOk;
}

E4Addr Elan4Device::map(void* host, std::size_t len) {
  // Host builds the page-table entries: a fixed lookup-slot charge plus a
  // per-page registration cost — the part the pipelined rendezvous overlaps
  // with transfer by mapping one fragment while the previous one streams.
  compute(params().nic_mmu_lookup_ns +
          params().nic_mmu_map_page_ns *
              static_cast<sim::Time>(Mmu::pages_for(len)));
  OQS_METRIC_INC("elan4.mmu.maps");
  OQS_TRACE_INSTANT(node_, "elan4", "mmu.map", "len", len);
  return nic().mmu(ctx_).map(host, len);
}

Status Elan4Device::unmap(E4Addr addr) { return nic().mmu(ctx_).unmap(addr); }

QdmaQueue* Elan4Device::create_queue(std::uint32_t num_slots, std::uint32_t slot_size) {
  QdmaQueue* q = nic().create_queue(slot_size, num_slots);
  my_queues_.push_back(q->id());
  return q;
}

Status Elan4Device::destroy_queue(QdmaQueue* q) {
  assert(q != nullptr);
  std::erase(my_queues_, q->id());
  return nic().destroy_queue(q->id());
}

Status Elan4Device::post_qdma(Vpid dest, int queue_id,
                              std::span<const std::uint8_t> data,
                              E4Event* local_event, bool lossy) {
  if (closed_) return Status::kShutdown;
  if (data.size() > 2048) return Status::kBadParam;  // QDMA hard limit
  // Snapshot the caller's bytes before the post charge: compute() suspends
  // this fiber, and the span's owner may rewrite or free it meanwhile.
  QdmaCmd cmd;
  cmd.src_vpid = vpid_;
  cmd.dest_vpid = dest;
  cmd.dest_queue = queue_id;
  cmd.data.assign(data.begin(), data.end());
  cmd.local_event = local_event;
  cmd.lossy = lossy;
  compute(params().host_qdma_post_ns);
  nic().submit(std::move(cmd));
  return Status::kOk;
}

bool Elan4Device::queue_poll(QdmaQueue* q, QdmaQueue::Slot* out) {
  charge_poll();
  return q->consume(out);
}

void Elan4Device::queue_wait(QdmaQueue* q) {
  compute(params().host_event_wait_setup_ns);
  q->wait_block();
}

Status Elan4Device::rdma_write(Vpid dest, E4Addr local_src, E4Addr remote_dst,
                               std::uint32_t len, E4Event* local_event,
                               E4Event* remote_event) {
  if (closed_) return Status::kShutdown;
  compute(params().host_rdma_post_ns);
  OQS_TRACE_INSTANT(node_, "elan4", "rdma_write.post", "len", len);
  RdmaWriteCmd cmd;
  cmd.src_vpid = vpid_;
  cmd.dest_vpid = dest;
  cmd.src = local_src;
  cmd.dst = remote_dst;
  cmd.len = len;
  cmd.local_event = local_event;
  cmd.remote_event = remote_event;
  nic().submit(std::move(cmd));
  return Status::kOk;
}

Status Elan4Device::rdma_read(Vpid dest, E4Addr remote_src, E4Addr local_dst,
                              std::uint32_t len, E4Event* local_event) {
  if (closed_) return Status::kShutdown;
  compute(params().host_rdma_post_ns);
  OQS_TRACE_INSTANT(node_, "elan4", "rdma_read.post", "len", len);
  RdmaReadCmd cmd;
  cmd.src_vpid = vpid_;
  cmd.dest_vpid = dest;
  cmd.src = remote_src;
  cmd.dst = local_dst;
  cmd.len = len;
  cmd.local_event = local_event;
  nic().submit(std::move(cmd));
  return Status::kOk;
}

Status Elan4Device::hw_broadcast(const std::vector<Vpid>& group, E4Addr addr,
                                 std::uint32_t len, int event_index,
                                 E4Event* local_event) {
  if (closed_) return Status::kShutdown;
  compute(params().host_rdma_post_ns);
  HwBcastCmd cmd;
  cmd.src_vpid = vpid_;
  cmd.group = group;
  cmd.addr = addr;
  cmd.len = len;
  cmd.event_index = event_index;
  cmd.local_event = local_event;
  nic().submit(std::move(cmd));
  return Status::kOk;
}

void Elan4Device::charge_copy(std::size_t bytes) {
  compute(params().host_memcpy_startup_ns +
          ModelParams::xfer_ns(bytes, params().host_memcpy_mbps));
}

void Elan4Device::charge_poll() { compute(params().host_poll_ns); }

void Elan4Device::close() {
  if (closed_) return;
  for (int id : my_queues_) nic().destroy_queue(id);
  my_queues_.clear();
  // The context's event table goes with it (the events live until the
  // device does), so the next process to claim the context starts from an
  // empty one.
  nic().attach_event_table(ctx_, nullptr);
  net_.capability().release(vpid_);
  closed_ = true;
}

}  // namespace oqs::elan4
