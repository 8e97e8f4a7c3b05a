// Host-process handle to an Elan4 NIC context — the libelan4 analogue.
//
// Every operation is called from a simulated process fiber and charges the
// host software-path cost on that node's CPU before touching the NIC, so
// host-side overheads show up in latency and contend for cores with
// progress threads.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "base/params.h"
#include "base/status.h"
#include "elan4/event.h"
#include "elan4/nic.h"
#include "elan4/qdma.h"
#include "sim/process.h"

namespace oqs::elan4 {

class QsNet;

class Elan4Device {
 public:
  Elan4Device(QsNet& net, int node, int rail, Vpid vpid);
  ~Elan4Device();
  Elan4Device(const Elan4Device&) = delete;
  Elan4Device& operator=(const Elan4Device&) = delete;

  QsNet& net() { return net_; }
  int node() const { return node_; }
  int rail() const { return rail_; }
  Vpid vpid() const { return vpid_; }
  ContextId context() const { return ctx_; }
  Elan4Nic& nic();
  const ModelParams& params() const;
  bool closed() const { return closed_; }

  // Charge host CPU time on this node (application or library work).
  void compute(sim::Time ns);
  // The owning process's host, for waits on this device's event words.
  sim::ProcessCtx host();
  // Spin on `ev`'s host event word until it fires, one charged poll per
  // read; returns false if abort() holds first.
  template <class Abort = sim::Never>
  bool wait_event(const E4Event* ev,
                  sim::Watched<Abort> abort = sim::kNoAbort) {
    return host().wait_until(
        sim::Cadence::kEventWord,
        sim::watched(&ev->signal(), [ev] { return ev->done(); }), nullptr,
        abort);
  }

  // --- Events (allocated in "elan memory") ---
  // Table events fill this context's global event table, where remote
  // commands find them by E4Event::index(). alloc_event() takes the lowest
  // empty slot and free_event() empties one, so symmetric alloc/free
  // histories yield symmetric indices; the caller quiesces completions
  // targeting the event first. The device owns them until freed.
  E4Event* alloc_event(std::string name);
  Status free_event(E4Event* ev);
  // Op events are found only by pointer (a command's local or remote
  // event): they take no table slot, and the op that posts one owns it.
  std::unique_ptr<E4Event> make_event(std::string name);
  // Host SETEVENT command: one PIO word, then the NIC fires `ev` (the cheap
  // host->NIC arrival signal of the NIC-offloaded collectives).
  Status set_event(E4Event* ev);

  // --- Memory registration ---
  E4Addr map(void* host, std::size_t len);
  Status unmap(E4Addr addr);

  // --- QDMA ---
  QdmaQueue* create_queue(std::uint32_t num_slots, std::uint32_t slot_size = 2048);
  Status destroy_queue(QdmaQueue* q);
  // Post up to slot_size bytes into (dest VPID, queue id). `data` is copied
  // on entry, before the post charge suspends the caller. `lossy` opts the
  // wire packet into fault injection — set it only for traffic whose
  // protocol recovers from loss.
  Status post_qdma(Vpid dest, int queue_id, std::span<const std::uint8_t> data,
                   E4Event* local_event = nullptr, bool lossy = false);
  // Non-blocking poll of a local queue (charges one poll).
  bool queue_poll(QdmaQueue* q, QdmaQueue::Slot* out);
  // Block until the queue has a message (interrupt-driven wakeup).
  void queue_wait(QdmaQueue* q);

  // --- RDMA ---
  Status rdma_write(Vpid dest, E4Addr local_src, E4Addr remote_dst,
                    std::uint32_t len, E4Event* local_event,
                    E4Event* remote_event = nullptr);
  Status rdma_read(Vpid dest, E4Addr remote_src, E4Addr local_dst,
                   std::uint32_t len, E4Event* local_event);

  // Hardware broadcast: push [addr, addr+len) — which must resolve at the
  // SAME E4 address in every group member's context (global virtual address
  // space) — to all members; fires event #event_index in each member's
  // context on arrival, and local_event at the root on injection.
  Status hw_broadcast(const std::vector<Vpid>& group, E4Addr addr,
                      std::uint32_t len, int event_index, E4Event* local_event);

  // Charge a host memcpy of `bytes` (slot -> user buffer etc).
  void charge_copy(std::size_t bytes);
  // Charge one host event-word poll.
  void charge_poll();

  // Release the context back to the system capability, its queues and its
  // event table with it (the events live on with the device). The caller
  // is responsible for quiescing traffic first (paper §4.1: finalization
  // only after pending messages complete, else a leftover DMA can
  // regenerate traffic indefinitely).
  void close();

 private:
  QsNet& net_;
  int node_;
  int rail_;
  Vpid vpid_;
  ContextId ctx_;
  bool closed_ = false;
  Elan4Nic::EventTable table_;  // the context's event table, by index
  std::vector<int> my_queues_;
};

}  // namespace oqs::elan4
