// Host-side QDMA receive queue.
//
// A ring of fixed-size slots ("QSLOTS", 2 KB each in the paper). Remote
// processes post small messages into it; the NIC lands each message in the
// next free slot and bumps the queue's host event. Any process may post into
// any queue it can address — this shared property is what the paper exploits
// for the shared completion queue (§4.3): QDMAs chained to RDMA descriptors
// all land in one queue, so one thread can block for many RDMAs.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "base/params.h"
#include "elan4/e4_types.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/engine.h"
#include "sim/idle.h"
#include "sim/node.h"

namespace oqs::elan4 {

class QdmaQueue {
 public:
  struct Slot {
    Vpid src = kInvalidVpid;
    std::vector<std::uint8_t> data;
  };

  QdmaQueue(sim::Engine& engine, const ModelParams& params, sim::Node* node,
            int id, std::uint32_t slot_size, std::uint32_t num_slots)
      : engine_(engine),
        params_(params),
        node_(node),
        id_(id),
        slot_size_(slot_size),
        num_slots_(num_slots) {}

  int id() const { return id_; }
  std::uint32_t slot_size() const { return slot_size_; }
  std::uint32_t num_slots() const { return num_slots_; }

  bool has_pending() const { return !ring_.empty(); }
  // Notified when a message lands, for idle waits polling the ring.
  sim::Signal& signal() { return signal_; }
  std::size_t pending() const { return ring_.size(); }
  std::uint64_t total_posted() const { return posted_; }
  std::uint64_t overflows() const { return overflows_; }

  // Host: take the oldest message (caller charged poll/copy costs at the
  // device layer). Returns false when the ring is empty.
  bool consume(Slot* out) {
    if (ring_.empty()) return false;
    *out = std::move(ring_.front());
    ring_.pop_front();
    obs::metrics().gauge("elan4.qdma.occupancy").fall();
    return true;
  }

  // Host: block the calling fiber until a message is pending. Wakeup goes
  // through the device interrupt path (params.interrupt_ns after the post).
  void wait_block() {
    while (ring_.empty()) {
      waiters_.push_back(engine_.current());
      engine_.park();
    }
  }

  // NIC: land a message. Ring overflow drops the message (hardware would
  // back-pressure the wire; upper layers size queues to avoid this, and
  // tests assert overflows() == 0).
  void post(Vpid src, std::vector<std::uint8_t> data) {
    if (ring_.size() >= num_slots_) {
      ++overflows_;
      OQS_METRIC_INC("elan4.qdma.overflows");
      return;
    }
    ring_.push_back(Slot{src, std::move(data)});
    ++posted_;
    OQS_METRIC_INC("elan4.qdma.landed");
    // Aggregate occupancy across all queues; per-queue depth goes to the
    // depth gauge's high-water mark (tests assert hiwater <= num_slots).
    obs::metrics().gauge("elan4.qdma.occupancy").rise();
    obs::metrics().gauge("elan4.qdma.depth").set(
        static_cast<std::int64_t>(ring_.size()));
    OQS_TRACE_INSTANT(node_ != nullptr ? node_->id() : -1, "elan4", "qdma.land",
                      "queue", static_cast<std::uint64_t>(id_), "depth",
                      ring_.size());
    signal_.notify();
    if (waiters_.empty()) return;
    // Interrupt-driven wakeup; concurrent IRQs serialize on the node.
    sim::Time delay = params_.interrupt_ns;
    if (node_ != nullptr) {
      const sim::Time svc =
          params_.irq_service_ns < params_.interrupt_ns ? params_.irq_service_ns
                                                        : params_.interrupt_ns;
      const sim::Time done = node_->irq_reserve(engine_.now(), svc);
      delay = (done - engine_.now()) + (params_.interrupt_ns - svc);
    }
    std::vector<sim::Fiber*> batch;
    batch.swap(waiters_);
    for (sim::Fiber* f : batch) engine_.unpark(f, delay);
  }

 private:
  sim::Engine& engine_;
  const ModelParams& params_;
  sim::Node* node_;
  int id_;
  std::uint32_t slot_size_;
  std::uint32_t num_slots_;
  std::deque<Slot> ring_;
  std::vector<sim::Fiber*> waiters_;
  sim::Signal signal_;
  std::uint64_t posted_ = 0;
  std::uint64_t overflows_ = 0;
};

}  // namespace oqs::elan4
