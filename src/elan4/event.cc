#include "elan4/event.h"

#include "base/log.h"
#include "elan4/nic.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace oqs::elan4 {

E4Event::E4Event(sim::Engine& engine, const ModelParams& params, Elan4Nic* nic,
                 std::string name, int index)
    : engine_(engine), params_(params), nic_(nic), name_(std::move(name)),
      index_(index) {}

void E4Event::wait_block() {
  while (!done_) {
    waiters_.push_back(engine_.current());
    engine_.park();
  }
}

void E4Event::fire(Status status) {
  if (count_ <= 0) {
    // Hardware behaviour: a completion landing on a spent event is lost
    // (paper Fig. 5d) — the count goes negative and nothing triggers.
    --count_;
    ++lost_fires_;
    OQS_METRIC_INC("elan4.event.lost_fires");
    log::debug("elan4", "event '", name_, "' lost a fire (count now ", count_, ")");
    return;
  }
  --count_;
  if (count_ == 0) trigger(status);
}

void E4Event::trigger(Status status) {
  done_ = true;
  status_ = status;
  ++triggers_;
  OQS_METRIC_INC("elan4.event.triggers");
  OQS_TRACE_INSTANT(nic_ != nullptr ? nic_->node() : -1, "elan4",
                    "event.trigger", "chained", chained_.size(), "waiters",
                    waiters_.size());
  if (!chained_.empty() && nic_ != nullptr) {
    OQS_METRIC_ADD("elan4.event.chain_fires", chained_.size());
    // The NIC launches the chained commands itself; no host round trip.
    std::vector<Command> cmds = std::move(chained_);
    chained_.clear();
    Elan4Nic* nic = nic_;
    sim::Time delay = params_.nic_chain_fire_ns;
    for (Command& cmd : cmds) {
      engine_.schedule(delay, [nic, cmd = std::move(cmd)]() mutable {
        nic->submit_chained(std::move(cmd));
      });
      delay += params_.nic_chain_fire_ns;
    }
  }
  if (!waiters_.empty()) {
    // Interrupt-driven wakeup; concurrent IRQs serialize on the node.
    sim::Time delay = params_.interrupt_ns;
    if (nic_ != nullptr) {
      sim::Node* node = nic_->host_node();
      const sim::Time svc = params_.irq_service_ns < params_.interrupt_ns
                                ? params_.irq_service_ns
                                : params_.interrupt_ns;
      const sim::Time done = node->irq_reserve(engine_.now(), svc);
      delay = (done - engine_.now()) + (params_.interrupt_ns - svc);
    }
    std::vector<sim::Fiber*> batch;
    batch.swap(waiters_);
    for (sim::Fiber* f : batch) engine_.unpark(f, delay);
  }
  signal_.notify();
}

}  // namespace oqs::elan4
