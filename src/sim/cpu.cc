#include "sim/cpu.h"

#include <cassert>

namespace oqs::sim {

int Cpu::find_free() const {
  for (std::size_t i = 0; i < cores_.size(); ++i)
    if (!cores_[i].busy) return static_cast<int>(i);
  return -1;
}

void Cpu::compute(Time dur) {
  Fiber* self = engine_.current();
  assert(self != nullptr && "compute() outside a fiber");

  int core = find_free();
  if (core < 0) {
    // All cores busy: queue FIFO and wait for a releasing fiber to hand one
    // over. The releaser keeps the core marked busy on our behalf before
    // unparking us, so there is no lost-grant race with other same-instant
    // wakeups.
    Waiter w{self, -1};
    wait_queue_.push_back(&w);
    engine_.park();
    core = w.granted_core;
    assert(core >= 0 && cores_[core].busy);
  } else {
    cores_[core].busy = true;
  }

  // Other busy cores contend for the shared memory bus.
  unsigned others = 0;
  for (std::size_t i = 0; i < cores_.size(); ++i)
    if (static_cast<int>(i) != core && cores_[i].busy) ++others;
  Time cost = dur + static_cast<Time>(static_cast<double>(dur) *
                                      memory_contention_ * others);
  if (cores_[core].last != 0 && cores_[core].last != self->serial()) {
    cost += ctx_switch_ns_;
    ++switches_;
  }
  cores_[core].last = self->serial();
  busy_ns_ += cost;
  if (cost > 0) engine_.sleep(cost);

  // Release: hand the core directly to the oldest waiter, if any.
  if (!wait_queue_.empty()) {
    Waiter* next = wait_queue_.front();
    wait_queue_.pop_front();
    next->granted_core = core;  // core stays busy; consumed on wakeup
    engine_.unpark(next->fiber);
  } else {
    cores_[core].busy = false;
  }
}

}  // namespace oqs::sim
