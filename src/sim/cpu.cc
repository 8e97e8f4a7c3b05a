#include "sim/cpu.h"

#include <cassert>

#include "sim/idle.h"

namespace oqs::sim {

int Cpu::find_free() const {
  for (std::size_t i = 0; i < cores_.size(); ++i)
    if (!cores_[i].busy) return static_cast<int>(i);
  return -1;
}

void Cpu::compute(Time dur) {
  Fiber* self = engine_.current();
  const int core = acquire();
  const Time cost = charge(core, self->serial(), dur);
  if (cost > 0) engine_.sleep(cost);
  release(core);
}

Time Cpu::charge(int core, std::uint64_t serial, Time dur) {
  // Other busy cores contend for the shared memory bus.
  unsigned others = 0;
  for (std::size_t i = 0; i < cores_.size(); ++i)
    if (static_cast<int>(i) != core && cores_[i].busy) ++others;
  Time cost = dur + static_cast<Time>(static_cast<double>(dur) *
                                      memory_contention_ * others);
  Core& c = cores_[static_cast<std::size_t>(core)];
  if (c.last != 0 && c.last != serial) {
    cost += ctx_switch_ns_;
    ++switches_;
  }
  c.last = serial;
  busy_ns_ += cost;
  return cost;
}

int Cpu::take() {
  const int core = find_free();
  if (core >= 0) cores_[static_cast<std::size_t>(core)].busy = true;
  return core;
}

int Cpu::acquire() {
  Fiber* self = engine_.current();
  assert(self != nullptr && "compute() outside a fiber");
  const int core = take();
  if (core >= 0) {
    if (!parked_.empty()) restate();
    return core;
  }
  // All cores busy: queue FIFO and wait for a releasing fiber to hand one
  // over. The releaser keeps the core marked busy on our behalf before
  // unparking us, so there is no lost-grant race with other same-instant
  // wakeups.
  Waiter w{self, -1};
  wait_queue_.push_back(&w);
  if (!parked_.empty()) restate();
  engine_.park();
  assert(w.granted_core >= 0 && cores_[w.granted_core].busy);
  return w.granted_core;
}

void Cpu::release(int core) {
  // Hand the core directly to the oldest waiter, if any.
  if (!wait_queue_.empty()) {
    Waiter* next = wait_queue_.front();
    wait_queue_.pop_front();
    next->granted_core = core;  // core stays busy; consumed on wakeup
    engine_.unpark(next->fiber);
  } else {
    cores_[core].busy = false;
  }
  if (!parked_.empty()) restate();
}

void Cpu::restate() {
  for (IdleWait* w : parked_) w->classify();
}

bool Cpu::give_back(int core) {
  if (!wait_queue_.empty()) return false;
  cores_[static_cast<std::size_t>(core)].busy = false;
  return true;
}

}  // namespace oqs::sim
