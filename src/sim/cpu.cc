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
  if (idle_ != nullptr) idle_->resume_at(engine_.position());
  Fiber* self = engine_.current();
  const int core = acquire();

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
  release(core);
}

int Cpu::acquire() {
  Fiber* self = engine_.current();
  assert(self != nullptr && "compute() outside a fiber");
  int core = find_free();
  if (core >= 0) {
    cores_[core].busy = true;
    return core;
  }
  // All cores busy: queue FIFO and wait for a releasing fiber to hand one
  // over. The releaser keeps the core marked busy on our behalf before
  // unparking us, so there is no lost-grant race with other same-instant
  // wakeups.
  Waiter w{self, -1};
  wait_queue_.push_back(&w);
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
}

Time Cpu::busy_ns() const {
  if (idle_ == nullptr) return busy_ns_;
  return busy_ns_ + idle_->charged_ns(engine_.position());
}

bool Cpu::can_park(const Fiber* f) const {
  if (!may_park() || !wait_queue_.empty()) return false;
  for (const Core& c : cores_)
    if (c.busy) return false;
  return cores_.front().last == f->serial();
}

int Cpu::park_idle(IdleWait* w) {
  idle_ = w;
  return 0;  // every core is free, and the first free one is taken
}

void Cpu::unpark_idle(int core, Time charged, bool holding) {
  idle_ = nullptr;
  busy_ns_ += charged;
  if (holding) cores_[static_cast<std::size_t>(core)].busy = true;
}

}  // namespace oqs::sim
