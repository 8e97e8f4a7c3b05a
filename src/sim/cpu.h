// Per-node CPU model.
//
// A node has a small number of cores (the paper's testbed: dual Xeon).
// Fibers charge software-path costs with compute(); when more fibers are
// runnable than cores exist they queue, which is exactly the contention the
// paper observes between the MPI process and its progress threads (§6.4:
// one-thread progress beats two-thread because of CPU/memory contention).
// Execution is non-preemptive per compute() block; a context-switch penalty
// is charged when a core's occupant changes.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "sim/engine.h"
#include "sim/time.h"

namespace oqs::sim {

class IdleWait;

class Cpu {
 public:
  Cpu(Engine& engine, unsigned cores, Time ctx_switch_ns,
      double memory_contention = 0.0)
      : engine_(engine),
        ctx_switch_ns_(ctx_switch_ns),
        memory_contention_(memory_contention),
        cores_(cores) {}

  unsigned num_cores() const { return static_cast<unsigned>(cores_.size()); }

  // Charge `dur` ns of CPU work from the calling fiber; blocks while all
  // cores are busy. Zero-duration compute still requires a core grant if the
  // machine is saturated, but fast-paths when one is free. A parked idle
  // wait on this Cpu (sim/idle.h) first resumes, so the charge sees the
  // cores exactly as the wait's spinning twin would have left them.
  void compute(Time dur);
  // compute() in two halves: take a core (blocking while none is free),
  // and hand it on to the oldest waiter or free it.
  int acquire();
  void release(int core);

  // Total busy time integrated over all cores (for utilization reporting),
  // including the charges a parked idle wait has made so far.
  Time busy_ns() const;
  std::uint64_t switches() const { return switches_; }

  // --- idle waits (sim/idle.h) ---
  // Fibers inside a charged wait (ProcessCtx::wait_until) on this Cpu.
  void add_charged_waiter(int delta) { charged_waiters_ += delta; }
  // Cheap pre-check at the top of a round: one charged waiter, none parked.
  bool may_park() const { return charged_waiters_ == 1 && idle_ == nullptr; }
  // A charged wait of `f` may park: it is the one charged waiter, no core
  // is busy or awaited, and the core it would take last ran `f` (so every
  // virtual charge costs exactly its length, with no switch).
  bool can_park(const Fiber* f) const;
  // Returns the core the parked wait's charges run on.
  int park_idle(IdleWait* w);
  // The parked wait resumes: settle its `charged` ns; `holding`: it resumes
  // at the end of a charge, so that core is busy until it releases it.
  void unpark_idle(int core, Time charged, bool holding);

 private:
  struct Core {
    bool busy = false;
    // Serial of the last occupant (0: none yet). Not a Fiber*: a reaped
    // fiber's address is often reused by the next spawn, which would hide
    // a real occupant change.
    std::uint64_t last = 0;
  };
  struct Waiter {
    Fiber* fiber;
    int granted_core = -1;
  };

  int find_free() const;

  Engine& engine_;
  Time ctx_switch_ns_;
  // Slowdown per additional busy core (shared FSB / memory bus).
  double memory_contention_;
  std::vector<Core> cores_;
  std::deque<Waiter*> wait_queue_;
  Time busy_ns_ = 0;
  std::uint64_t switches_ = 0;
  int charged_waiters_ = 0;
  IdleWait* idle_ = nullptr;  // the parked charged wait, if any
};

}  // namespace oqs::sim
