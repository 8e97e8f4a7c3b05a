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
  // machine is saturated, but fast-paths when one is free.
  void compute(Time dur);
  // compute() in two halves: take a core (blocking while none is free),
  // and hand it on to the oldest waiter or free it.
  int acquire();
  void release(int core);

  // Total busy time integrated over all cores (for utilization reporting).
  // Parked idle waits (sim/idle.h) charge as their spinning twins would, in
  // dispatch order, so this is exact between any two dispatches.
  Time busy_ns() const { return busy_ns_; }
  std::uint64_t switches() const { return switches_; }
  // Serial of the fiber that last ran on `core` (0: none yet).
  std::uint64_t last_on(unsigned core) const { return cores_[core].last; }

 private:
  // Parked idle waits (sim/idle.h) replay their charges through the
  // take/charge/give_back halves of compute().
  friend class IdleWait;
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
  // The lowest free core, taken; -1 if every core is busy.
  int take();
  // Charge `dur` on `core`, which the fiber with `serial` holds, exactly as
  // compute() does: contention from the other busy cores, and a switch if
  // the core last ran someone else. Returns the charge's length.
  Time charge(int core, std::uint64_t serial, Time dur);
  // Free `core` if no fiber waits for one; false (still held) otherwise.
  bool give_back(int core);

  Engine& engine_;
  Time ctx_switch_ns_;
  // Slowdown per additional busy core (shared FSB / memory bus).
  double memory_contention_;
  std::vector<Core> cores_;
  std::deque<Waiter*> wait_queue_;
  Time busy_ns_ = 0;
  std::uint64_t switches_ = 0;
  // Tell the parked waits here the cores changed under them.
  void restate();
  // Parked idle waits charging here: at most one per core, so they never
  // queue for a core among themselves.
  std::vector<IdleWait*> parked_;
};

}  // namespace oqs::sim
