// One simulated process's handle on its host, and the one way a host fiber
// waits for communication progress: every blocking wait in the stack goes
// through ProcessCtx::wait_until, and a wait's idle periods live only here.
// A wait names what it reads (Watched predicates, a PollPlan round; see
// sim/idle.h), so one that cannot say does not compile.
#pragma once

#include <cassert>

#include "base/params.h"
#include "sim/cpu.h"
#include "sim/engine.h"
#include "sim/idle.h"

namespace oqs::sim {

// How a waiting fiber idles between checks of what it waits for.
enum class Cadence {
  kPoll,        // sweep; if it found nothing, yield host_poll_ns uncharged
  kThreaded,    // progress threads own the queues: yield 10x host_poll_ns
  kThreadExit,  // yield 1 us
  kEventWord,   // charge host_poll_ns per read of a host event word
  kShmFlag,     // yield shm_flag_ns; once done, charge the one flag read
};

// The abort predicate of a wait that cannot abort.
struct Never {
  bool operator()() const { return false; }
};
inline constexpr Watched<Never> kNoAbort{nullptr, {}};

// Everything a layer needs to charge host work for one process.
struct ProcessCtx {
  Engine* engine = nullptr;
  Cpu* cpu = nullptr;
  const ModelParams* params = nullptr;
  int gid = -1;  // global process id

  void compute(Time ns) const { cpu->compute(ns); }

  // Block until done() holds, or return false once abort() does. Each round
  // checks done(), then abort(), then, under kPoll, sweeps `plan` (none:
  // no sweep); a nonzero sweep rechecks at once, anything else idles one
  // period. An uncharged wait from t0 resumes at exactly t0 + k*period
  // after k idle steps, which any elision of those steps must keep. Another cadence walks no poll points: its plan, if any, may
  // only decline (PollPlan::watch returns -1).
  //
  // A round registers what it reads at its top. If it found nothing, or
  // would find nothing (PollPlan::quiet), the wait parks on those sources
  // instead of dispatching its steps, and resumes on the same grid with the
  // same charges and tie order (sim/idle.h). It spins through the round
  // only when the runtime refuses: the plan declines, its point charge is
  // not the period, the round saw a change, the watch record is full, the
  // engine runs nested, or the Cpu has no core for it.
  template <class Done, class Abort = Never>
  bool wait_until(Cadence c, Watched<Done> done, PollPlan* plan = nullptr,
                  Watched<Abort> abort = kNoAbort) const {
    const bool sweeps = c == Cadence::kPoll;
    const bool charged = c == Cadence::kPoll || c == Cadence::kEventWord;
    const Time period = poll_period(c);
    PollPlan* sweep = sweeps ? plan : nullptr;
    IdleWait idle(*engine, charged ? cpu : nullptr, period,
                  c == Cadence::kEventWord);
    // Where the round goes on: at its top, or after poll point `from`'s
    // charge (a parked wait resumed mid-round).
    std::size_t from = 0;
    bool paid = false;
    const auto park = [&](bool at_top) {
      if (!idle.park(at_top)) return false;
      from = idle.resumed_step() == 0 ? 0 : idle.resumed_step() - 1;
      paid = idle.resumed_step() != 0;
      return true;
    };
    for (;;) {
      if (!paid) {
        begin_round(idle, plan, sweeps, done.on, abort.on);
        if (done()) break;
        if (abort()) return false;
        // A round that starts quiet parks before its first charge.
        if (sweep != nullptr && sweep->quiet() && park(/*at_top=*/true))
          continue;
      }
      if (sweep != nullptr && sweep->sweep(from, paid) != 0) {
        from = 0;
        paid = false;
        continue;
      }
      from = 0;
      paid = false;
      if (park(/*at_top=*/false)) continue;
      if (c == Cadence::kEventWord)
        compute(period);
      else
        engine->sleep(period);
    }
    if (c == Cadence::kShmFlag) compute(period);
    return true;
  }

  Time poll_period(Cadence c) const {
    switch (c) {
      case Cadence::kThreaded: return 10 * params->host_poll_ns;
      case Cadence::kThreadExit: return kUs;
      case Cadence::kShmFlag: return params->shm_flag_ns;
      default: return params->host_poll_ns;
    }
  }

 private:
  // Register what one round reads, before it reads it; a round that cannot
  // be described registers nothing and will not park.
  static void begin_round(IdleWait& w, PollPlan* plan,
                          [[maybe_unused]] bool sweeps, Signal* done,
                          Signal* abort) {
    if (!w.begin_round()) return;
    const int points = plan == nullptr                 ? 0
                       : plan->point_ns() != w.step() ? -1
                                                       : plan->watch(w);
    assert((sweeps || points <= 0) && "only a sweep walks poll points");
    if (points < 0 || (done != nullptr && !w.watch(done)) ||
        (abort != nullptr && !w.watch(abort))) {
      w.clear();
      return;
    }
    w.set_points(static_cast<std::size_t>(points));
  }
};

}  // namespace oqs::sim
