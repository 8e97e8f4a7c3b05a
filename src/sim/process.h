// One simulated process's handle on its host, and the one way a host fiber
// waits for communication progress: every blocking wait in the stack goes
// through ProcessCtx::wait_until, and a wait's idle periods live only here.
#pragma once

#include <type_traits>

#include "base/params.h"
#include "sim/cpu.h"
#include "sim/engine.h"
#include "sim/idle.h"

namespace oqs::sim {

// How a waiting fiber idles between checks of what it waits for.
enum class Cadence {
  kPoll,        // sweep; if it found nothing, yield host_poll_ns uncharged
  kSocketPoll,  // sweep (one poll() syscall); if nothing, yield 4x host_poll_ns
  kThreaded,    // progress threads own the queues: yield 10x host_poll_ns
  kThreadExit,  // yield 1 us
  kEventWord,   // charge host_poll_ns per read of a host event word
  kShmFlag,     // yield shm_flag_ns; once done, charge the one flag read
};

inline constexpr auto kNoSweep = [] { return 0; };
inline constexpr auto kNoAbort = [] { return false; };

namespace detail {
template <class P>
struct is_watched : std::false_type {};
template <class F>
struct is_watched<Watched<F>> : std::true_type {};
// Predicates a parked wait can register: Watched ones and the constant
// kNoAbort. Sweeps: a PollPlan walked as data, or none.
template <class P>
constexpr bool watchable_v =
    is_watched<P>::value ||
    std::is_same_v<std::remove_cv_t<P>, std::remove_cv_t<decltype(kNoAbort)>>;
template <class S>
constexpr bool plannable_v =
    std::is_same_v<S, PollPlan*> ||
    std::is_same_v<std::remove_cv_t<S>, std::remove_cv_t<decltype(kNoSweep)>>;
template <class P>
bool watch_pred(const P& p, IdleWait& w) {
  if constexpr (is_watched<P>::value) return p.on == nullptr || w.watch(p.on);
  return true;
}
// A PollPlan sweep that would find nothing now; other sweeps cannot say.
template <class S>
bool quiet(const S& s) {
  if constexpr (std::is_same_v<S, PollPlan*>)
    return s->quiet();
  else
    return false;
}
template <class S>
int run_sweep(S& s, std::size_t from, bool paid) {
  if constexpr (std::is_same_v<S, PollPlan*>)
    return s->sweep(from, paid);
  else
    return s();
}
// Register what one round reads, before it reads it; a round that cannot
// be described registers nothing and will not park.
template <class Done, class Sweep, class Abort>
void begin_round(IdleWait& w, const Done& done, Sweep& sweep,
                 const Abort& abort, Time period) {
  if (!w.begin_round()) return;
  int points = 0;
  if constexpr (std::is_same_v<Sweep, PollPlan*>)
    points = sweep->point_ns() == period ? sweep->watch(w) : -1;
  if (points < 0 || !watch_pred(done, w) || !watch_pred(abort, w)) {
    w.clear();
    return;
  }
  w.set_points(static_cast<std::size_t>(points));
}
}  // namespace detail

// Everything a layer needs to charge host work for one process.
struct ProcessCtx {
  Engine* engine = nullptr;
  Cpu* cpu = nullptr;
  const ModelParams* params = nullptr;
  int gid = -1;  // global process id

  void compute(Time ns) const { cpu->compute(ns); }

  // Block until done() holds, or return false once abort() does. Each round
  // checks done(), then abort(), then sweeps if the cadence does; a nonzero
  // sweep rechecks at once, anything else idles one period. An uncharged
  // wait from t0 resumes at exactly t0 + k*period after k idle steps, which
  // any elision of those steps must keep. A spinning wait allocates nothing.
  //
  // When done() and abort() are Watched (or kNoAbort) and the sweep is a
  // PollPlan (or none), a kPoll, kEventWord or kShmFlag wait whose round
  // found nothing, or would find nothing (PollPlan::quiet), parks on what
  // the round reads instead of dispatching its steps, and resumes on the
  // same grid with the same charges and tie order (sim/idle.h). Any other
  // wait spins.
  template <class Done, class Sweep = decltype(kNoSweep),
            class Abort = decltype(kNoAbort)>
  bool wait_until(Cadence c, Done done, Sweep sweep = {},
                  Abort abort = {}) const {
    const bool sweeps = c == Cadence::kPoll || c == Cadence::kSocketPoll;
    const bool charged = c == Cadence::kPoll || c == Cadence::kEventWord;
    const Time period = poll_period(c);
    if (charged) cpu->add_charged_waiter(1);
    struct Leave {
      Cpu* cpu;
      ~Leave() {
        if (cpu != nullptr) cpu->add_charged_waiter(-1);
      }
    } leave{charged ? cpu : nullptr};
    constexpr bool elidable = detail::watchable_v<Done> &&
                              detail::watchable_v<Abort> &&
                              detail::plannable_v<Sweep>;
    const bool parks = elidable && (charged || c == Cadence::kShmFlag);
    IdleWait idle(*engine, charged ? cpu : nullptr, period,
                  c == Cadence::kEventWord);
    // Where the round goes on: at its top, or after poll point `from`'s
    // charge (a parked wait resumed mid-round).
    std::size_t from = 0;
    bool paid = false;
    const auto park = [&](bool at_top) {
      idle.park(at_top);
      from = idle.resumed_step() == 0 ? 0 : idle.resumed_step() - 1;
      paid = idle.resumed_step() != 0;
    };
    for (;;) {
      if (!paid) {
        if (parks) detail::begin_round(idle, done, sweep, abort, period);
        if (done()) break;
        if (abort()) return false;
        // A round that starts quiet parks before its first charge.
        if (parks && detail::quiet(sweep) && idle.can_park()) {
          park(/*at_top=*/true);
          continue;
        }
      }
      if (sweeps && detail::run_sweep(sweep, from, paid) != 0) {
        from = 0;
        paid = false;
        continue;
      }
      from = 0;
      paid = false;
      if (parks && idle.can_park()) {
        park(/*at_top=*/false);
        continue;
      }
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
      case Cadence::kSocketPoll: return 4 * params->host_poll_ns;
      case Cadence::kThreaded: return 10 * params->host_poll_ns;
      case Cadence::kThreadExit: return kUs;
      case Cadence::kShmFlag: return params->shm_flag_ns;
      default: return params->host_poll_ns;
    }
  }
};

}  // namespace oqs::sim
