// One simulated process's handle on its host, and the one way a host fiber
// waits for communication progress: every blocking wait in the stack goes
// through ProcessCtx::wait_until, and a wait's idle periods live only here.
#pragma once

#include "base/params.h"
#include "sim/cpu.h"
#include "sim/engine.h"

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
  // any elision of those steps must keep. A wait allocates nothing.
  template <class Done, class Sweep = decltype(kNoSweep),
            class Abort = decltype(kNoAbort)>
  bool wait_until(Cadence c, Done done, Sweep sweep = {},
                  Abort abort = {}) const {
    const bool sweeps = c == Cadence::kPoll || c == Cadence::kSocketPoll;
    const Time period = poll_period(c);
    while (!done()) {
      if (abort()) return false;
      if (sweeps && sweep() != 0) continue;
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
