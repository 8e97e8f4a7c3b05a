// Exact idle-poll elision: a waiting fiber whose round found nothing parks
// on the words that round reads and resumes on its unchanged polling grid.
//
// A spinning wait (ProcessCtx::wait_until) runs steps of one length d: the
// idle step, then one host_poll_ns charge per poll point, each ending in a
// probe, then the idle step again. A wait parks at the start of its idle
// step, or at the top of a round whose probes would all find nothing; from
// park time t0, step g ends at t0 + (g+1)*d. Parked, the fiber dispatches
// none of them. The first change to a watched word (Signal::notify) resumes
// it at the first step of the grid that follows the changing event in dispatch order, with the tie key
// that step's event would have had (EventQueue::push_resumed), so it sorts
// among same-instant events exactly as the spinning loop's did. That key is
// the push count when the step was due to be pushed, i.e. when the previous
// step would have been dispatched; the engine logs its real dispatches while
// any fiber is parked, and the log gives that count.
//
// Charged steps run on the node's Cpu. A charged wait parks only while it is
// the Cpu's one charged waiter and the Cpu is otherwise idle, so every
// virtual charge costs exactly d with no switch. Cpu::busy_ns() counts them
// as they pass, and any other fiber's compute() first resumes the parked
// one (IdleWait::resume_at), turning the virtual steps back into real ones.
//
// Two resumed steps can share (when, seq) when no real push fell between
// their twins' pushes. Their twins were pushed when the previous steps ran,
// at when - d, so a longer step was pushed first. Grids of one step length
// tie only within a lane (same step, same phase), where they step in
// lockstep: whichever of two such steps ran first at one instant runs first
// at every later one. A wait joining a lane takes a rank that puts it after
// the members whose step at its park instant already ran, and before the
// rest; IdleWait::tie() folds step length and rank into the key.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

#include "sim/event_queue.h"
#include "sim/time.h"

namespace oqs::sim {

class Cpu;
class Engine;
class Fiber;
class IdleWait;

// A word a parked poller reads. Writers call notify() after every change
// that can alter what a probe of it returns. Over-notifying is harmless
// (the poller resumes and spins for real); a missed notify loses a wakeup.
class Signal {
 public:
  Signal() = default;
  Signal(const Signal&) = delete;
  Signal& operator=(const Signal&) = delete;
  ~Signal();

  // O(number of waits registered here); nothing else is scanned.
  void notify();

 private:
  friend class IdleWait;
  struct Watch* head_ = nullptr;
};

// One wait's registration on one Signal (set when registered).
struct Watch {
  IdleWait* owner;
  Signal* on;
  Watch* prev;
  Watch* next;
};

// A shared-memory word whose every write notifies its readers.
template <class T>
class Word {
 public:
  Word& operator=(T v) {
    v_ = v;
    signal_.notify();
    return *this;
  }
  operator T() const { return v_; }
  Signal& signal() { return signal_; }

 private:
  T v_{};
  Signal signal_;
};

// A wait predicate that reads only what `on` signals (nullptr: nothing that
// can change while the wait is parked).
template <class F>
struct Watched {
  Signal* on;
  F fn;
  bool operator()() const { return fn(); }
};
template <class F>
Watched<F> watched(Signal* on, F fn) {
  return {on, std::move(fn)};
}

// An idle round as data: poll points, each one host_poll_ns charge followed
// by a pure probe of one source, walked in order.
class PollPlan {
 public:
  virtual ~PollPlan() = default;
  // Walk the round from point `from`. With `paid`, that point's charge was
  // already taken (a parked poller resumes at the end of it). Returns the
  // work found, as a sweep does.
  virtual int sweep(std::size_t from, bool paid) = 0;
  // Register with `w` every source the round probes and return the number
  // of poll points; -1 if the round cannot be described as data now.
  virtual int watch(IdleWait& w) = 0;
  // No probe of the round would find anything now. Probes are pure, so a
  // round that starts quiet stays fruitless until a watched source changes.
  virtual bool quiet() const = 0;
  // The charge of one poll point.
  virtual Time point_ns() const = 0;
};

// One wait's parked state. It lives in the waiting fiber's frame.
class IdleWait {
 public:
  using Key = EventQueue::Key;
  static constexpr int kMaxWatches = 32;

  // `cpu` is the Cpu the round charges (nullptr: an uncharged cadence);
  // `idle_charged`: the idle step is a charge too (event-word reads).
  IdleWait(Engine& engine, Cpu* cpu, Time step, bool idle_charged)
      : engine_(engine), cpu_(cpu), step_(step), idle_charged_(idle_charged) {}
  IdleWait(const IdleWait&) = delete;
  IdleWait& operator=(const IdleWait&) = delete;
  ~IdleWait() { clear(); }

  // A round registers what it reads at its top, before its first probe, so
  // a change anywhere in the round marks it dirty; a dirty round does not
  // park. begin_round() drops the last round's registrations and returns
  // whether this round may park at all (cheap checks only).
  bool begin_round();
  // Register a source; false once the record is full (the wait then spins).
  bool watch(Signal* s);
  void set_points(std::size_t points) { points_ = points; }
  // Drop every registration: the round will not park.
  void clear();

  // The round registered, saw no change, and may park now: the engine is
  // not in a nested run, its lane has no resume pending and a rank free at
  // its place, and for a charged wait the Cpu allows it (Cpu::can_park).
  // Sets the rank park() will use.
  bool can_park();
  // Park the calling fiber (can_park() must hold) at the start of its idle
  // step, or with `at_top` at the start of the round's first poll point. On
  // return the fiber has resumed at the end of step resumed_step() of the
  // round (0: the idle step, i >= 1: poll point i-1) with that step's core
  // released; the registrations stay, so the rest of the round still sees
  // changes.
  void park(bool at_top = false);
  std::size_t resumed_step() const { return resumed_; }

  // --- Cpu side ---
  // Schedule the resume at the first step after dispatch position `at`.
  void resume_at(const Key& at);
  // CPU time the virtual steps have charged up to `at`.
  Time charged_ns(const Key& at) const;

 private:
  friend class Engine;
  friend class Signal;
  void notified();
  // Rebase past the engine's dispatch log, which is about to be cleared.
  void rebase(const Key& at);
  std::pair<Time, Time> lane_key() const { return {step_, t0_ % step_}; }
  Time end_of(std::uint64_t g) const {
    return t0_ + static_cast<Time>(g + 1) * step_;
  }
  Key key_of(std::uint64_t g, std::uint64_t v) const {
    return {end_of(g), 2 * v, tie()};
  }
  // Longer steps first (pushed earlier), then lane rank.
  std::uint64_t tie() const {
    return (static_cast<std::uint64_t>(0xffffffffu - step_) << 32) | rank_;
  }
  bool take_rank();
  // Step g's place in the round (0: the idle step).
  std::size_t phase(std::uint64_t g) const {
    return static_cast<std::size_t>((g + first_) % (points_ + 1));
  }
  bool is_charge(std::uint64_t g) const {
    return idle_charged_ || phase(g) != 0;
  }
  // Charges among steps 0..g: all of them, less the idle steps.
  std::uint64_t charges_through(std::uint64_t g) const {
    if (idle_charged_) return g + 1;
    return g + 1 - (g + first_) / (points_ + 1) - (first_ == 0 ? 1 : 0);
  }
  // Push count at dispatch position `at`, from the log.
  std::uint64_t pushes_before(const Key& at) const;
  bool logged_at(Time t) const;
  // Push count when step g was due to be pushed (its tie key).
  std::uint64_t due_pushes(std::uint64_t g) const;
  // The first step whose key follows `at`.
  std::uint64_t pending(const Key& at) const;
  void unlink();

  Engine& engine_;
  Cpu* cpu_;
  Time step_;
  bool idle_charged_;
  std::size_t points_ = 0;
  std::size_t first_ = 0;  // phase of step 0
  std::uint32_t rank_ = 0;  // order among the lane's grids
  Fiber* fiber_ = nullptr;
  int core_ = -1;
  Time t0_ = 0;
  // Base of the log-derived keys: step base_ is due with push count
  // base_pushes_; entries from log_base_ on postdate it, and with none
  // before a position the count there is pushes_at_base_.
  std::uint64_t base_ = 0;
  std::uint64_t base_pushes_ = 0;
  std::uint64_t pushes_at_base_ = 0;
  std::size_t log_base_ = 0;
  // The latest step whose due count is known (at or after base_): queries
  // move forward, and the log entries behind a known count never change.
  mutable std::uint64_t known_ = 0;
  mutable std::uint64_t known_pushes_ = 0;
  std::size_t slot_ = 0;  // index in the engine's parked list
  std::uint64_t resumed_step_ = 0;  // grid index of the resume step
  std::size_t resumed_ = 0;         // its step within the round
  bool armed_ = false;  // registered for this round
  bool parked_ = false;
  bool dirty_ = false;  // a registered source changed this round
  Watch watches_[kMaxWatches];
  int nwatches_ = 0;
};

}  // namespace oqs::sim
