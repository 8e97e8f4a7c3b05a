// Exact idle-poll elision: a waiting fiber whose round found nothing parks
// on the words that round reads, and a replay runs its steps without it.
// Every wait (ProcessCtx::wait_until) names those words; one spins through
// a round only when the runtime refuses to park it (IdleWait::park).
//
// The spinning twin of a wait runs steps: the idle step, then
// one host_poll_ns charge per poll point, each ending in a probe, then the
// idle step again. Each step ends in one dispatch of the waiting fiber,
// which releases the core its charge held, probes, and starts the next
// step: it takes the lowest free core and pays Cpu::compute's price,
// dur * (1 + fsb_contention * busy others), plus ctx_switch_ns if the core
// last ran someone else. A wait parks at the start of its idle step, or at
// the top of a round whose probes would all find nothing, and from then on
// the engine keeps its pending step beside the event queue and replays it
// instead of dispatching it: the same release, take and charge on the same
// Cpu, in the same dispatch order, with no fiber switch. So the Cpu's
// cores, busy time and switches are the spinning twin's after every
// dispatch, and a foreign compute() sees what the twin would have left.
//
// A parked step sorts where its twin's event would have: (when, 2v, tie),
// v the push count when the twin was pushed (EventQueue), and tie the order
// of the twins pushed in one push gap: a longer step was pushed earlier,
// and steps pushed at one instant go in replay order (Engine::tie_for).
// Since the replay runs in dispatch order, that holds across Cpus too.
//
// The first change to a watched word (Signal::notify) wakes the wait: its
// pending step, the first after the notifying event, is dispatched for real
// and resumes the fiber where its twin would be. So does a step whose
// replay would have to queue for a core or hand one to a queued fiber. A
// Cpu holds at most one parked wait per core, so parked waits never queue
// for a core among themselves.
//
// Where order cannot matter the replay skips. A regular wait is alone on
// an otherwise idle Cpu with every step `step` long on core 0; its lane is
// its step length and phase. While no parked wait is irregular or woken, a
// lane's pushes share no (instant, length) with any other push, so its
// members, which step in lockstep, take tie ranks 0, 1, ... in the order
// they have and jump to the next event in O(1). An irregular wait whose
// Cpu sees nothing else advances whole rounds at a time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

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
  // of poll points; -1 if the round cannot be described as data now (the
  // wait then spins through it).
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
  Time step() const { return step_; }
  // Drop every registration: the round will not park.
  void clear();

  // Park the calling fiber at the start of its idle step, or with `at_top`
  // at the start of the round's first poll point. It parks only if the
  // round registered and saw no change, the engine is not in a nested run,
  // the Cpu has a core without a parked wait, and the step's charge finds
  // a free core; otherwise park() returns false at once. On true the fiber
  // has resumed at the end of step resumed_step() of the round (0: the idle
  // step, i >= 1: poll point i-1) with that step's core released; the
  // registrations stay, so the rest of the round still sees changes.
  bool park(bool at_top = false);
  std::size_t resumed_step() const { return resumed_; }

 private:
  friend class Cpu;
  friend class Engine;
  friend class Signal;
  void notified();
  // The pending step is dispatched for real: it resumes the fiber.
  void wake();
  bool is_charge(std::size_t phase) const {
    return idle_charged_ || phase != 0;
  }
  // Begin step `phase` at `at` as the twin would: take and charge a core if
  // it is a charge, and key its end. The charge must find a free core.
  void start_step(Time at, std::size_t phase);
  std::size_t charges() const {
    return cpu_ == nullptr ? 0 : idle_charged_ ? points_ + 1 : points_;
  }
  // Replay the pending step's end, and the steps after it, while they sort
  // before `bound` (nothing else is dispatched before it). Stops, woken, at
  // a step whose twin would queue for a core or hand one on.
  void advance(const Key& bound);
  // advance() in O(1) for a regular wait whose lane steps in lockstep with
  // no other push sharing an (instant, length) (Engine::skip_lane): its
  // pushes take tie rank `rank`, its place in the lane, instead of a place
  // in dispatch order.
  void skip(const Key& bound, std::uint32_t rank);
  // A fiber queues for a core on this wait's Cpu.
  bool blocks_a_fiber() const;
  // Work out the lane of the pushes to come (below); called whenever this
  // wait's Cpu or its own pending step changes.
  void classify();

  Engine& engine_;
  Cpu* cpu_;
  Time step_;
  bool idle_charged_;
  std::size_t points_ = 0;
  Fiber* fiber_ = nullptr;
  std::uint64_t serial_ = 0;  // the fiber's, read by every replayed charge
  Key next_{};             // the pending step's end, keyed as its twin's
  Time len_ = 0;           // its length
  std::size_t phase_ = 0;  // its place in the round (0: the idle step)
  int core_ = -1;          // the core its charge holds
  std::size_t resumed_ = 0;
  bool armed_ = false;  // registered for this round
  bool parked_ = false;
  bool dirty_ = false;  // a registered source changed this round
  bool woken_ = false;  // the pending step resumes the fiber
  // The lane: while nothing else touches the Cpu, every push of this wait,
  // the pending step's included, is lane_step_ long and ends on lane_phase_
  // modulo it; lane_step_ 0 means no such promise (irregular).
  Time lane_step_ = 0;
  Time lane_phase_ = 0;
  std::vector<IdleWait*>* lane_ = nullptr;  // the lane's regular waits
  std::size_t slot_ = 0;                    // index in the engine's heap
  Watch watches_[kMaxWatches];
  int nwatches_ = 0;
};

}  // namespace oqs::sim
