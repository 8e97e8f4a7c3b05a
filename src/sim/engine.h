// The discrete-event simulation engine.
//
// Owns the event queue and all fibers. Plain events are callbacks at a
// timestamp; fibers block by parking themselves and are made runnable again
// via unpark(), which enqueues a resume event (fibers are never switched to
// directly from another fiber — all control flow goes through the loop, so
// same-instant wakeups preserve FIFO order).
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "sim/fiber.h"
#include "sim/time.h"

namespace oqs::sim {

class IdleWait;

class Engine {
 public:
  using Key = EventQueue::Key;

  Engine();
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  Time now() const { return now_; }

  // Schedule a callback `delay` ns from now. Any move-constructible
  // callable goes straight into the queue's pooled node storage — no
  // std::function wrapper, no per-event allocation for small captures.
  template <typename F>
  void schedule(Time delay, F&& cb) {
    queue_.push(now_ + delay, std::forward<F>(cb));
  }
  template <typename F>
  void schedule_at(Time when, F&& cb) {
    assert(when >= now_);
    queue_.push(when, std::forward<F>(cb));
  }

  // Create a fiber that starts running at the current time.
  Fiber* spawn(std::string name, std::function<void()> body);

  // --- Callable only from inside a fiber ---
  Fiber* current() const { return current_; }
  bool in_fiber() const { return current_ != nullptr; }
  // Block the current fiber until unpark()ed.
  void park();
  // Block the current fiber for `dur` simulated ns.
  void sleep(Time dur);

  // --- Callable from anywhere ---
  // Make a parked fiber runnable after `delay` ns.
  void unpark(Fiber* f, Time delay = 0);

  // Run until the queue drains or stop() is called. Returns the final time.
  // Parked idle waits (sim/idle.h) replay their steps between events; once
  // nothing else is pending and none of them can wake, they are waits
  // nothing will ever end, and spinning, run() would never return. It
  // stops, logs an error naming the waits, and parked_waits() stays nonzero.
  Time run();
  // Run no event past `deadline`; now() advances to at most `deadline`.
  Time run_until(Time deadline);
  void stop() { stopped_ = true; }

  std::size_t live_fibers() const;
  // All fibers currently held, finished-but-unreaped ones included.
  std::size_t fiber_count() const { return fibers_.size(); }
  std::uint64_t events_executed() const { return events_executed_; }
  // Idle waits parked on their polling grid (sim/idle.h).
  std::size_t parked_waits() const { return parked_.size(); }

  // --- Fiber stack pool ---
  // Stacks are recycled through a free list when fibers are reaped; the
  // size knob applies to subsequently spawned fibers (a change drops the
  // pooled stacks of the old size). Default 256 KiB, overridable with the
  // OQS_SIM_STACK_BYTES environment variable; clamped to >= 64 KiB.
  std::size_t stack_bytes() const { return stack_bytes_; }
  void set_stack_bytes(std::size_t bytes);
  std::uint64_t stacks_allocated() const { return stacks_allocated_; }
  std::size_t pooled_stacks() const { return stack_pool_.size(); }
  // Overflow canary: the low (overflow-target) bytes of every stack carry a
  // pattern checked when the stack is recycled; a violated stack is counted,
  // reported, and dropped instead of reused.
  std::uint64_t stack_canary_violations() const { return canary_violations_; }

 private:
  friend class Fiber;
  friend class IdleWait;
  // Dispatch the next event, or replay parked steps up to it and to no
  // later than `deadline`; true if an event was dispatched.
  bool dispatch_one(Time deadline);
  // Something is pending that can run: an event, a woken parked wait, or a
  // parked wait whose replay will wake it (a fiber queues for its core).
  bool live() const;
  Time next_time() const;
  void report_parked() const;
  // The tie of a parked step pushed at `at`, `len` ns long. Of the twins
  // that end at one instant within one push gap, a longer one was pushed
  // earlier, and those pushed at one instant went in dispatch order; the
  // ranks given here lie above every rank a skipped lane takes
  // (skip_lane). Calls come in dispatch order.
  std::uint64_t tie_for(Time at, Time len);
  static std::uint64_t tie_of(Time len, std::uint32_t rank) {
    return (static_cast<std::uint64_t>(0xffffffffu - len) << 32) | rank;
  }
  // The heap of parked waits, on their pending steps' keys.
  void add_parked(IdleWait* w);
  void sift_parked(std::size_t i);
  void swap_parked(std::size_t a, std::size_t b);
  // Regular parked waits by lane (IdleWait::classify).
  void join_lane(IdleWait& w);
  void leave_lane(IdleWait& w);
  // Skip the lane of the parked wait at the top of the heap up to `bound`
  // if no push outside the lane can share an (instant, length) with its
  // members'; false if it may not.
  bool skip_lane(const Key& bound);
  void resume(Fiber* f);
  void reap();

  std::unique_ptr<char[]> acquire_stack();
  void release_stack(std::unique_ptr<char[]> stack, std::size_t bytes);
  static void arm_canary(char* base);
  static bool canary_ok(const char* base);

  EventQueue queue_;
  Time now_ = 0;
  bool stopped_ = false;
  bool running_ = false;
  // A reap requested while a fiber was current (a nested run_until() from
  // fiber context, or a stop() that unwound mid-dispatch) must not be
  // dropped: it is deferred to the next time the engine loop owns the
  // stack, where freeing fiber stacks is safe.
  bool reap_pending_ = false;
  Fiber* current_ = nullptr;
  void* loop_sp_ = nullptr;  // the engine loop's stack while a fiber runs
  std::size_t stack_bytes_;
  std::vector<std::unique_ptr<char[]>> stack_pool_;
  std::uint64_t stacks_allocated_ = 0;
  std::uint64_t canary_violations_ = 0;
  std::vector<std::unique_ptr<Fiber>> fibers_;
  std::uint64_t fibers_spawned_ = 0;  // last serial handed out
  std::uint64_t events_executed_ = 0;
  int depth_ = 0;  // dispatches in progress (nested run_until() adds one)
  // Parked idle waits, a min-heap on their pending steps' keys (kept here
  // too, so sifting reads one array, not the waits' fiber stacks), and how
  // many of those steps will resume their fibers.
  struct Parked {
    Key key;
    IdleWait* wait;
  };
  static constexpr std::size_t kArity = 4;  // a shallower heap sifts faster
  std::vector<Parked> parked_;
  std::size_t woken_ = 0;
  // tie_for(): the parked steps pushed so far at instant tie_at_.
  Time tie_at_ = 0;
  std::uint32_t ties_ = 0;
  // Regular parked waits by step and phase (lanes_[step][phase], grown on
  // first use and never shrunk, so a lane's address is stable), and how
  // many are irregular.
  std::map<Time, std::vector<std::vector<IdleWait*>>> lanes_;
  std::size_t irregular_ = 0;
};

}  // namespace oqs::sim
