// Blocking primitives for fibers.
//
// Notifier  — stateless condition: wait() parks until a later notify.
// Flag      — one-shot latch: wait() returns immediately once set.
// Semaphore — counting semaphore.
// Mailbox<T>— FIFO of values with blocking receive.
//
// All wakeups go through Engine::unpark, so they take effect on the event
// loop, never by direct fiber-to-fiber switch.
#pragma once

#include <cassert>
#include <deque>
#include <optional>
#include <vector>

#include "sim/engine.h"
#include "sim/idle.h"

namespace oqs::sim {

class Notifier {
 public:
  explicit Notifier(Engine& e) : engine_(e) {}

  void wait() {
    waiters_.push_back(engine_.current());
    engine_.park();
  }

  // Wake every fiber currently waiting (not future waiters).
  void notify_all(Time delay = 0) {
    std::vector<Fiber*> batch;
    batch.swap(waiters_);
    for (Fiber* f : batch) engine_.unpark(f, delay);
  }

  void notify_one(Time delay = 0) {
    if (waiters_.empty()) return;
    Fiber* f = waiters_.front();
    waiters_.erase(waiters_.begin());
    engine_.unpark(f, delay);
  }

  std::size_t waiting() const { return waiters_.size(); }

 private:
  Engine& engine_;
  std::vector<Fiber*> waiters_;
};

class Flag {
 public:
  explicit Flag(Engine& e) : engine_(e), cond_(e) {}

  void wait() {
    while (!set_) cond_.wait();
  }
  void set(Time delay = 0) {
    set_ = true;
    cond_.notify_all(delay);
    signal_.notify();
  }
  bool is_set() const { return set_; }
  void reset() { set_ = false; }
  // Notified on set(), for idle waits polling is_set().
  Signal& signal() { return signal_; }

 private:
  Engine& engine_;
  Notifier cond_;
  Signal signal_;
  bool set_ = false;
};

class Semaphore {
 public:
  Semaphore(Engine& e, std::size_t initial) : engine_(e), cond_(e), count_(initial) {}

  void acquire() {
    while (count_ == 0) cond_.wait();
    --count_;
  }
  void release(std::size_t n = 1) {
    count_ += n;
    for (std::size_t i = 0; i < n; ++i) cond_.notify_one();
  }
  std::size_t available() const { return count_; }

 private:
  Engine& engine_;
  Notifier cond_;
  std::size_t count_;
};

template <typename T>
class Mailbox {
 public:
  explicit Mailbox(Engine& e) : cond_(e) {}

  void send(T value) {
    queue_.push_back(std::move(value));
    cond_.notify_one();
  }

  T recv() {
    while (queue_.empty()) cond_.wait();
    T v = std::move(queue_.front());
    queue_.pop_front();
    return v;
  }

  std::optional<T> try_recv() {
    if (queue_.empty()) return std::nullopt;
    T v = std::move(queue_.front());
    queue_.pop_front();
    return v;
  }

  bool empty() const { return queue_.empty(); }
  std::size_t size() const { return queue_.size(); }

 private:
  Notifier cond_;
  std::deque<T> queue_;
};

}  // namespace oqs::sim
