// Time-ordered event queue with FIFO tie-breaking.
//
// Events dispatch in (when, seq) order: by time, and among events scheduled
// for the same instant in scheduling order, which makes the whole
// simulation deterministic. The n-th push carries seq = 2n+1. The odd
// values leave the even ones free for the steps of parked idle pollers
// (sim/idle.h), which are not pushed here: the engine keeps them beside the
// queue under the key 2v (v = the push count when their spinning twin would
// have been pushed), which sorts each exactly where that twin would have
// sat: after the v pushes made before it, ahead of every later one. Steps
// with equal (when, seq) were pushed in the same push gap, and `tie` orders
// them as their twins were pushed (Engine::tie_for).
//
// Structure: a 4-ary min-heap (`heap` below) of 24-byte (when, seq, node)
// entries over pooled event nodes, so a sift never touches a node. A heap
// is not stable: FIFO among ties comes from seq alone, which no two pushes
// share. Callables that fit a node (almost all) are built in place, and
// dispatched nodes go back on a free list, so the schedule/dispatch cycle
// allocates nothing. The engine's parked steps use the same heap.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.h"

namespace oqs::sim {

// A 4-ary min-heap in a vector, ordered by the entries' `key`: half as deep
// as a binary heap, a node's children in one or two cache lines. placed(i)
// runs for each entry that lands in slot i, so an owner can track where its
// entry is (a parked wait's slot_).
namespace heap {

inline constexpr std::size_t kArity = 4;

struct Unplaced {
  void operator()(std::size_t) const {}
};

// Move h[i] towards the leaves while its least child sorts before it.
// Which child is least is a coin flip, so it is selected with a mask, not
// a branch the CPU would mispredict about once a level.
template <typename T, typename Placed = Unplaced>
void sift_down(std::vector<T>& h, std::size_t i, Placed placed = {}) {
  const std::size_t n = h.size();
  const T x = h[i];
  for (;;) {
    const std::size_t first = kArity * i + 1;
    if (first >= n) break;
    const std::size_t end = first + kArity < n ? first + kArity : n;
    std::size_t best = first;
    for (std::size_t c = first + 1; c < end; ++c) {
      const std::size_t less = h[c].key < h[best].key;
      best ^= (best ^ c) & (0 - less);
    }
    if (!(h[best].key < x.key)) break;
    h[i] = h[best];
    placed(i);
    i = best;
  }
  h[i] = x;
  placed(i);
}

// Add x, moving it towards the root while it sorts before its parent.
template <typename T, typename Placed = Unplaced>
void push(std::vector<T>& h, const T& x, Placed placed = {}) {
  std::size_t i = h.size();
  h.push_back(x);
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!(x.key < h[parent].key)) break;
    h[i] = h[parent];
    placed(i);
    i = parent;
  }
  h[i] = x;
  placed(i);
}

// Remove and return the least entry.
template <typename T, typename Placed = Unplaced>
T pop(std::vector<T>& h, Placed placed = {}) {
  const T top = h.front();
  h.front() = h.back();
  h.pop_back();
  if (!h.empty()) sift_down(h, 0, placed);
  return top;
}

}  // namespace heap

class EventQueue {
 public:
  static constexpr std::size_t kInlineBytes = 96;

  // One pooled event node. The callable lives in `storage`; `invoke` runs
  // and destroys it, `destroy` only destroys (queue teardown with events
  // still pending). `next` chains the node free list.
  struct Event {
    Event* next;
    void (*invoke)(Event*);
    void (*destroy)(Event*);
    alignas(std::max_align_t) unsigned char storage[kInlineBytes];
  };
  // Two cache lines per node: header + room for a twelve-pointer capture.
  // Rarer, larger callables go to the heap (make()).
  static_assert(sizeof(Event) == 128);

  // A dispatch position in (when, seq, tie) order. A pushed event's tie is
  // 0; a parked step's orders it within its push gap.
  struct Key {
    Time when = 0;
    std::uint64_t seq = 0;
    std::uint64_t tie = 0;
    friend bool operator<(const Key& a, const Key& b) {
      if (a.when != b.when) return a.when < b.when;
      if (a.seq != b.seq) return a.seq < b.seq;
      return a.tie < b.tie;
    }
  };

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  ~EventQueue() {
    for (const Entry& p : heap_) p.event->destroy(p.event);
    // Slab memory is released wholesale by the vector of unique_ptrs.
  }

  template <typename F>
  void push(Time when, F&& fn) {
    heap::push(heap_,
               Entry{{when, 2 * seq_++ + 1}, make(std::forward<F>(fn))});
  }

  // Pushes so far (the tie counter).
  std::uint64_t pushes() const { return seq_; }

  bool empty() const { return heap_.empty(); }

  // Earliest pending timestamp, and its key.
  Time next_time() const { return next_key().when; }
  Key next_key() const {
    assert(!empty());
    return {heap_.front().key.when, heap_.front().key.seq, 0};
  }

  // Dequeue the earliest event (FIFO among equal timestamps) and report its
  // time. The caller runs it with run() and returns the node via recycle().
  Event* pop(Time* when) {
    assert(!empty());
    const Entry top = heap::pop(heap_);
    *when = top.key.when;
    return top.event;
  }

  // Execute the callable (it is destroyed before this returns).
  static void run(Event* e) { e->invoke(e); }

  // Return a dispatched node to the pool.
  void recycle(Event* e) {
    e->next = free_;
    free_ = e;
  }

 private:
  // A pushed event's key. Its tie is always 0, so the entry leaves it out.
  struct Stamp {
    Time when;
    std::uint64_t seq;
    friend bool operator<(const Stamp& a, const Stamp& b) {
      return a.when != b.when ? a.when < b.when : a.seq < b.seq;
    }
  };
  struct Entry {
    Stamp key;
    Event* event;
  };

  static constexpr std::size_t kSlabEvents = 512;

  template <typename F>
  Event* make(F&& fn) {
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) > kInlineBytes ||
                  alignof(Fn) > alignof(std::max_align_t)) {
      // Oversized: the node holds a callable that owns a heap copy.
      return make([h = std::make_unique<Fn>(std::forward<F>(fn))] { (*h)(); });
    } else {
      Event* e = alloc();
      ::new (static_cast<void*>(e->storage)) Fn(std::forward<F>(fn));
      e->invoke = [](Event* ev) {
        Fn* f = std::launder(reinterpret_cast<Fn*>(ev->storage));
        (*f)();
        f->~Fn();
      };
      e->destroy = [](Event* ev) {
        std::launder(reinterpret_cast<Fn*>(ev->storage))->~Fn();
      };
      return e;
    }
  }

  Event* alloc() {
    if (free_ == nullptr) carve_slab();
    Event* e = free_;
    free_ = e->next;
    return e;
  }

  void carve_slab() {
    // for_overwrite: a 64 KiB memset of memory placement-new is about to
    // claim anyway would be pure waste on the hot alloc path.
    slabs_.push_back(std::make_unique_for_overwrite<unsigned char[]>(
        kSlabEvents * sizeof(Event)));
    unsigned char* base = slabs_.back().get();
    for (std::size_t i = 0; i < kSlabEvents; ++i) {
      Event* e = ::new (static_cast<void*>(base + i * sizeof(Event))) Event;
      e->next = free_;
      free_ = e;
    }
  }

  std::vector<Entry> heap_;
  std::uint64_t seq_ = 0;
  Event* free_ = nullptr;
  std::vector<std::unique_ptr<unsigned char[]>> slabs_;
};

}  // namespace oqs::sim
