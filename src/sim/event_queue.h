// Time-ordered event queue with FIFO tie-breaking.
//
// Events scheduled for the same instant execute in scheduling order, which
// makes the whole simulation deterministic. The n-th push carries tie key
// seq = 2n+1. A parked idle poller (sim/idle.h) resumes with push_resumed(),
// whose key 2v (v = the push count when its spinning twin would have been
// pushed) sorts it exactly where that twin would have sat: after the v
// pushes made before it, ahead of every later one. Two resumed steps with
// equal (when, seq) were due in the same push gap, and `tie` orders them
// as their twins were pushed (IdleWait::tie).
//
// Structure: a calendar queue (R. Brown, CACM '88) over intrusive,
// pool-allocated event nodes. The near future — `epoch_` plus
// `num_buckets * width` ns — lives in an array of per-bucket sorted lists,
// so the hot schedule/dispatch cycle is O(1) amortized with no per-event
// heap allocation: callables small enough for the node's inline storage
// (almost everything the simulator schedules) are constructed in place, and
// dispatched nodes go back on a free list. Events beyond the near horizon
// (retransmission timers, OOB waits) overflow into a pooled binary heap and
// migrate into the calendar when the horizon reaches them, so a long quiet
// gap costs one heap pop, not a scan. Bucket width halves when intra-bucket
// insertion walks get long and doubles when migrations arrive in dribbles;
// both decisions depend only on the push/pop sequence, so a given workload
// always sees the identical structure — and the (when, seq) dispatch order
// is invariant under all of it, which is what keeps same-seed replay
// digests bit-identical to the old binary-heap kernel.
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

class EventQueue {
 public:
  static constexpr std::size_t kInlineBytes = 80;

  // One pooled event node. The callable lives in `storage` (or, past
  // kInlineBytes, in one heap holder referenced from it); `invoke` runs and
  // destroys it, `destroy` only destroys (queue teardown with events still
  // pending). `next` chains bucket lists and the node free list.
  struct Event {
    Time when;
    std::uint64_t seq;
    std::uint64_t tie;  // resumed idle steps: order within one push gap
    Event* next;
    void (*invoke)(Event*);
    void (*destroy)(Event*);
    alignas(std::max_align_t) unsigned char storage[kInlineBytes];
  };
  // Two cache lines per node: header + room for a ten-pointer capture. The
  // node size is what the dispatch loop streams through, so keep it tight;
  // rarer, larger callables take the heap-holder path in push().
  static_assert(sizeof(Event) == 128);

  // A dispatch position in (when, seq, tie) order.
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

  EventQueue() { buckets_.resize(kInitialBuckets); }
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  ~EventQueue() {
    for (Bucket& b : buckets_)
      for (Event* e = b.head; e != nullptr; e = e->next) e->destroy(e);
    for (Event* e : far_) e->destroy(e);
    for (Event* e : resumed_) e->destroy(e);
    // Slab memory is released wholesale by the vector of unique_ptrs.
  }

  template <typename F>
  void push(Time when, F&& fn) {
    insert(make(when, 2 * seq_++ + 1, 0, std::forward<F>(fn)));
  }

  // Schedule a parked poller's resume step with the key its spinning twin
  // would have had: `pushes` pushes had happened when the twin was due to be
  // pushed, and `tie` orders it among resumed steps due in the same gap.
  // Resumed steps wait in a small heap of their own: they sort ahead of
  // the later pushes at their instant, so inserting them into a calendar
  // bucket would walk every same-instant event there.
  template <typename F>
  void push_resumed(Time when, std::uint64_t pushes, std::uint64_t tie,
                    F&& fn) {
    heap_push(resumed_, make(when, 2 * pushes, tie, std::forward<F>(fn)));
  }

  // Pushes so far (the tie counter).
  std::uint64_t pushes() const { return seq_; }

  static Key key_of(const Event* e) { return {e->when, e->seq, e->tie}; }

  bool empty() const { return calendar_empty() && resumed_.empty(); }
  std::size_t size() const {
    return near_size_ + far_.size() + resumed_.size();
  }

  // Earliest pending timestamp. The scan position only ever moves forward
  // to the first occupied bucket, so caching it keeps the following pop at
  // O(1); pushes of earlier events move it back.
  Time next_time() const {
    assert(!empty());
    if (calendar_empty()) return resumed_.front()->when;
    Time t = far_.empty() ? 0 : far_.front()->when;
    if (near_size_ != 0) {
      while (buckets_[cur_].head == nullptr) ++cur_;
      t = buckets_[cur_].head->when;
    }
    if (!resumed_.empty() && resumed_.front()->when < t)
      t = resumed_.front()->when;
    return t;
  }

  // Dequeue the earliest event (FIFO among equal timestamps) and report its
  // time. The caller runs it with run() and returns the node via recycle();
  // owning the nodes outright is what removes the old const_cast move-out
  // from the std::priority_queue era.
  Event* pop(Time* when) {
    assert(!empty());
    Event* e = nullptr;
    if (!calendar_empty()) {
      if (near_size_ == 0) replenish();
      while (buckets_[cur_].head == nullptr) ++cur_;
      e = buckets_[cur_].head;
    }
    if (e != nullptr && (resumed_.empty() || earlier(e, resumed_.front()))) {
      Bucket& b = buckets_[cur_];
      b.head = e->next;
      if (b.head == nullptr) b.tail = nullptr;
      --near_size_;
    } else {
      e = heap_pop(resumed_);
    }
    *when = e->when;
    return e;
  }

  // Execute the callable (it is destroyed before this returns).
  static void run(Event* e) { e->invoke(e); }

  // Return a dispatched node to the pool.
  void recycle(Event* e) {
    e->next = free_;
    free_ = e;
  }

  // Structure introspection (tests and DESIGN.md numbers).
  std::size_t num_buckets() const { return buckets_.size(); }
  Time bucket_width() const { return Time{1} << width_shift_; }
  std::size_t far_size() const { return far_.size(); }

 private:
  struct Bucket {
    Event* head = nullptr;
    Event* tail = nullptr;
  };

  static constexpr std::size_t kInitialBuckets = 256;
  static constexpr std::size_t kMaxBuckets = 65536;
  static constexpr int kInitialWidthShift = 6;  // 64 ns buckets
  static constexpr int kMaxWidthShift = 40;     // ~18 min of simulated time
  static constexpr std::size_t kSlabEvents = 512;
  static constexpr std::size_t kNodeBytes = sizeof(Event);

  bool calendar_empty() const { return near_size_ == 0 && far_.empty(); }

  static bool earlier(const Event* a, const Event* b) {
    if (a->when != b->when) return a->when < b->when;
    if (a->seq != b->seq) return a->seq < b->seq;
    return a->tie < b->tie;
  }

  template <typename F>
  Event* make(Time when, std::uint64_t seq, std::uint64_t tie, F&& fn) {
    using Fn = std::decay_t<F>;
    Event* e = alloc();
    e->when = when;
    e->seq = seq;
    e->tie = tie;
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(e->storage)) Fn(std::forward<F>(fn));
      e->invoke = [](Event* ev) {
        Fn* f = std::launder(reinterpret_cast<Fn*>(ev->storage));
        (*f)();
        f->~Fn();
      };
      e->destroy = [](Event* ev) {
        std::launder(reinterpret_cast<Fn*>(ev->storage))->~Fn();
      };
    } else {
      // Oversized callable: one heap holder, pointer parked inline.
      Fn* f = new Fn(std::forward<F>(fn));
      ::new (static_cast<void*>(e->storage)) Fn*(f);
      e->invoke = [](Event* ev) {
        Fn* h = *std::launder(reinterpret_cast<Fn**>(ev->storage));
        (*h)();
        delete h;
      };
      e->destroy = [](Event* ev) {
        delete *std::launder(reinterpret_cast<Fn**>(ev->storage));
      };
    }
    return e;
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
    slabs_.push_back(
        std::make_unique_for_overwrite<unsigned char[]>(kSlabEvents * kNodeBytes));
    unsigned char* base = slabs_.back().get();
    for (std::size_t i = 0; i < kSlabEvents; ++i) {
      Event* e = ::new (static_cast<void*>(base + i * kNodeBytes)) Event;
      e->next = free_;
      free_ = e;
    }
  }

  Time span() const {
    return static_cast<Time>(buckets_.size()) << width_shift_;
  }

  // Bucket widths are powers of two so the per-push time-to-bucket mapping
  // is a subtract and a shift, not a 64-bit division.
  std::size_t index_of(Time when) const {
    if (when <= epoch_) return 0;
    const std::uint64_t idx =
        static_cast<std::uint64_t>(when - epoch_) >> width_shift_;
    return idx < buckets_.size() ? static_cast<std::size_t>(idx)
                                 : buckets_.size();  // sentinel: beyond horizon
  }

  void insert(Event* e) {
    const std::size_t idx = index_of(e->when);
    if (idx == buckets_.size()) {
      far_push(e);
      return;
    }
    insert_near(e, idx);
    maybe_adapt();
  }

  void insert_near(Event* e, std::size_t idx) {
    if (idx < cur_) cur_ = idx;
    ++near_size_;
    ++near_pushes_;
    Bucket& b = buckets_[idx];
    if (b.head == nullptr) {
      e->next = nullptr;
      b.head = b.tail = e;
      return;
    }
    // Monotone pushes (same-instant FIFO bursts, steadily advancing time)
    // append at the tail in O(1); only out-of-order pushes walk.
    if (!earlier(e, b.tail)) {
      e->next = nullptr;
      b.tail->next = e;
      b.tail = e;
      return;
    }
    if (earlier(e, b.head)) {
      e->next = b.head;
      b.head = e;
      return;
    }
    Event* p = b.head;
    while (p->next != nullptr && !earlier(e, p->next)) {
      p = p->next;
      ++walk_steps_;
    }
    e->next = p->next;
    p->next = e;
  }

  // ---- binary min-heaps on (when, seq, tie): the far tier, resumed steps

  static void heap_push(std::vector<Event*>& h, Event* e) {
    h.push_back(e);
    std::size_t i = h.size() - 1;
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!earlier(h[i], h[parent])) break;
      std::swap(h[i], h[parent]);
      i = parent;
    }
  }

  static Event* heap_pop(std::vector<Event*>& h) {
    Event* top = h.front();
    h.front() = h.back();
    h.pop_back();
    std::size_t i = 0;
    const std::size_t n = h.size();
    for (;;) {
      std::size_t best = i;
      const std::size_t l = 2 * i + 1;
      const std::size_t r = 2 * i + 2;
      if (l < n && earlier(h[l], h[best])) best = l;
      if (r < n && earlier(h[r], h[best])) best = r;
      if (best == i) break;
      std::swap(h[i], h[best]);
      i = best;
    }
    return top;
  }
  void far_push(Event* e) { heap_push(far_, e); }
  Event* far_pop() { return heap_pop(far_); }

  // The calendar drained: jump the horizon to the next far event and pull
  // everything inside the new window across. If the last window caught only
  // a dribble while the heap stayed deep, the width is too fine for the
  // current event spacing — double it first.
  void replenish() {
    assert(!far_.empty());
    if (last_migration_ < 8 && far_.size() > 64 && width_shift_ < kMaxWidthShift)
      ++width_shift_;
    epoch_ = far_.front()->when;
    cur_ = 0;
    const Time bound = epoch_ + span();
    std::size_t moved = 0;
    while (!far_.empty() && far_.front()->when < bound) {
      Event* e = far_pop();
      insert_near(e, index_of(e->when));
      ++moved;
    }
    last_migration_ = moved;
  }

  // Periodic density check. Deep buckets are only a problem when they force
  // insertion walks — a million same-instant events tail-append and
  // head-pop in O(1) no matter how deep the bucket — so the trigger is the
  // walk-to-push ratio over a window, not the raw population. Both the
  // trigger and the new geometry depend only on the queue's contents, so a
  // given push/pop sequence always produces the identical structure.
  void maybe_adapt() {
    if (near_pushes_ < kAdaptWindow) return;
    if (walk_steps_ > near_pushes_) rebuild();
    near_pushes_ = 0;
    walk_steps_ = 0;
  }

  static constexpr std::uint64_t kAdaptWindow = 1024;

  // Resize the calendar to fit what it currently holds (Brown's calendar
  // queue sizes from sampled inter-event gaps; the sorted bucket lists give
  // us the exact min/max for free). Width tracks the mean gap so a bucket
  // holds only a few distinct timestamps; the bucket count tracks the event
  // population so buckets stay shallow.
  void rebuild() {
    // Concatenating the bucket lists in order yields all near events in
    // global (when, seq) order, so re-insertion is pure tail-appends.
    Event* head = nullptr;
    Event** tail = &head;
    Time max_when = epoch_;
    for (Bucket& b : buckets_) {
      if (b.head == nullptr) continue;
      *tail = b.head;
      tail = &b.tail->next;
      max_when = b.tail->when;
      b.head = b.tail = nullptr;
    }
    *tail = nullptr;
    if (head != nullptr) {
      epoch_ = head->when;  // re-anchor: bucket 0 starts at the earliest event
      const Time gap = (max_when - epoch_) / static_cast<Time>(near_size_);
      // Walks triggered this rebuild, so the width shrinks even when the
      // mean gap says otherwise: bursts of same-instant events (ranks in
      // lockstep, their idle waits parked) keep the mean gap wide while
      // each burst crowds one bucket.
      const int walked = width_shift_;
      width_shift_ = 0;
      while ((Time{1} << width_shift_) <= gap && width_shift_ < kMaxWidthShift)
        ++width_shift_;
      if (width_shift_ >= walked && walked > 0) width_shift_ = walked - 1;
      std::size_t want = kInitialBuckets;
      while (want < near_size_ && want < kMaxBuckets) want *= 2;
      buckets_.assign(want, Bucket{});
    } else {
      buckets_.assign(buckets_.size(), Bucket{});
    }
    near_size_ = 0;
    cur_ = 0;
    while (head != nullptr) {
      Event* e = head;
      head = head->next;
      const std::size_t idx = index_of(e->when);
      if (idx == buckets_.size())
        far_push(e);
      else
        insert_near(e, idx);
    }
    // A wider horizon may now cover events parked in the far heap; pull
    // them in so the far tier stays strictly beyond every near event.
    const Time bound = epoch_ + span();
    while (!far_.empty() && far_.front()->when < bound) {
      Event* e = far_pop();
      insert_near(e, index_of(e->when));
    }
    near_pushes_ = 0;
    walk_steps_ = 0;
  }

  std::vector<Bucket> buckets_;
  mutable std::size_t cur_ = 0;  // first possibly-occupied bucket
  Time epoch_ = 0;               // time at the start of bucket 0
  int width_shift_ = kInitialWidthShift;
  std::size_t near_size_ = 0;
  std::vector<Event*> far_;
  std::vector<Event*> resumed_;
  std::uint64_t seq_ = 0;
  std::uint64_t near_pushes_ = 0;
  std::uint64_t walk_steps_ = 0;
  std::size_t last_migration_ = kAdaptWindow;  // no doubling before data
  Event* free_ = nullptr;
  std::vector<std::unique_ptr<unsigned char[]>> slabs_;
};

}  // namespace oqs::sim
