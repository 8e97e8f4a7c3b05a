#include "sim/engine.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <new>

#include <sys/mman.h>

#include "base/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/idle.h"

#if defined(__SANITIZE_ADDRESS__)
#define OQS_SIM_ASAN_STACKS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define OQS_SIM_ASAN_STACKS 1
#endif
#endif
#ifdef OQS_SIM_ASAN_STACKS
#include <sanitizer/asan_interface.h>
#endif

namespace oqs::sim {

namespace {
// A pooled stack belongs to no fiber: under ASan it is poisoned, so a
// pointer into a reaped fiber's frame faults on first use instead of
// reading whatever the next fiber put there.
void poison_stack([[maybe_unused]] char* base,
                  [[maybe_unused]] std::size_t bytes,
                  [[maybe_unused]] bool poison) {
#ifdef OQS_SIM_ASAN_STACKS
  if (poison)
    __asan_poison_memory_region(base, bytes);
  else
    __asan_unpoison_memory_region(base, bytes);
#endif
}

constexpr std::size_t kDefaultStackBytes = 256 * 1024;
constexpr std::size_t kMinStackBytes = 64 * 1024;
constexpr char kCanaryByte = 0x5C;

std::size_t initial_stack_bytes() {
  const char* v = std::getenv("OQS_SIM_STACK_BYTES");
  if (v == nullptr || v[0] == '\0') return kDefaultStackBytes;
  const long long n = std::atoll(v);
  if (n < static_cast<long long>(kMinStackBytes)) return kMinStackBytes;
  return static_cast<std::size_t>(n);
}
}  // namespace

void StackUnmap::operator()(char* base) const noexcept {
  poison_stack(base, bytes, false);
  ::munmap(base, bytes);
}

Engine::Engine() : stack_bytes_(initial_stack_bytes()) {
  log::set_clock([this] { return now_; });
  obs::set_clock([this] { return now_; });
}

Engine::~Engine() {
  log::set_clock(nullptr);
  obs::set_clock(nullptr);
}

void Engine::set_stack_bytes(std::size_t bytes) {
  if (bytes < kMinStackBytes) bytes = kMinStackBytes;
  if (bytes != stack_bytes_) stack_pool_.clear();  // pooled stacks are sized
  stack_bytes_ = bytes;
}

void Engine::arm_canary(char* base) {
  std::memset(base, kCanaryByte, kStackCanaryBytes);
}

bool Engine::canary_ok(const char* base) {
  for (std::size_t i = 0; i < kStackCanaryBytes; ++i)
    if (base[i] != kCanaryByte) return false;
  return true;
}

Stack Engine::acquire_stack() {
  if (!stack_pool_.empty()) {
    Stack s = std::move(stack_pool_.back());
    stack_pool_.pop_back();
    poison_stack(s.get(), stack_bytes_, false);
    return s;  // canary still armed from release_stack()
  }
  ++stacks_allocated_;
  void* base = ::mmap(nullptr, stack_bytes_, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (base == MAP_FAILED) throw std::bad_alloc();
#ifdef MADV_NOHUGEPAGE
  // Neighbouring stacks merge into one mapping; a huge page there would
  // commit 2 MiB on a fiber's first touch.
  ::madvise(base, stack_bytes_, MADV_NOHUGEPAGE);
#endif
  Stack s(static_cast<char*>(base), StackUnmap{stack_bytes_});
  arm_canary(s.get());
  return s;
}

void Engine::release_stack(Stack stack) {
  if (stack == nullptr) return;
  if (!canary_ok(stack.get())) {
    ++canary_violations_;
    OQS_METRIC_INC("sim.fiber.stack_overflows");
    log::error("sim", "fiber stack canary destroyed (stack overflow?); "
               "dropping the stack — raise OQS_SIM_STACK_BYTES");
    return;  // do not recycle a stack something wrote past
  }
  const std::size_t bytes = stack.get_deleter().bytes;
  if (bytes != stack_bytes_) return;
  poison_stack(stack.get(), bytes, true);
  stack_pool_.push_back(std::move(stack));
}

Fiber* Engine::spawn(std::string name, std::function<void()> body) {
  fibers_.push_back(std::make_unique<Fiber>(*this, ++fibers_spawned_,
                                            std::move(name), std::move(body)));
  Fiber* f = fibers_.back().get();
  OQS_METRIC_INC("sim.fiber.spawned");
  OQS_TRACE_INSTANT(-1, "sim", "fiber.spawn", "live", fibers_.size());
  queue_.push(now_, [this, f] { resume(f); });
  return f;
}

void Engine::park() {
  assert(current_ != nullptr && "park() outside a fiber");
  OQS_METRIC_INC("sim.fiber.park");
  OQS_TRACE_INSTANT(-1, "sim", "fiber.park");
  current_->leave(Fiber::State::kBlocked);
}

void Engine::sleep(Time dur) {
  assert(current_ != nullptr && "sleep() outside a fiber");
  Fiber* f = current_;
  queue_.push(now_ + dur, [this, f] { resume(f); });
  park();
}

void Engine::unpark(Fiber* f, Time delay) {
  assert(f != nullptr);
  OQS_METRIC_INC("sim.fiber.unpark");
  OQS_TRACE_INSTANT(-1, "sim", "fiber.unpark", "delay", delay);
  queue_.push(now_ + delay, [this, f] { resume(f); });
}

void Engine::resume(Fiber* f) {
  if (f->done()) return;  // fiber exited before a queued wakeup fired
  if (f->state() != Fiber::State::kBlocked && f->state() != Fiber::State::kReady) {
    log::error("sim", "resume of fiber '", f->name(), "' in bad state");
    return;
  }
  if (f->state() == Fiber::State::kBlocked) f->state_ = Fiber::State::kReady;
  Fiber* prev = current_;
  current_ = f;
  f->enter(prev == nullptr ? &loop_sp_ : &prev->sp_);
  current_ = prev;
  // A finished fiber's stack goes back to the pool at once; the Fiber
  // itself waits for reap(), since queued wakeups may still name it. The
  // reap cadence counts dispatches, which parked idle waits make sparse.
  if (f->done()) release_stack(std::move(f->stack_));
}

bool Engine::dispatch_one(Time deadline) {
  IdleWait* w = nullptr;
  if (!parked_.empty()) {
    // Replay the parked steps that sort before the next event and end by
    // `deadline`: a lane that may skip goes to the next event at once, any
    // other wait up to the next parked step.
    Key next{deadline, ~std::uint64_t{0}, ~std::uint64_t{0}};
    if (!queue_.empty()) next = std::min(next, queue_.next_key());
    while (parked_.front().key < next && !(w = parked_.front().wait)->woken_) {
      if (skip_lane(next)) continue;
      Key bound = next;
      for (std::size_t c = 1; c <= heap::kArity && c < parked_.size(); ++c)
        bound = std::min(bound, parked_[c].key);
      w->advance(bound);
      parked_.front().key = w->next_;
      heap::sift_down(parked_, 0, Slots{this});
    }
    w = parked_.front().wait;
    if (w->woken_ && parked_.front().key < next) {
      heap::pop(parked_, Slots{this});
      --woken_;
      now_ = w->next_.when;
    } else {
      w = nullptr;
      if (queue_.empty() || queue_.next_time() > deadline) return false;
    }
  }
  EventQueue::Event* ev = w == nullptr ? queue_.pop(&now_) : nullptr;
  ++events_executed_;
  // Hot path: with OQS_TRACE=OFF this compiles away; with it ON but no
  // tracer installed it is one load and a never-taken branch. Every
  // dispatched event enters the digest, so the replay fingerprint covers
  // the DES's complete execution order, not just protocol milestones.
  OQS_TRACE_INSTANT(-1, "sim", "dispatch", "n", events_executed_);
  ++depth_;
  if (w != nullptr) {
    resume(w->fiber_);
  } else {
    EventQueue::run(ev);
    queue_.recycle(ev);
  }
  --depth_;
  return true;
}

bool Engine::live() const {
  if (!queue_.empty() || woken_ > 0) return true;
  for (const Parked& p : parked_)
    if (p.wait->blocks_a_fiber()) return true;
  return false;
}

Time Engine::next_time() const {
  if (queue_.empty()) return parked_.front().key.when;
  if (parked_.empty()) return queue_.next_time();
  return std::min(queue_.next_time(), parked_.front().key.when);
}

std::uint64_t Engine::tie_for(Time at, Time len) {
  assert(len <= 0xffffffffu);
  if (at != tie_at_) {
    tie_at_ = at;
    ties_ = 0;
  }
  // Above every rank a skipped lane hands out (skip_lane).
  return tie_of(len, 0x80000000u | ++ties_);
}

void Engine::join_lane(IdleWait& w) {
  if (w.lane_step_ == 0) {
    ++irregular_;
    w.lane_ = nullptr;
    return;
  }
  auto& phases = lanes_[w.lane_step_];
  if (phases.empty()) phases.resize(static_cast<std::size_t>(w.lane_step_));
  w.lane_ = &phases[static_cast<std::size_t>(w.lane_phase_)];
  w.lane_->push_back(&w);
}

void Engine::leave_lane(IdleWait& w) {
  if (w.lane_ == nullptr)
    --irregular_;
  else
    std::erase(*w.lane_, &w);
}

bool Engine::skip_lane(const Key& bound) {
  // An irregular wait may push at any (instant, length), and a woken one's
  // step is an event to come.
  IdleWait& top = *parked_.front().wait;
  if (irregular_ != 0 || woken_ != 0 || top.lane_ == nullptr) return false;
  // Nothing has pushed at this instant in dispatch order yet, and every
  // member ends its pending step now, before `bound`: they step in
  // lockstep, in the order they have now, each pushing at instants no
  // other lane pushes at.
  const Time now = top.next_.when;
  if (tie_at_ == now && ties_ != 0) return false;
  std::vector<IdleWait*>& lane = *top.lane_;
  if (lane.size() == 1) {  // the top, whose step sorts before `bound`
    top.skip(bound, 0);
    parked_.front().key = top.next_;
    heap::sift_down(parked_, 0, Slots{this});
    return true;
  }
  for (const IdleWait* m : lane)
    if (m->next_.when != now || !(m->next_ < bound)) return false;
  // Lanes are small: insertion sorts.
  const auto sort_by = [&lane](auto before) {
    for (std::size_t i = 1; i < lane.size(); ++i)
      for (std::size_t j = i; j > 0 && before(lane[j], lane[j - 1]); --j)
        std::swap(lane[j], lane[j - 1]);
  };
  sort_by([](const IdleWait* a, const IdleWait* b) {
    return a->next_ < b->next_;
  });
  for (std::size_t r = 0; r < lane.size(); ++r) {
    lane[r]->skip(bound, static_cast<std::uint32_t>(r));
    parked_[lane[r]->slot_].key = lane[r]->next_;
  }
  // Sift the grown keys down, deepest first: each sift moves only slots
  // at or below its own.
  sort_by([](const IdleWait* a, const IdleWait* b) {
    return a->slot_ > b->slot_;
  });
  for (const IdleWait* m : lane)
    heap::sift_down(parked_, m->slot_, Slots{this});
  return true;
}

void Engine::Slots::operator()(std::size_t i) const {
  engine->parked_[i].wait->slot_ = i;
}

void Engine::report_parked() const {
  std::string names;
  for (const Parked& p : parked_)
    names += (names.empty() ? "'" : ", '") + p.wait->fiber_->name() + "'";
  OQS_METRIC_ADD("sim.idle.stranded", parked_.size());
  log::error("sim", "run() drained with ", parked_.size(),
             " idle wait(s) still parked, which nothing can end: ", names);
}

Time Engine::run() {
  running_ = true;
  stopped_ = false;
  reap();  // a deferred reap from a nested run resolves at top-level entry
  while (!stopped_ && live()) {
    if (dispatch_one(~Time{0}) &&
        (reap_pending_ || (events_executed_ & 0xffff) == 0))
      reap();
  }
  running_ = false;
  if (!stopped_ && !parked_.empty()) report_parked();
  reap();
  return now_;
}

Time Engine::run_until(Time deadline) {
  running_ = true;
  stopped_ = false;
  reap();
  while (!stopped_ && live() && next_time() <= deadline) {
    if (dispatch_one(deadline) &&
        (reap_pending_ || (events_executed_ & 0xffff) == 0))
      reap();
  }
  running_ = false;
  if (now_ < deadline) now_ = deadline;
  reap();
  return now_;
}

std::size_t Engine::live_fibers() const {
  return static_cast<std::size_t>(
      std::count_if(fibers_.begin(), fibers_.end(),
                    [](const auto& f) { return !f->done(); }));
}

void Engine::reap() {
  // Finished fibers are destroyed only from the engine loop (never from
  // inside another fiber) so no live stack is freed under its own feet. A
  // request arriving while a fiber is current — run_until() driven from
  // fiber context ends this way — is deferred, not dropped.
  if (current_ != nullptr) {
    reap_pending_ = true;
    return;
  }
  reap_pending_ = false;
  std::erase_if(fibers_, [](const auto& f) { return f->done(); });
}

}  // namespace oqs::sim
