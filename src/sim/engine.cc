#include "sim/engine.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

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

Engine::Engine() : stack_bytes_(initial_stack_bytes()) {
  log::set_clock([this] { return now_; });
  obs::set_clock([this] { return now_; });
}

Engine::~Engine() {
  for (auto& s : stack_pool_) poison_stack(s.get(), stack_bytes_, false);
  log::set_clock(nullptr);
  obs::set_clock(nullptr);
}

void Engine::set_stack_bytes(std::size_t bytes) {
  if (bytes < kMinStackBytes) bytes = kMinStackBytes;
  if (bytes != stack_bytes_) {  // pooled stacks are sized
    for (auto& s : stack_pool_) poison_stack(s.get(), stack_bytes_, false);
    stack_pool_.clear();
  }
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

std::unique_ptr<char[]> Engine::acquire_stack() {
  if (!stack_pool_.empty()) {
    std::unique_ptr<char[]> s = std::move(stack_pool_.back());
    stack_pool_.pop_back();
    poison_stack(s.get(), stack_bytes_, false);
    return s;  // canary still armed from release_stack()
  }
  ++stacks_allocated_;
  auto s = std::make_unique<char[]>(stack_bytes_);
  arm_canary(s.get());
  return s;
}

void Engine::release_stack(std::unique_ptr<char[]> stack, std::size_t bytes) {
  if (stack == nullptr) return;
  if (!canary_ok(stack.get())) {
    ++canary_violations_;
    OQS_METRIC_INC("sim.fiber.stack_overflows");
    log::error("sim", "fiber stack canary destroyed (stack overflow?); "
               "dropping the stack — raise OQS_SIM_STACK_BYTES");
    return;  // do not recycle a stack something wrote past
  }
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
  if (f->done()) release_stack(std::move(f->stack_), f->stack_bytes_);
}

void Engine::dispatch_one() {
  EventQueue::Event* ev = queue_.pop(&now_);
  ++events_executed_;
  // Hot path: with OQS_TRACE=OFF this compiles away; with it ON but no
  // tracer installed it is one load and a never-taken branch. Every
  // dispatched event enters the digest, so the replay fingerprint covers
  // the DES's complete execution order, not just protocol milestones.
  OQS_TRACE_INSTANT(-1, "sim", "dispatch", "n", events_executed_);
  const Key outer = dispatching_;
  dispatching_ = EventQueue::key_of(ev);
  ++depth_;
  // Logged at the start so a nested run's entries follow this one; the
  // push count is filled in once the event has run.
  const std::size_t logged = parked_.empty() ? SIZE_MAX : log_.size();
  if (logged != SIZE_MAX) log_.push_back({dispatching_, 0});
  EventQueue::run(ev);
  queue_.recycle(ev);
  if (logged < log_.size()) log_[logged].pushes_after = queue_.pushes();
  if (--depth_ == 0) {
    if (parked_.empty()) {
      log_.clear();
    } else if (log_.size() > kLogCap * (1 + parked_.size() / 64)) {
      for (IdleWait* w : parked_) w->rebase(dispatching_);
      log_.clear();
    }
  }
  dispatching_ = outer;
}

void Engine::report_parked() const {
  std::string names;
  for (const IdleWait* w : parked_)
    names += (names.empty() ? "'" : ", '") + w->fiber_->name() + "'";
  OQS_METRIC_ADD("sim.idle.stranded", parked_.size());
  log::error("sim", "run() drained with ", parked_.size(),
             " idle wait(s) still parked, which nothing can end: ", names);
}

Time Engine::run() {
  running_ = true;
  stopped_ = false;
  reap();  // a deferred reap from a nested run resolves at top-level entry
  while (!queue_.empty() && !stopped_) {
    dispatch_one();
    if (reap_pending_ || (events_executed_ & 0xffff) == 0) reap();
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
  while (!queue_.empty() && !stopped_ && queue_.next_time() <= deadline) {
    dispatch_one();
    if (reap_pending_ || (events_executed_ & 0xffff) == 0) reap();
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
