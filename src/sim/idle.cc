#include "sim/idle.h"

#include "obs/metrics.h"
#include "sim/cpu.h"
#include "sim/engine.h"
#include "sim/fiber.h"

namespace oqs::sim {

Signal::~Signal() {
  for (Watch* w = head_; w != nullptr; w = w->next) w->on = nullptr;
}

void Signal::notify() {
  for (Watch* w = head_; w != nullptr; w = w->next) w->owner->notified();
}

void IdleWait::notified() {
  dirty_ = true;
  if (parked_ && !woken_) wake();
}

void IdleWait::wake() {
  woken_ = true;
  ++engine_.woken_;
}

bool IdleWait::begin_round() {
  clear();
  dirty_ = false;
  armed_ = step_ != 0 && engine_.depth_ == 1;
  return armed_;
}

bool IdleWait::watch(Signal* s) {
  if (nwatches_ == kMaxWatches) return false;
  Watch& w = watches_[nwatches_++];
  w.owner = this;
  w.on = s;
  w.prev = nullptr;
  w.next = s->head_;
  if (s->head_ != nullptr) s->head_->prev = &w;
  s->head_ = &w;
  return true;
}

void IdleWait::clear() {
  for (int i = 0; i < nwatches_; ++i) {
    Watch& w = watches_[i];
    if (w.on == nullptr) continue;  // the signal is gone
    if (w.prev != nullptr)
      w.prev->next = w.next;
    else
      w.on->head_ = w.next;
    if (w.next != nullptr) w.next->prev = w.prev;
  }
  nwatches_ = 0;
  armed_ = false;
}

bool IdleWait::park(bool at_top) {
  Engine& e = engine_;
  // A nested run_until() dispatches inside an outer dispatch, out of the
  // order parked steps are replayed in: waits there spin. A step longer
  // than the tie key's length field spins too.
  if (!armed_ || dirty_ || e.depth_ != 1 || step_ >= 0xffffffu) return false;
  const std::size_t first = at_top && points_ > 0 ? 1 : 0;
  if (cpu_ != nullptr &&
      (cpu_->parked_.size() == cpu_->num_cores() ||
       (is_charge(first) && cpu_->find_free() < 0)))
    return false;
  fiber_ = e.current();
  serial_ = fiber_->serial();
  start_step(e.now(), first);
  parked_ = true;
  e.add_parked(this);
  e.join_lane(*this);
  if (cpu_ != nullptr) {
    cpu_->parked_.push_back(this);
    cpu_->restate();
  } else {
    classify();
  }
  OQS_METRIC_INC("sim.idle.parks");
  e.park();
  parked_ = false;
  woken_ = false;
  e.leave_lane(*this);
  resumed_ = phase_;
  if (cpu_ != nullptr) {
    std::erase(cpu_->parked_, this);
    // Resumed at the end of a step: a charge ends by releasing its core.
    if (is_charge(phase_))
      cpu_->release(core_);
    else
      cpu_->restate();
  }
  return true;
}

void IdleWait::start_step(Time at, std::size_t phase) {
  phase_ = phase;
  len_ = step_;
  if (cpu_ != nullptr && is_charge(phase)) {
    core_ = cpu_->take();
    len_ = cpu_->charge(core_, serial_, step_);
  }
  next_ = {at + len_, 2 * engine_.queue_.pushes(), engine_.tie_for(at, len_)};
}

void IdleWait::skip(const Key& bound, std::uint32_t rank) {
  // Steps k = 0, 1, ... end at next_.when + k*step_; step 0 is the pending
  // one, and every later one is pushed now.
  const Key later{0, 2 * engine_.queue_.pushes(), Engine::tie_of(step_, rank)};
  std::uint64_t n = 1;  // steps that end before `bound`
  if (bound.when > next_.when) {
    const Time gap = bound.when - next_.when - 1;
    n = gap < step_ ? 1 : gap / step_ + 1;  // most gaps are short
    if (Key{next_.when + n * step_, later.seq, later.tie} < bound) ++n;
  }
  const std::uint64_t round = points_ + 1;
  std::uint64_t phase = phase_ + n;
  const std::uint64_t rounds = phase < round ? 0 : phase / round;
  if (charges() > 0) {
    // The n steps that follow the ones skipped: charges, less idle steps.
    cpu_->busy_ns_ += (n - (idle_charged_ ? 0 : rounds)) * step_;
  }
  phase_ = static_cast<std::size_t>(phase - rounds * round);
  if (charges() > 0) {
    core_ = 0;
    cpu_->cores_.front().busy = is_charge(phase_);
  }
  next_ = {next_.when + n * step_, later.seq, later.tie};
}

void IdleWait::advance(const Key& bound) {
  const std::size_t charges = this->charges();
  // Nothing else touches the Cpu before `bound`, so once a charge costs no
  // switch every later one costs the same, and whole rounds repeat.
  Time steady = charges == 0 || lane_step_ != 0 ? step_ : 0;
  do {
    const std::size_t next = phase_ == points_ ? 0 : phase_ + 1;
    if (charges > 0) {
      const bool blocked = is_charge(phase_) ? !cpu_->give_back(core_)
                                             : is_charge(next) &&
                                                   cpu_->find_free() < 0;
      if (blocked) {
        wake();
        return;
      }
    }
    const std::uint64_t switches = charges == 0 ? 0 : cpu_->switches_;
    start_step(next_.when, next);
    if (steady == 0 && is_charge(next) && cpu_->switches_ == switches)
      steady = len_;
    if (steady == 0) continue;
    const Time round = steady * charges +
                       step_ * static_cast<Time>(points_ + 1 - charges);
    if (bound.when == ~Time{0} || next_.when + round > bound.when) continue;
    const Time n = (bound.when - next_.when) / round;
    if (charges > 0) cpu_->busy_ns_ += n * charges * steady;
    next_.when += n * round;
    next_.tie = engine_.tie_for(next_.when - len_, len_);
  } while (next_ < bound);
  // A regular wait stays regular through its own steps.
  if (lane_step_ == 0) classify();
}

void IdleWait::classify() {
  // Regular: every step, the pending one too, is step_ long. With charges
  // that takes the Cpu to itself: no other wait, core or waiter busy, and
  // core 0, the one its charges take, last ran this fiber.
  bool regular = len_ == step_;
  if (regular && charges() > 0) {
    const bool holds = is_charge(phase_);
    unsigned busy = 0;
    for (const Cpu::Core& c : cpu_->cores_) busy += c.busy ? 1 : 0;
    regular = cpu_->parked_.size() == 1 && cpu_->wait_queue_.empty() &&
              busy == (holds ? 1u : 0u) && (!holds || core_ == 0) &&
              cpu_->cores_.front().last == serial_;
  }
  const Time step = regular ? step_ : 0;
  const Time phase = regular ? next_.when % step_ : 0;
  if (step == lane_step_ && phase == lane_phase_) return;
  engine_.leave_lane(*this);
  lane_step_ = step;
  lane_phase_ = phase;
  engine_.join_lane(*this);
}

bool IdleWait::blocks_a_fiber() const {
  return cpu_ != nullptr && !cpu_->wait_queue_.empty();
}

}  // namespace oqs::sim
