#include "sim/idle.h"

#include <algorithm>

#include "obs/metrics.h"
#include "sim/cpu.h"
#include "sim/engine.h"

namespace oqs::sim {

Signal::~Signal() {
  for (Watch* w = head_; w != nullptr; w = w->next) w->on = nullptr;
}

void Signal::notify() {
  for (Watch* w = head_; w != nullptr; w = w->next) w->owner->notified();
}

void IdleWait::notified() {
  dirty_ = true;
  if (parked_) resume_at(engine_.position());
}

bool IdleWait::begin_round() {
  clear();
  dirty_ = false;
  armed_ = step_ != 0 && engine_.depth_ == 1 &&
           (cpu_ == nullptr || cpu_->may_park());
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

bool IdleWait::can_park() {
  const Engine& e = engine_;
  // A nested run_until() dispatches inside an outer dispatch, so its log
  // would not be in dispatch order: waits there spin.
  if (!armed_ || dirty_ || e.depth_ != 1 || step_ >= 0xffffffffu) return false;
  if (cpu_ != nullptr && !cpu_->can_park(e.current())) return false;
  return take_rank();
}

bool IdleWait::take_rank() {
  const Engine& e = engine_;
  const auto it = e.lanes_.find({step_, e.now() % step_});
  if (it == e.lanes_.end()) {
    rank_ = 0x80000000u;
    return true;
  }
  const Engine::Lane& lane = it->second;
  // A pending resume's key was fixed from a log it no longer follows.
  if (lane.active != lane.parked.size()) return false;
  // Members whose step ending now already ran come first: a prefix of the
  // lane's rank order, since members step in that order.
  const Key at = e.position();
  const auto ran = [&](const IdleWait* m) {
    return m->end_of(m->pending(at)) > e.now();
  };
  const std::size_t i = static_cast<std::size_t>(
      std::partition_point(lane.parked.begin(), lane.parked.end(), ran) -
      lane.parked.begin());
  const std::uint64_t lo = i > 0 ? lane.parked[i - 1]->rank_ : 0;
  const std::uint64_t hi =
      i < lane.parked.size() ? lane.parked[i]->rank_ : 0xffffffffu;
  if (hi - lo < 2) return false;  // no rank left between them: spin
  rank_ = static_cast<std::uint32_t>(lo + (hi - lo) / 2);
  return true;
}

void IdleWait::park(bool at_top) {
  Engine& e = engine_;
  first_ = at_top && points_ > 0 ? 1 : 0;
  fiber_ = e.current();
  t0_ = e.now();
  Engine::Lane& lane = e.lanes_[lane_key()];
  ++lane.active;
  const auto by_rank = [](const IdleWait* m, std::uint32_t r) {
    return m->rank_ < r;
  };
  lane.parked.insert(std::lower_bound(lane.parked.begin(), lane.parked.end(),
                                      rank_, by_rank),
                     this);
  base_ = known_ = 0;
  base_pushes_ = known_pushes_ = pushes_at_base_ = e.queue_.pushes();
  log_base_ = e.log_.size();
  slot_ = e.parked_.size();
  e.parked_.push_back(this);
  if (cpu_ != nullptr) core_ = cpu_->park_idle(this);
  OQS_METRIC_INC("sim.idle.parks");
  parked_ = true;
  e.park();
  // Resumed at the end of a step: a charge ends by releasing its core.
  if (cpu_ != nullptr && is_charge(resumed_step_)) cpu_->release(core_);
}

void IdleWait::unlink() {
  parked_ = false;
  Engine& e = engine_;
  IdleWait* last = e.parked_.back();
  e.parked_[slot_] = last;
  last->slot_ = slot_;
  e.parked_.pop_back();
  auto& members = e.lanes_[lane_key()].parked;
  members.erase(std::find(members.begin(), members.end(), this));
}

void IdleWait::resume_at(const Key& at) {
  const std::uint64_t g = pending(at);
  const std::uint64_t due = due_pushes(g);
  unlink();
  if (cpu_ != nullptr)
    cpu_->unpark_idle(core_, static_cast<Time>(charges_through(g)) * step_,
                      is_charge(g));
  resumed_step_ = g;
  resumed_ = phase(g);
  engine_.queue_.push_resumed(end_of(g), due, tie(), [this] {
    const auto it = engine_.lanes_.find(lane_key());
    if (--it->second.active == 0) engine_.lanes_.erase(it);
    engine_.resume(fiber_);
  });
}

Time IdleWait::charged_ns(const Key& at) const {
  return static_cast<Time>(charges_through(pending(at))) * step_;
}

void IdleWait::rebase(const Key& at) {
  const std::uint64_t g = pending(at);
  base_pushes_ = known_pushes_ = due_pushes(g);
  base_ = known_ = g;
  pushes_at_base_ = engine_.queue_.pushes();
  log_base_ = 0;
}

std::uint64_t IdleWait::pushes_before(const Key& at) const {
  const auto& log = engine_.log_;
  const auto first = log.begin() + static_cast<std::ptrdiff_t>(log_base_);
  const auto it = std::lower_bound(
      first, log.end(), at,
      [](const Engine::LogEntry& e, const Key& k) { return e.key < k; });
  return it == first ? pushes_at_base_ : std::prev(it)->pushes_after;
}

bool IdleWait::logged_at(Time t) const {
  const auto& log = engine_.log_;
  const auto first = log.begin() + static_cast<std::ptrdiff_t>(log_base_);
  const auto it = std::lower_bound(
      first, log.end(), Key{t, 0, 0},
      [](const Engine::LogEntry& e, const Key& k) { return e.key < k; });
  return it != log.end() && it->key.when == t;
}

std::uint64_t IdleWait::due_pushes(std::uint64_t g) const {
  // Start from the latest known step at or before g.
  std::uint64_t from = base_;
  std::uint64_t from_pushes = base_pushes_;
  if (known_ <= g) {
    from = known_;
    from_pushes = known_pushes_;
  }
  if (g == from) return from_pushes;
  // Step k+1 was due when step k was dispatched. Where no real dispatch
  // shares step k's instant, that count does not depend on step k's own
  // key, so walk back only across such shared instants.
  std::uint64_t k = g - 1;
  while (k > from && logged_at(end_of(k))) --k;
  std::uint64_t due = pushes_before(k == from ? key_of(k, from_pushes)
                                              : Key{end_of(k), 0, 0});
  for (++k; k < g; ++k) due = pushes_before(key_of(k, due));
  known_ = g;
  known_pushes_ = due;
  return due;
}

std::uint64_t IdleWait::pending(const Key& at) const {
  // The first step ending at or after `at`, then past it if it sorts first.
  std::uint64_t g = at.when > t0_ ? (at.when - t0_ - 1) / step_ : 0;
  g = std::max(g, base_);
  if (end_of(g) == at.when && key_of(g, due_pushes(g)) < at) ++g;
  return g;
}

}  // namespace oqs::sim
