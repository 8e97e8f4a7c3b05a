#include "rte/failure.h"

#include "base/log.h"
#include "obs/metrics.h"

namespace oqs::rte {

void FailureService::register_process(int gid) {
  Entry& e = entries_[gid];
  e = Entry{};
  e.registered = true;
}

void FailureService::deregister(int gid) {
  auto it = entries_.find(gid);
  if (it == entries_.end()) return;
  // A cleanly-finalizing process stops beating without consequence. If it
  // was already declared dead (crash raced a slow finalize) the declaration
  // stands — the dead set is monotonic.
  if (!it->second.declared) entries_.erase(it);
}

void FailureService::crash(int gid) {
  Entry& e = entries_[gid];
  if (e.crashed || e.declared) return;
  e.registered = true;
  e.crashed = true;
  e.silence_start = engine_.now();
  OQS_METRIC_INC("rte.failure.crashes");
  arm_monitor(declare_deadline(e));
}

void FailureService::report_suspect(int observer_gid, int target_gid) {
  Entry& e = entries_[target_gid];
  if (e.declared) return;
  OQS_METRIC_INC("rte.failure.suspects");
  if (!e.suspect) {
    e.suspect = true;
    e.suspect_at = engine_.now();
    log::debug("rte", "gid ", target_gid, " suspected by gid ", observer_gid);
  }
  // Suspicion of a live (still-beating) process stays pending: the monitor
  // only declares once the heartbeats are gone too. If the beats already
  // stopped, the corroborated (shorter) window applies from now on.
  if (e.crashed) arm_monitor(declare_deadline(e));
}

void FailureService::revoke() {
  ++revokes_;
  epoch_signal_.notify();
  OQS_METRIC_INC("rte.failure.revokes");
  FailureEvent ev;
  ev.gid = -1;  // synthetic: no new death, only the abort epoch moved
  ev.epoch = epoch_;
  ev.when = engine_.now();
  auto subs = subs_;
  for (auto& [id, fn] : subs) fn(ev);
}

int FailureService::subscribe(Subscriber fn) {
  const int id = next_sub_++;
  subs_[id] = std::move(fn);
  return id;
}

void FailureService::unsubscribe(int id) { subs_.erase(id); }

sim::Time FailureService::declare_deadline(const Entry& e) const {
  const sim::Time interval = params_.heartbeat_interval_ns;
  sim::Time deadline =
      e.silence_start + static_cast<sim::Time>(params_.failure_dead_misses) * interval;
  if (e.suspect) {
    const sim::Time base =
        e.suspect_at > e.silence_start ? e.suspect_at : e.silence_start;
    const sim::Time confirmed =
        base + static_cast<sim::Time>(params_.failure_suspect_misses) * interval;
    if (confirmed < deadline) deadline = confirmed;
  }
  return deadline;
}

void FailureService::arm_monitor(sim::Time deadline) {
  // One timer at the earliest deadline; an earlier request schedules a new
  // timer and lets the stale one fire as a no-op.
  if (armed_deadline_ != 0 && armed_deadline_ <= deadline) return;
  armed_deadline_ = deadline;
  const sim::Time now = engine_.now();
  const sim::Time delay = deadline > now ? deadline - now : 1;
  engine_.schedule(delay, [this, token = alive_] {
    if (!*token) return;
    monitor_fire();
  });
}

void FailureService::monitor_fire() {
  armed_deadline_ = 0;
  const sim::Time now = engine_.now();
  sim::Time next = 0;
  for (auto& [gid, e] : entries_) {
    if (!e.crashed || e.declared) continue;
    const sim::Time deadline = declare_deadline(e);
    if (now < deadline) {
      if (next == 0 || deadline < next) next = deadline;
      continue;
    }
    e.declared = true;
    ++epoch_;
    dead_set_.insert(gid);
    epoch_signal_.notify();
    const sim::Time latency = now - e.silence_start;
    obs::metrics().histogram("rte.failure.detect_ns").add(static_cast<double>(latency));
    OQS_METRIC_INC("rte.failure.deaths");
    log::warn("rte", "gid ", gid, " declared dead (epoch ", epoch_,
              e.suspect ? ", corroborated" : ", heartbeat-only",
              ", detect ", latency, " ns)");
    FailureEvent ev;
    ev.gid = gid;
    ev.epoch = epoch_;
    ev.when = now;
    ev.detect_ns = latency;
    // Copy: a subscriber may (un)subscribe from inside its callback.
    auto subs = subs_;
    for (auto& [id, fn] : subs) fn(ev);
  }
  if (next != 0) arm_monitor(next);
}

}  // namespace oqs::rte
