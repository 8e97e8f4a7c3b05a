// Process-failure detection: OOB heartbeats corroborated by PTL suspicion.
//
// Every launched process registers here and conceptually heartbeats the
// head node over the management Ethernet once per heartbeat_interval_ns.
// The simulation models the beats virtually: a registered, uncrashed
// process *is* beating (no per-beat events — a cost-free invariant that
// keeps the event queue drainable), and a crash records the instant the
// beats stopped. The monitor timer then declares the process dead once it
// has been silent for failure_dead_misses intervals — or, when a PTL's
// retransmission watchdog has independently reported the peer suspect
// (suspect_timeouts consecutive unproductive go-back-N timeouts), after
// the shorter failure_suspect_misses window. That is the two-source
// detector of the ULFM lineage: transport-level suspicion accelerates,
// heartbeat loss confirms.
//
// Each declaration advances a machine-wide epoch and grows a monotonic
// dead set; both are published to subscribers (each World installs one) so
// PML/BML/PTL can purge in-flight traffic and MPI can surface
// kErrProcFailed. Communicator revoke (World::revoke) bumps a separate
// revoke counter folded into abort_epoch(): every blocked op stamped with
// an older epoch aborts with kRevoked, which is what breaks
// survivor-survivor waits inside a collective that lost a member.
//
// Detection latency is observable: declarations record
// `rte.failure.detect_ns` (declared_at - silence_start) in the metric
// registry; the chaos suite asserts its bound against the heartbeat knobs.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>

#include "base/params.h"
#include "sim/engine.h"
#include "sim/idle.h"

namespace oqs::rte {

struct FailureEvent {
  int gid = -1;              // global rank declared dead (-1: revoke only)
  std::uint64_t epoch = 0;   // epoch after the declaration
  sim::Time when = 0;        // declaration time
  sim::Time detect_ns = 0;   // declaration - silence start
};

class FailureService {
 public:
  FailureService(sim::Engine& engine, const ModelParams& params)
      : engine_(engine), params_(params) {}
  ~FailureService() { *alive_ = false; }
  FailureService(const FailureService&) = delete;
  FailureService& operator=(const FailureService&) = delete;

  // Lifecycle, called by World (register in open_stack, deregister in
  // finalize, crash from the chaos harness). Deregistration is a clean
  // exit: beats stop with no death declared.
  void register_process(int gid);
  void deregister(int gid);
  void crash(int gid);

  // PTL retransmission watchdog corroboration: observer saw
  // suspect_timeouts consecutive unproductive timeouts against target.
  void report_suspect(int observer_gid, int target_gid);

  bool dead(int gid) const { return dead_set_.count(gid) != 0; }
  bool any_dead() const { return !dead_set_.empty(); }
  const std::set<int>& dead_set() const { return dead_set_; }
  std::uint64_t epoch() const { return epoch_; }

  // ULFM-style revoke: a survivor that observed kErrProcFailed inside a
  // collective revokes the communicator, which must break *other* ranks
  // out of their in-flight waits too. Modeled as one management-net
  // broadcast (the sim applies it instantly; the cost is the caller's).
  // Subscribers are notified with a synthetic event (gid = -1) so blocked
  // interrupt-mode waiters can be woken to observe the moved epoch.
  void revoke();
  std::uint64_t revokes() const { return revokes_; }
  // Monotonic abort epoch: requests stamp it at post time; blocked waits
  // abort once it moves past their stamp.
  std::uint64_t abort_epoch() const { return epoch_ + revokes_; }
  // Notified whenever the abort epoch moves (a declaration or a revoke),
  // for idle waits that poll it.
  sim::Signal& epoch_signal() { return epoch_signal_; }

  // Death notifications. Subscribers run in plain event context (no fiber):
  // they must not block — spawn a fiber for any work that charges CPU.
  using Subscriber = std::function<void(const FailureEvent&)>;
  int subscribe(Subscriber fn);
  void unsubscribe(int id);

 private:
  struct Entry {
    bool registered = false;
    bool crashed = false;
    bool declared = false;
    bool suspect = false;
    sim::Time silence_start = 0;
    sim::Time suspect_at = 0;
  };

  sim::Time declare_deadline(const Entry& e) const;
  // (Re)arm the monitor for the earliest pending declaration. Stale timers
  // fire harmlessly: declarations are idempotent and the timer re-arms only
  // while something is still pending — so the event queue always drains.
  void arm_monitor(sim::Time deadline);
  void monitor_fire();

  sim::Engine& engine_;
  const ModelParams& params_;
  std::map<int, Entry> entries_;
  std::set<int> dead_set_;
  std::uint64_t epoch_ = 0;
  std::uint64_t revokes_ = 0;
  sim::Signal epoch_signal_;
  std::map<int, Subscriber> subs_;
  int next_sub_ = 1;
  sim::Time armed_deadline_ = 0;  // 0 = no timer outstanding
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace oqs::rte
