// Elan4 events.
//
// An E4 event lives in NIC memory and carries a countdown: DMA completions
// call fire(), and when the count reaches zero the event *triggers* — the
// host-visible done word is written, an optional chained command is handed
// to the NIC command queue (the paper's chained-event mechanism, used to
// send FIN/FIN_ACK without host involvement), an optional interrupt wakes
// blocked host fibers.
//
// Faithfully modeled hardware quirk (paper Fig. 5): fire() on an event whose
// count is already <= 0 is LOST — no trigger, ever. Re-arming with
// reset_count() is not atomic with in-flight completions, so the
// "reset to 1 and block again" pattern drops wakeups. This is the race that
// motivates the shared completion queue design.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "base/params.h"
#include "base/status.h"
#include "elan4/commands.h"
#include "sim/engine.h"
#include "sim/idle.h"

namespace oqs::elan4 {

class Elan4Nic;

class E4Event {
 public:
  E4Event(sim::Engine& engine, const ModelParams& params, Elan4Nic* nic,
          std::string name, int index = -1);

  const std::string& name() const { return name_; }
  // A table event's slot, by which remote commands name it; -1 for an op
  // event, which only the command that carries it can find.
  int index() const { return index_; }

  // Host-side arm: the event triggers after `count` fire()s.
  void init(int count) {
    count_ = count;
    done_ = false;
  }
  // Host-side non-atomic re-arm. Deliberately identical to init(): if a DMA
  // fired while count was already 0, that completion is gone (Fig. 5d).
  void reset_count(int count) { init(count); }

  int count() const { return count_; }
  // Host word: set when the event triggered since the last init().
  bool done() const { return done_; }
  // Notified when the event triggers, for idle waits polling done().
  sim::Signal& signal() const { return signal_; }
  // Cumulative trigger counter (diagnostic; not host-visible on hardware).
  std::uint64_t triggers() const { return triggers_; }
  std::uint64_t lost_fires() const { return lost_fires_; }
  Status status() const { return status_; }

  // Attach a command the NIC submits to itself upon trigger (chained DMA).
  // Multiple chains fire in attachment order — Elan4 events trigger command
  // lists, which is how a FIN to the peer and a completion QDMA to the own
  // shared queue can both hang off one RDMA descriptor.
  void chain(Command cmd) { chained_.push_back(std::move(cmd)); }

  // Block the calling fiber until done(). The wakeup is delivered via a
  // device interrupt: params.interrupt_ns elapses between the trigger and
  // the fiber becoming runnable (Table 1's "Interrupt" cost).
  void wait_block();

  // --- NIC side ---
  // One completion arrives. Decrements count; triggers at exactly zero.
  void fire(Status status = Status::kOk);

 private:
  void trigger(Status status);

  sim::Engine& engine_;
  const ModelParams& params_;
  Elan4Nic* nic_;
  std::string name_;
  const int index_;
  int count_ = 0;
  bool done_ = false;
  Status status_ = Status::kOk;
  std::uint64_t triggers_ = 0;
  std::uint64_t lost_fires_ = 0;
  std::vector<Command> chained_;
  std::vector<sim::Fiber*> waiters_;
  mutable sim::Signal signal_;
};

}  // namespace oqs::elan4
