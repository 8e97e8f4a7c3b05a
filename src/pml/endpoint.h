// Per-peer endpoint abstraction.
//
// Each PTL keeps one Endpoint per peer process it can reach. The common
// base exposes what the layers above the PTL (the BML rail scheduler, the
// PML wait gate, tests) need to see without knowing the transport:
// liveness, identity and where the teardown handshake stands. PTLs
// subclass it with their transport-specific connection state (Elan4:
// vpid + receive queue + ReliableStream; TCP: Ethernet address).
//
// Teardown is one rule for every PTL (paper §4.1: a context is released
// only once nothing can still arrive). Leaving, a module says goodbye to
// every contacted peer except itself and the published dead-set, and
// closes only when each of those peers' goodbyes has come in. A module
// that hears a goodbye answers with its own unless it already sent one, so
// in a mutual finalize the goodbyes cross and answer each other, and a peer
// that keeps running answers from its progress. Nothing follows a goodbye:
// the PTL's post choke point refuses every later frame to that peer.
#pragma once

namespace oqs::pml {

struct Endpoint {
  virtual ~Endpoint() = default;

  int gid = -1;       // peer's global process id
  bool alive = true;  // cleared by the peer's goodbye (or a failure)
  bool said_bye = false;   // our goodbye went out: nothing more is posted
  bool heard_bye = false;  // the peer's goodbye came in

  // The peer's goodbye arrived. Returns true when ours is still owed: the
  // caller answers with it.
  bool hear_bye() {
    heard_bye = true;
    alive = false;
    return !said_bye;
  }
};

// Where a leaving module stands toward its peers (gid -> Endpoint subclass
// maps); `excused(gid)` names itself and the dead-set.
enum class Leave { kSay, kWait, kDone };

template <class Peers, class Excused>
Leave leave_state(const Peers& peers, const Excused& excused) {
  Leave s = Leave::kDone;
  for (const auto& [gid, ep] : peers) {
    if ((ep.said_bye && ep.heard_bye) || excused(gid)) continue;
    if (!ep.said_bye) return Leave::kSay;
    s = Leave::kWait;
  }
  return s;
}

}  // namespace oqs::pml
