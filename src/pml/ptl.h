// The PTL component interface (paper §2.2).
//
// A PTL module is one communication endpoint over one network interface. It
// moves fragments; the PML above it owns matching and request state, and
// the BML every long message: one fragment schedule whose shape the
// leading rail picks (rendezvous_shape) and whose RDMA the rails run
// through the stripe_* hooks. The five lifecycle stages of the paper
// (open, initialize, communicate, finalize, close) map to: construction,
// init(), the send/stripe/progress calls, finalize(), destruction.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/status.h"
#include "pml/endpoint.h"
#include "pml/header.h"
#include "pml/request.h"
#include "sim/idle.h"

namespace oqs::pml {

class Pml;
class Ptl;

// Contact information published through the RTE registry at wire-up: one
// opaque blob per PTL component name.
using ContactInfo = std::map<std::string, std::vector<std::uint8_t>>;

// Receiver-side state of an arrived first fragment, created by the PTL and
// owned by the PML until the match completes.
struct FirstFrag {
  MatchHeader hdr;
  Ptl* ptl = nullptr;  // the arrival rail
  // Payload carried with the header (kRendezvousStriped: the schedule).
  std::vector<std::uint8_t> inline_data;
  // kRendezvous: RdvBody::region (the sender's region on `ptl`, or 0).
  std::uint64_t region = 0;
};

// How the BML moves a long message a rail leads: the shape of its fragment
// schedule (pml/frag_schedule.h). kPipelined pushes fragments behind the
// RTS and stripes chunked pulls across every rail; kRead and kWrite are the
// paper's schemes (§4.2), one fragment on the lead rail with its FIN
// chained to the RDMA: the receiver pulls, or sends a CTS naming the region
// the sender puts into.
struct RdvShape {
  enum class Kind : std::uint8_t { kPipelined, kRead, kWrite };
  Kind kind = Kind::kPipelined;
  std::size_t inline_cap = 0;  // one-fragment shapes: RTS payload bytes
  // One-fragment shapes pack and unpack through the datatype engine (its
  // start-up per send, its rate) instead of memcpy.
  bool dtype_engine = false;
};

class Ptl {
 public:
  virtual ~Ptl() = default;

  virtual const std::string& name() const = 0;

  // Largest payload the PTL will carry in a first fragment. Messages up to
  // this size use the eager path; larger ones go through rendezvous.
  virtual std::size_t eager_limit() const = 0;
  // Relative bandwidth weight for scheduling the rendezvous remainder
  // across PTLs (MB/s scale).
  virtual double bandwidth_weight() const = 0;

  // This module's contact blob, stored in the registry.
  virtual std::vector<std::uint8_t> contact() const = 0;
  // Learn a peer's contact blob and open a fresh endpoint for it (the PML
  // calls it on first contact, or after the old endpoint died). Returns
  // kUnreachable if the peer did not publish a section for this PTL
  // component. Endpoints are never removed: a departed peer's is marked
  // dead, so the endpoint map is the set of peers ever contacted.
  virtual Status add_peer(int gid, const ContactInfo& info) = 0;
  virtual bool reaches(int gid) const = 0;
  // The per-peer endpoint for gid, or nullptr when the PTL does not expose
  // its connection state (or has no such peer).
  virtual Endpoint* endpoint(int /*gid*/) { return nullptr; }
  // First-fragment wire latency estimate (ns) for the BML's eager rail
  // selection; 0 = unknown (ties broken by bandwidth_weight).
  virtual double latency_ns() const { return 0; }
  // True while this module has at least one live endpoint — i.e. it is an
  // active rail for this process. The PML's blocking-wait gate counts wired
  // rails, not constructed PTL objects.
  virtual bool wired() const { return true; }

  // The shape of the long messages this rail leads.
  virtual RdvShape rendezvous_shape() const { return {}; }

  // --- send path ---
  // Transmit an eager message (len <= eager_limit) whole.
  virtual void send_first(SendRequest& req) = 0;

  // --- BML fragment-schedule hooks ---
  // A rail exposes a local memory region for remote pull and pulls stripes
  // of a peer's exposed region. Regions are rail-local (each NIC has its
  // own MMU): a region handle from rail r is only meaningful to the peer's
  // rail-r module.
  // Rendezvous payloads are protected by a per-stripe checksum on this rail
  // (the BML then verifies and re-pulls on mismatch).
  virtual bool stripe_checksummed() const { return false; }
  // Expose [base, base+len) for remote pull or put; returns an opaque
  // region handle (0 = failure). The caller unexposes it after completion.
  virtual std::uint64_t stripe_expose(const void* /*base*/,
                                      std::size_t /*len*/) {
    return 0;
  }
  virtual void stripe_unexpose(std::uint64_t /*region*/) {}
  // Pull `len` bytes at `offset` of the peer's exposed region into dst.
  // Returns a pull id (0 = peer unreachable); `done` runs on completion
  // with the RDMA's status. A `fin` header, if given, reaches the peer once
  // the data has landed: chained to the RDMA's event, or posted by the
  // host at local completion before anything else when the rail does not
  // chain.
  virtual std::uint64_t stripe_pull(int /*gid*/, std::uint64_t /*region*/,
                                    std::size_t /*offset*/, void* /*dst*/,
                                    std::size_t /*len*/,
                                    std::function<void(Status)> /*done*/,
                                    const MatchHeader* /*fin*/) {
    return 0;
  }
  // Put `len` bytes of the local exposed `region` into the peer's exposed
  // region `remote`, then deliver `fin` as stripe_pull does. Returns an id
  // (0 = unsupported or peer unreachable).
  virtual std::uint64_t stripe_put(int /*gid*/, std::uint64_t /*region*/,
                                   std::uint64_t /*remote*/, std::size_t /*len*/,
                                   std::function<void(Status)> /*done*/,
                                   const MatchHeader* /*fin*/) {
    return 0;
  }
  // Abandon an outstanding pull (rail presumed dead); its completion
  // callback will not run, and an unchained FIN is not posted.
  virtual void stripe_cancel(std::uint64_t /*pull_id*/) {}
  // Payload bytes per eagerly pushed pipeline fragment (kPipeFrag) on this
  // rail. Defaults to the eager limit (one full first-fragment frame); a
  // copy-path rail may prefer its chunk size.
  virtual std::size_t pipeline_push_unit() const { return eager_limit(); }
  // Transmit a BML-built protocol frame (RTS, CTS, FIN, pushed fragment)
  // to gid. Non-control frames ride the rail's sequenced/reliable
  // path like any data frame.
  virtual void bml_post(int /*gid*/, const MatchHeader& /*hdr*/,
                        const void* /*body*/, std::size_t /*body_len*/) {}

  // --- process-fault plumbing (optional; defaults: inert) ---
  // Install the callback a reliability-capable PTL fires when a peer's
  // stream saw suspect_timeouts consecutive unproductive retransmission
  // timeouts. The World wires this to the RTE failure detector
  // (report_suspect), which shortens the declaration window.
  virtual void set_suspect_reporter(std::function<void(int)> /*fn*/) {}
  // The failure detector declared gid dead: mark the endpoint down, drop
  // its reliability stream (so the rtx timer stops re-arming against a
  // corpse), and fail every in-flight send and RDMA targeting it with
  // kErrProcFailed instead of retrying forever.
  virtual void peer_failed(int /*gid*/) {}
  // Crash this module in place: no goodbye traffic, no quiesce — pending
  // state is dropped and timers are disarmed. Models the process dying with
  // the NIC context still open (inbound frames pile into the device queue,
  // bounded by peers' send windows, until teardown closes it).
  virtual void halt() {}
  // Wake a fiber blocked in progress_blocking() (no-op for PTLs that only
  // poll). A dead peer raises no interrupt, so after a failure declaration
  // or a revoke the World nudges every PTL to let blocked waits re-check
  // their requests against the abort epoch.
  virtual void wake() {}

  // Poll the network once; deliver arrivals into the PML. Returns the
  // number of events handled. Used by the PML's non-blocking progress mode.
  virtual int progress() = 0;
  // progress() as data: its round of poll points (sim::PollPlan), so a
  // blocked wait parks on what they probe. Its sweep(0, false) is progress().
  virtual sim::PollPlan& poll_plan() = 0;

  // Interrupt-driven progress: block inside the PTL until at least one
  // event is handled. The paper notes this is "not really workable" with
  // multiple PTLs active (a process cannot block within one PTL); it exists
  // to measure interrupt cost (Table 1) and only engages when it is the
  // sole PTL.
  virtual bool blocking_capable() const { return false; }
  virtual int progress_blocking() { return progress(); }
  // True while the PTL has protocol exchanges in flight (a rendezvous being
  // answered, an RDMA outstanding). The interrupt-mode wait polls while
  // active and only blocks when genuinely idle, so a multi-step protocol
  // costs one interrupt, not one per step.
  virtual bool active() const { return held_ > 0; }
  // The BML holds the lead rail of a one-fragment rendezvous active from
  // its RTS (or match) until it completes: +1, then -1.
  void hold(int delta) { held_ += delta; changed_.notify(); }
  // Notified at every change to what active() reads, and to what the
  // module's own waits read (a peer's send window, its liveness).
  sim::Signal& changed() { return changed_; }

  // Teardown in two steps (paper §4.1: a context is released only once
  // nothing can still arrive; the rule is in pml/endpoint.h). leave()
  // quiesces — pending traffic completes, so no leftover DMA can regenerate
  // any — and says goodbye to every contacted peer outside the dead-set.
  // finalize() leaves if it has not, waits until each of those peers has
  // said goodbye back, stops progress threads and releases the network
  // resources. The BML has every rail leave before any finalizes, so a
  // peer sees this process go from all rails at once.
  virtual void leave() {}
  virtual void finalize() = 0;

  // True when this module runs its own progress thread(s); the PML then
  // blocks on request flags instead of spin-polling.
  virtual bool threaded() const { return false; }

 protected:
  sim::Signal changed_;
  int held_ = 0;
};

}  // namespace oqs::pml
