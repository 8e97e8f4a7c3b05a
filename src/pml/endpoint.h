// Per-peer endpoint abstraction.
//
// Each PTL keeps one Endpoint per peer process it can reach. The common
// base exposes what the layers above the PTL (the BML rail scheduler, the
// PML wait gate, tests) need to see without knowing the transport:
// liveness and identity. PTLs subclass it with their transport-specific
// connection state (Elan4: vpid + receive queue + ReliableStream; TCP:
// Ethernet address).
#pragma once

namespace oqs::pml {

struct Endpoint {
  virtual ~Endpoint() = default;

  int gid = -1;       // peer's global process id
  bool alive = true;  // cleared by the peer's goodbye (or a failure)
};

}  // namespace oqs::pml
