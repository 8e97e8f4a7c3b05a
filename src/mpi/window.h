// MPI-2 one-sided communication over Elan4 RDMA.
//
// The paper targets full MPI-2 compliance; one-sided operations map almost
// directly onto the Elan4 primitives the PTL already exercises: window
// creation registers the exposed region with the NIC MMU and allgathers the
// (VPID, E4_Addr) pairs; put/get issue RDMA write/read descriptors against
// the target's exposed address, each with an event of its own; fence polls
// those events to local completion (which on Elan4 implies remote placement
// for writes), frees them and closes the epoch with a barrier.
//
// Active-target BSP style only (fence epochs) — the synchronization modes
// MPICH-QsNetII-era applications used.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "elan4/device.h"
#include "mpi/mpi.h"
#include "ptl/elan4/ptl_elan4.h"

namespace oqs::mpi {

class Window {
 public:
  // Collective over `comm`: every rank exposes [base, base+len). len may
  // differ per rank; offsets are validated against the target's length.
  Window(Communicator& comm, World& world, void* base, std::size_t len);
  ~Window();
  Window(const Window&) = delete;
  Window& operator=(const Window&) = delete;

  std::size_t size() const { return len_; }

  // One-sided data movement within an epoch. Nonblocking: completion is
  // guaranteed only after the next fence().
  Status put(int target_rank, const void* src, std::size_t len,
             std::size_t target_offset);
  Status get(int target_rank, void* dst, std::size_t len,
             std::size_t source_offset);

  // Close the epoch: drain all outstanding RMA issued by this rank, then
  // synchronize the group so everyone's exposure epoch advances together.
  // Returns the first failed op's status (kFault: the target region was
  // unmapped), after the closing barrier all the same.
  Status fence();

  std::size_t pending() const { return pending_.size(); }

 private:
  struct PendingOp {
    std::unique_ptr<elan4::E4Event> event;  // freed once the op completed
    elan4::E4Addr mapped;  // temporary mapping of the local buffer
  };

  Communicator& comm_;
  World& world_;
  elan4::Elan4Device* dev_;
  char* base_;
  std::size_t len_;
  elan4::E4Addr local_addr_ = elan4::kNullE4Addr;
  std::vector<elan4::Vpid> peer_vpid_;
  std::vector<elan4::E4Addr> peer_addr_;
  std::vector<std::uint64_t> peer_len_;
  std::vector<PendingOp> pending_;
};

}  // namespace oqs::mpi
