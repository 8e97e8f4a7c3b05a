// Per-context Elan4 MMU.
//
// RDMA descriptors carry E4_Addr values; the NIC's MMU translates them to
// host physical memory (paper §4.2). We model it as a region table per
// hardware context: map() assigns a NIC-virtual range to a host buffer,
// translate() resolves an access or reports a fault. E4 address space is
// bump-allocated per context, so two processes' mappings never alias.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>

#include "base/status.h"
#include "elan4/e4_types.h"

namespace oqs::elan4 {

class Mmu {
 public:
  Mmu() = default;

  // Expose [host, host+len) to the NIC; returns the assigned E4 address.
  E4Addr map(void* host, std::size_t len);
  // Remove a mapping created by map(); addr must be the exact mapped base.
  Status unmap(E4Addr addr);

  // Resolve an access of `len` bytes at `addr`. Returns nullptr and sets
  // *status to kFault if any byte is unmapped (the access may straddle a
  // region boundary only if the regions were mapped contiguously, which the
  // bump allocator never produces — matching real page-table behaviour).
  void* translate(E4Addr addr, std::size_t len, Status* status) const;

  std::size_t num_mappings() const { return regions_.size(); }
  std::uint64_t faults() const { return faults_; }

  // Pages a mapping of `len` bytes spans (registration cost unit).
  static std::uint64_t pages_for(std::size_t len) {
    return (static_cast<E4Addr>(len) + kPage - 1) / kPage;
  }

 private:
  struct Region {
    void* host;
    std::size_t len;
  };

  static constexpr E4Addr kPage = 0x2000;  // 8 KB elan page granularity
  // Start away from 0 so kNullE4Addr is always a fault.
  E4Addr next_ = 0x10000;
  std::map<E4Addr, Region> regions_;
  mutable std::uint64_t faults_ = 0;
};

}  // namespace oqs::elan4
