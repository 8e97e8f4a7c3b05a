#include "elan4/mmu.h"

#include <cassert>

namespace oqs::elan4 {

E4Addr Mmu::map(void* host, std::size_t len) {
  assert(host != nullptr && len > 0);
  const E4Addr addr = next_;
  // Round the span up to page granularity so consecutive mappings never abut.
  const E4Addr span = ((static_cast<E4Addr>(len) + kPage - 1) / kPage + 1) * kPage;
  next_ += span;
  regions_.emplace(addr, Region{host, len});
  return addr;
}

Status Mmu::unmap(E4Addr addr) {
  auto it = regions_.find(addr);
  if (it == regions_.end()) return Status::kNotFound;
  regions_.erase(it);
  return Status::kOk;
}

void* Mmu::translate(E4Addr addr, std::size_t len, Status* status) const {
  *status = Status::kFault;
  if (addr == kNullE4Addr || regions_.empty()) {
    ++faults_;
    return nullptr;
  }
  // Find the last region starting at or before addr.
  auto it = regions_.upper_bound(addr);
  if (it == regions_.begin()) {
    ++faults_;
    return nullptr;
  }
  --it;
  const E4Addr base = it->first;
  const Region& r = it->second;
  const std::uint64_t off = addr - base;
  if (off + len > r.len) {
    ++faults_;
    return nullptr;
  }
  *status = Status::kOk;
  return static_cast<char*>(r.host) + off;
}

}  // namespace oqs::elan4
