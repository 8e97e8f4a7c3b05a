#include "mpi/hwcoll.h"

#include <cassert>
#include <cstring>

#include "ptl/elan4/ptl_elan4.h"

namespace oqs::mpi {

bool try_hw_bcast(Communicator& comm, World& world, void* buf, std::size_t len,
                  int root) {
  ptl_elan4::PtlElan4* ptl = world.elan4_ptl();

  struct Info {
    elan4::Vpid vpid;
    elan4::E4Addr addr;
    std::int32_t event_index;
    std::int32_t capable;
  };
  Info mine{elan4::kInvalidVpid, elan4::kNullE4Addr, -1, 0};

  elan4::Elan4Device* dev = nullptr;
  elan4::E4Event* arrive = nullptr;
  elan4::E4Event* injected = nullptr;
  if (ptl != nullptr) {
    dev = &ptl->device();
    mine.vpid = dev->vpid();
    mine.addr = dev->map(buf, len == 0 ? 1 : len);
    // Allocate both events on every rank so the symmetric event tables stay
    // aligned for future calls.
    arrive = dev->alloc_event("hwb-arrive");
    mine.event_index = dev->last_event_index();
    injected = dev->alloc_event("hwb-inject");
    arrive->init(1);
    injected->init(1);
    mine.capable = 1;
  }

  std::vector<Info> all(static_cast<std::size_t>(comm.size()));
  comm.allgather(&mine, sizeof(Info), all.data());

  bool agree = true;
  for (const Info& i : all) {
    agree &= i.capable == 1;
    agree &= i.addr == all[0].addr;
    agree &= i.event_index == all[0].event_index;
  }
  if (!agree) {
    // The global virtual address space is not intact (e.g. a dynamically
    // joined process with a different allocation history). Release the
    // per-call events too: free_event() recycles the table slot through the
    // free list in allocation order, so the symmetric-index invariant holds
    // across calls without growing the table by two entries per call.
    if (dev != nullptr) {
      dev->free_event(arrive);
      dev->free_event(injected);
      dev->unmap(mine.addr);
    }
    return false;
  }

  if (comm.rank() == root) {
    std::vector<elan4::Vpid> group;
    for (int r = 0; r < comm.size(); ++r)
      if (r != root) group.push_back(all[static_cast<std::size_t>(r)].vpid);
    dev->hw_broadcast(group, mine.addr, static_cast<std::uint32_t>(len),
                      mine.event_index, injected);
    dev->wait_event(injected);
  } else {
    dev->wait_event(arrive);
  }
  dev->free_event(arrive);
  dev->free_event(injected);
  dev->unmap(mine.addr);
  return true;
}

bool bcast_auto(Communicator& comm, World& world, void* buf, std::size_t len,
                int root) {
  if (try_hw_bcast(comm, world, buf, len, root)) return true;
  comm.bcast(buf, len, dtype::byte_type(), root);
  return false;
}

HwBcastGroup::HwBcastGroup(Communicator& comm, World& world, std::size_t max_bytes)
    : comm_(comm), max_bytes_(max_bytes) {
  ptl_elan4::PtlElan4* ptl = world.elan4_ptl();

  struct Info {
    elan4::Vpid vpid;
    elan4::E4Addr addr;
    std::int32_t idx0;
    std::int32_t capable;
  };
  Info mine{elan4::kInvalidVpid, elan4::kNullE4Addr, -1, 0};

  if (ptl != nullptr) {
    dev_ = &ptl->device();
    staging_.resize(max_bytes_ * kSlots);
    staging_addr_ = dev_->map(staging_.data(), staging_.size());
    for (int s = 0; s < kSlots; ++s) {
      arrive_[s] = dev_->alloc_event("hwbg-arrive");
      arrive_index_[s] = dev_->last_event_index();
      arrive_[s]->init(1);
    }
    injected_ = dev_->alloc_event("hwbg-inject");
    mine.vpid = dev_->vpid();
    mine.addr = staging_addr_;
    mine.idx0 = arrive_index_[0];
    mine.capable = 1;
  }

  std::vector<Info> all(static_cast<std::size_t>(comm_.size()));
  comm_.allgather(&mine, sizeof(Info), all.data());
  valid_ = true;
  for (const Info& i : all) {
    valid_ &= i.capable == 1;
    valid_ &= i.addr == all[0].addr;
    valid_ &= i.idx0 == all[0].idx0;
    vpids_.push_back(i.vpid);
  }
  comm_.barrier();
}

HwBcastGroup::~HwBcastGroup() {
  if (dev_ == nullptr || dev_->closed()) return;
  // Symmetric with the constructor: the kSlots arrival events and the
  // injection event go back to the table's free list, not just the staging
  // mapping — a long-lived job creating groups per phase must not grow the
  // event table monotonically.
  for (int s = 0; s < kSlots; ++s)
    if (arrive_[s] != nullptr) dev_->free_event(arrive_[s]);
  if (injected_ != nullptr) dev_->free_event(injected_);
  if (staging_addr_ != elan4::kNullE4Addr) dev_->unmap(staging_addr_);
}

void HwBcastGroup::bcast(void* buf, std::size_t len, int root) {
  assert(valid_ && "group has no global address space");
  assert(len <= max_bytes_);
  const int slot = static_cast<int>(round_ % kSlots);
  const std::size_t slot_off = static_cast<std::size_t>(slot) * max_bytes_;

  if (comm_.rank() == root) {
    dev_->charge_copy(len);
    std::memcpy(staging_.data() + slot_off, buf, len);
    std::vector<elan4::Vpid> group;
    for (int r = 0; r < comm_.size(); ++r)
      if (r != root) group.push_back(vpids_[static_cast<std::size_t>(r)]);
    injected_->init(1);
    dev_->hw_broadcast(group, staging_addr_ + slot_off,
                       static_cast<std::uint32_t>(len), arrive_index_[slot],
                       injected_);
    dev_->wait_event(injected_);
  } else {
    dev_->wait_event(arrive_[slot]);
    dev_->charge_copy(len);
    std::memcpy(buf, staging_.data() + slot_off, len);
    arrive_[slot]->init(1);  // re-arm for the slot's next lap
  }

  ++round_;
  // Bound pipeline skew to the slot-ring depth.
  if (round_ % kSlots == 0) comm_.barrier();
}

}  // namespace oqs::mpi
