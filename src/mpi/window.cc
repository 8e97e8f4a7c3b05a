#include "mpi/window.h"

#include <cassert>

namespace oqs::mpi {

Window::Window(Communicator& comm, World& world, void* base, std::size_t len)
    : comm_(comm), world_(world), base_(static_cast<char*>(base)), len_(len) {
  ptl_elan4::PtlElan4* ptl = world_.elan4_ptl();
  assert(ptl != nullptr && "one-sided windows require the Elan4 PTL");
  dev_ = &ptl->device();

  if (len_ > 0) local_addr_ = dev_->map(base_, len_);

  struct Info {
    elan4::Vpid vpid;
    elan4::E4Addr addr;
    std::uint64_t len;
  };
  Info mine{dev_->vpid(), local_addr_, len_};
  std::vector<Info> all(static_cast<std::size_t>(comm_.size()));
  comm_.allgather(&mine, sizeof(Info), all.data());
  for (const Info& i : all) {
    peer_vpid_.push_back(i.vpid);
    peer_addr_.push_back(i.addr);
    peer_len_.push_back(i.len);
  }
  comm_.barrier();  // epoch 0 open everywhere before any RMA
}

Window::~Window() {
  assert(pending_.empty() && "window destroyed with an open epoch");
  if (local_addr_ != elan4::kNullE4Addr) dev_->unmap(local_addr_);
}

Status Window::put(int target_rank, const void* src, std::size_t len,
                   std::size_t target_offset) {
  if (target_rank < 0 || target_rank >= comm_.size()) return Status::kBadParam;
  const auto t = static_cast<std::size_t>(target_rank);
  if (target_offset + len > peer_len_[t]) return Status::kBadParam;
  if (len == 0) return Status::kOk;

  const elan4::E4Addr src_addr = dev_->map(const_cast<void*>(src), len);
  std::unique_ptr<elan4::E4Event> ev = dev_->make_event("win-put");
  ev->init(1);
  dev_->rdma_write(peer_vpid_[t], src_addr, peer_addr_[t] + target_offset,
                   static_cast<std::uint32_t>(len), ev.get());
  pending_.push_back({std::move(ev), src_addr});
  return Status::kOk;
}

Status Window::get(int target_rank, void* dst, std::size_t len,
                   std::size_t source_offset) {
  if (target_rank < 0 || target_rank >= comm_.size()) return Status::kBadParam;
  const auto t = static_cast<std::size_t>(target_rank);
  if (source_offset + len > peer_len_[t]) return Status::kBadParam;
  if (len == 0) return Status::kOk;

  const elan4::E4Addr dst_addr = dev_->map(dst, len);
  std::unique_ptr<elan4::E4Event> ev = dev_->make_event("win-get");
  ev->init(1);
  dev_->rdma_read(peer_vpid_[t], peer_addr_[t] + source_offset, dst_addr,
                  static_cast<std::uint32_t>(len), ev.get());
  pending_.push_back({std::move(ev), dst_addr});
  return Status::kOk;
}

Status Window::fence() {
  // Local completion of an Elan4 RDMA write arrives with the network-level
  // ack, i.e. after remote placement — so draining our descriptors is
  // enough for our puts to be visible at their targets.
  Status st = Status::kOk;
  for (const PendingOp& op : pending_) {
    dev_->wait_event(op.event.get());
    if (ok(st)) st = op.event->status();
    dev_->unmap(op.mapped);
  }
  pending_.clear();
  // Everyone's accesses for this epoch are complete before anyone proceeds.
  comm_.barrier();
  return st;
}

}  // namespace oqs::mpi
