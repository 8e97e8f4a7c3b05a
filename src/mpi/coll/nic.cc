// NIC-offloaded barrier / small-message allreduce: a radix-k combining
// tree programmed into the Elan4 NICs out of chained QDMA descriptors and
// countdown events.
//
// Per member and per slot (2 slots, alternating rounds):
//   up    — countdown nchildren+1: one fire per child's combining QDMA
//           plus the member's own SETEVENT arrival signal. The +1 is what
//           guarantees this round's chains are attached before the event
//           can trigger (the host attaches them before its SETEVENT).
//   down  — countdown 1, fired by the parent's result copy.
//   drain — root only, countdown nchildren: fired as each chained result
//           copy is injected, i.e. after the NIC snapshotted the root
//           accumulator. Gates re-zeroing it for the slot's next round.
//
// Choreography of one round (slot s): every member folds its vector into
// its NIC-mapped accumulator acc[s] and issues one SETEVENT on up[s].
// When a member's subtree is complete, up[s] triggers and (on non-roots)
// launches a chained combining QDMA — the NIC reads acc[s] at processing
// time, so it ships the finished partial sum even though the chain was
// attached before the children arrived — which element-wise sums into the
// parent's acc[s] and fires the parent's up[s]. At the root, up[s] instead
// chains the down copies directly (no host turnaround on the critical
// path); interior members' down[s] chains forward the landed result res[s]
// on. A barrier is the same tree with zero-length, signal-only frames.
//
// Slot discipline: round j uses slot j%2 and re-arms it on exit for round
// j+2. Any slot-s traffic of round j+2 that targets this member
// transitively requires this member's round-(j+1) SETEVENT — which cannot
// have happened yet — so re-arming here is race-free. The root's
// accumulator zeroing additionally waits for drain[s] (the chained copies
// snapshot acc at their own fire times, after the root's host already saw
// up[s] done).
//
// Collective frames ride the guaranteed delivery class (they are NOT
// sequenced by the PTL's go-back-N, so nothing could retransmit them); see
// rx_coll_qdma in elan4/nic.cc.
#include <algorithm>
#include <cstring>
#include <string>

#include "mpi/coll/coll.h"
#include "mpi/mpi.h"
#include "obs/metrics.h"
#include "ptl/elan4/ptl_elan4.h"

namespace oqs::mpi::coll {

using elan4::E4Event;
using elan4::Elan4Device;
using elan4::QdmaCmd;

// Collective build over the whole communicator: exchanges slot addresses
// and event-table indices, then derives the tree. Every rank participates
// (the kAuto gates and forced modes branch uniformly), and every rank with
// a device allocates the same six events and four mappings whether or not
// it is a tree member — keeping allocation histories symmetric across the
// job, so a later hardware-broadcast build still finds its arrival events
// at the same indices everywhere. A rank without an Elan4 context reports capable = 0, and the group
// uniformly resolves usable = false (host fallback) from the exchange.
Status Colls::ensure_nic(Communicator& c, NicState& st, std::vector<int> group) {
  if (st.built) return Status::kOk;
  // A failed exchange leaves nothing behind, so a later call rebuilds.
  auto fail = [&](Status s) {
    release_nic(st);
    st = NicState{};
    return s;
  };
  st.group = std::move(group);
  NicPeerInfo mine{};
  mine.vpid = elan4::kInvalidVpid;
  mine.capable = 0;
  for (int s = 0; s < kNicSlots; ++s) {
    mine.acc[s] = elan4::kNullE4Addr;
    mine.res[s] = elan4::kNullE4Addr;
    mine.up[s] = -1;
    mine.down[s] = -1;
  }
  const ModelParams& p = *world_.pml().ctx().params;
  ptl_elan4::PtlElan4* ptl = world_.elan4_ptl();
  if (ptl != nullptr) {
    st.dev = &ptl->device();
    const std::size_t elems = p.coll_nic_max_bytes / sizeof(double);
    for (int s = 0; s < kNicSlots; ++s) {
      st.acc[s].assign(elems, 0.0);
      st.res[s].assign(elems, 0.0);
      st.acc_addr[s] = st.dev->map(st.acc[s].data(), elems * sizeof(double));
      st.res_addr[s] = st.dev->map(st.res[s].data(), elems * sizeof(double));
      st.up[s] = st.dev->alloc_event("coll-up" + std::to_string(s));
      mine.up[s] = st.up[s]->index();
      st.down[s] = st.dev->alloc_event("coll-down" + std::to_string(s));
      mine.down[s] = st.down[s]->index();
      st.drain[s] = st.dev->alloc_event("coll-drain" + std::to_string(s));
      mine.acc[s] = st.acc_addr[s];
      mine.res[s] = st.res_addr[s];
    }
    mine.vpid = st.dev->vpid();
    mine.capable = 1;
  }
  std::vector<NicPeerInfo> all(static_cast<std::size_t>(c.size()));
  if (Status s = c.allgather(&mine, sizeof(NicPeerInfo), all.data()); !ok(s))
    return fail(s);
  const int gn = static_cast<int>(st.group.size());
  st.peers.resize(static_cast<std::size_t>(gn));
  st.usable = gn >= 2;
  for (int i = 0; i < gn; ++i) {
    st.peers[i] = all[static_cast<std::size_t>(st.group[i])];
    if (st.peers[i].capable == 0) st.usable = false;
    if (st.group[i] == c.rank()) st.tidx = i;
  }
  if (st.usable && st.tidx >= 0 && st.dev != nullptr) {
    const int k = p.coll_nic_radix < 2 ? 2 : p.coll_nic_radix;
    st.parent = st.tidx == 0 ? -1 : (st.tidx - 1) / k;
    for (int ch = st.tidx * k + 1; ch <= st.tidx * k + k && ch < gn; ++ch)
      st.children.push_back(ch);
    for (int s = 0; s < kNicSlots; ++s) prep_nic_slot(st, s);
    OQS_METRIC_INC("coll.nic.trees_built");
  }
  // Arming barrier: a member may race ahead into round 0 and fire a peer's
  // up event before that peer armed it — and a fire on a count-0 event is
  // LOST (Fig. 5d), deadlocking the tree. Dissemination exit guarantees
  // every rank passed its prep above. Uniform tag consumption: every rank
  // runs this, member or not.
  const Group all_ranks{nullptr, c.size(), c.rank()};
  if (Status s = ref_barrier(c, c.coll_tag(), all_ranks); !ok(s)) return fail(s);
  st.built = true;
  return Status::kOk;
}

void Colls::release_nic(NicState& st) {
  if (st.dev == nullptr || st.dev->closed()) return;
  for (int s = 0; s < kNicSlots; ++s) {
    if (st.up[s] != nullptr) st.dev->free_event(st.up[s]);
    if (st.down[s] != nullptr) st.dev->free_event(st.down[s]);
    if (st.drain[s] != nullptr) st.dev->free_event(st.drain[s]);
    if (!st.acc[s].empty()) st.dev->unmap(st.acc_addr[s]);
    if (!st.res[s].empty()) st.dev->unmap(st.res_addr[s]);
  }
}

void Colls::prep_nic_slot(NicState& st, int slot) {
  const int nch = static_cast<int>(st.children.size());
  st.up[slot]->init(nch + 1);
  st.down[slot]->init(1);
  st.drain[slot]->init(nch > 0 ? nch : 1);
}

Status Colls::nic_round(NicState& st, double* buf, std::size_t count) {
  Elan4Device& dev = *st.dev;
  const ModelParams& p = dev.params();
  const int s = static_cast<int>(st.seq++ % kNicSlots);
  const std::uint32_t len = static_cast<std::uint32_t>(count * sizeof(double));
  const bool root = st.parent < 0;
  OQS_METRIC_INC("coll.nic.rounds");
  // A dead member's subtree never completes its countdown; the abort epoch
  // moving is the only exit from the event polls below. The slot is NOT
  // re-armed on that path — the tree is considered broken and survivors
  // shrink to a fresh communicator (whose post-fault collectives avoid the
  // NIC path entirely, see the degraded gates in coll.cc).
  const auto& epoch = world_.pml().abort_epoch;
  const std::uint64_t stamp = epoch ? epoch() : 0;
  const auto tree_broken = sim::watched(
      world_.pml().abort_signal, [&] { return epoch && epoch() > stamp; });

  // (Re)attach this round's chains — the previous trigger consumed them.
  // One PIO word each; safe before SETEVENT because up[s] still needs our
  // own arrival to reach zero.
  if (!root) {
    const NicPeerInfo& par = st.peers[static_cast<std::size_t>(st.parent)];
    QdmaCmd up_cmd;
    up_cmd.src_vpid = dev.vpid();
    up_cmd.dest_vpid = par.vpid;
    up_cmd.src_addr = len > 0 ? st.acc_addr[s] : elan4::kNullE4Addr;
    up_cmd.src_len = len;
    up_cmd.dest_addr = len > 0 ? par.acc[s] : elan4::kNullE4Addr;
    up_cmd.combine = len > 0;
    up_cmd.remote_event_index = par.up[s];
    st.up[s]->chain(up_cmd);
    dev.compute(p.host_pio_write_ns);
  }
  E4Event* hook = root ? st.up[s] : st.down[s];
  const elan4::E4Addr down_src = root ? st.acc_addr[s] : st.res_addr[s];
  for (int ch : st.children) {
    const NicPeerInfo& chi = st.peers[static_cast<std::size_t>(ch)];
    QdmaCmd down_cmd;
    down_cmd.src_vpid = dev.vpid();
    down_cmd.dest_vpid = chi.vpid;
    down_cmd.src_addr = len > 0 ? down_src : elan4::kNullE4Addr;
    down_cmd.src_len = len;
    down_cmd.dest_addr = len > 0 ? chi.res[s] : elan4::kNullE4Addr;
    down_cmd.combine = false;
    down_cmd.remote_event_index = chi.down[s];
    if (root) down_cmd.local_event = st.drain[s];
    hook->chain(down_cmd);
    dev.compute(p.host_pio_write_ns);
  }

  // Contribute: fold the vector into the NIC-visible accumulator, then the
  // one-PIO arrival signal.
  if (len > 0) {
    dev.charge_copy(len);
    for (std::size_t i = 0; i < count; ++i) st.acc[s][i] += buf[i];
  }
  dev.set_event(st.up[s]);

  if (root) {
    if (!dev.wait_event(st.up[s], tree_broken)) return Status::kErrProcFailed;
    if (len > 0) {
      dev.charge_copy(len);
      std::memcpy(buf, st.acc[s].data(), len);
    }
    if (!dev.wait_event(st.drain[s], tree_broken)) return Status::kErrProcFailed;
  } else {
    if (!dev.wait_event(st.down[s], tree_broken)) return Status::kErrProcFailed;
    if (len > 0) {
      dev.charge_copy(len);
      std::memcpy(buf, st.res[s].data(), len);
    }
  }

  // Re-arm slot s for round seq+2 (see slot discipline above). The full
  // accumulator is cleared, not just count elements: the next round on
  // this slot may be wider.
  if (len > 0) {
    std::fill(st.acc[s].begin(), st.acc[s].end(), 0.0);
    dev.charge_copy(st.acc[s].size() * sizeof(double));
  }
  prep_nic_slot(st, s);
  return Status::kOk;
}

// ---------------------------------------------------- hardware bcast ----

// Collective: maps a fresh ring and allocates its events on every rank
// with a device, then allgathers where they landed. The hardware path is
// usable only if every rank has a device, the ring sits at one E4 address
// everywhere and every arrival event has one table index everywhere — the
// global virtual address space, which processes with diverged allocation
// histories (e.g. rendezvous traffic mapped on one side only, or a
// dynamically joined process) have lost. Otherwise the build frees what it
// allocated and the group falls back to the binomial tree.
Status Colls::build_hw_bcast(Communicator& c, HwBcastState& hb,
                             std::size_t bytes) {
  release_hw_bcast(hb);
  hb = HwBcastState{};
  hb.slot_bytes = bytes;
  struct Info {
    elan4::Vpid vpid;
    std::int32_t capable;
    elan4::E4Addr addr;
    std::int32_t arrive[kBcastSlots];
  };
  Info mine{elan4::kInvalidVpid, 0, elan4::kNullE4Addr, {}};
  if (ptl_elan4::PtlElan4* ptl = world_.elan4_ptl(); ptl != nullptr) {
    hb.dev = &ptl->device();
    hb.ring.resize(bytes * kBcastSlots);
    hb.ring_addr = hb.dev->map(hb.ring.data(), hb.ring.size());
    for (int s = 0; s < kBcastSlots; ++s) {
      hb.arrive[s] = hb.dev->alloc_event("hwb-arrive" + std::to_string(s));
      hb.arrive[s]->init(1);
      mine.arrive[s] = hb.arrive[s]->index();
    }
    hb.injected = hb.dev->alloc_event("hwb-inject");
    mine.vpid = hb.dev->vpid();
    mine.capable = 1;
    mine.addr = hb.ring_addr;
  }
  std::vector<Info> all(static_cast<std::size_t>(c.size()));
  if (Status s = c.allgather(&mine, sizeof(Info), all.data()); !ok(s)) {
    release_hw_bcast(hb);
    hb = HwBcastState{};
    return s;
  }
  hb.built = true;
  hb.usable = true;
  for (const Info& i : all) {
    hb.usable &= i.capable == 1 && i.addr == all[0].addr &&
                 std::equal(i.arrive, i.arrive + kBcastSlots, all[0].arrive);
    hb.vpids.push_back(i.vpid);
  }
  // Every rank armed its arrival events before contributing to the
  // allgather, so no root can fire one before it is armed.
  if (!hb.usable) release_hw_bcast(hb);
  return Status::kOk;
}

void Colls::release_hw_bcast(HwBcastState& hb) {
  if (hb.dev == nullptr || hb.dev->closed()) return;
  for (E4Event*& ev : hb.arrive) {
    if (ev != nullptr) hb.dev->free_event(ev);
    ev = nullptr;
  }
  if (hb.injected != nullptr) hb.dev->free_event(hb.injected);
  hb.injected = nullptr;
  if (hb.ring_addr != elan4::kNullE4Addr) hb.dev->unmap(hb.ring_addr);
  hb.ring_addr = elan4::kNullE4Addr;
  hb.ring = {};
}

// One round: the root stages its payload into the round's slot and issues
// one switch-replicated transfer; every other member waits for the slot's
// arrival event, copies the slot out and re-arms the event for the slot's
// next lap. The barrier every kBcastSlots rounds keeps a root from
// restaging a slot some member has not copied out yet.
Status Colls::hw_bcast(Communicator& c, HwBcastState& hb, void* buf,
                       std::size_t bytes, int root) {
  Elan4Device& dev = *hb.dev;
  const int slot = static_cast<int>(hb.round % kBcastSlots);
  const std::size_t off = static_cast<std::size_t>(slot) * hb.slot_bytes;
  // A dead root never fires the arrival events; the abort epoch moving is
  // the members' only exit.
  const auto& epoch = world_.pml().abort_epoch;
  const std::uint64_t stamp = epoch ? epoch() : 0;
  const auto root_lost = sim::watched(
      world_.pml().abort_signal, [&] { return epoch && epoch() > stamp; });
  if (c.rank() == root) {
    dev.charge_copy(bytes);
    std::memcpy(hb.ring.data() + off, buf, bytes);
    std::vector<elan4::Vpid> group;
    for (int r = 0; r < c.size(); ++r)
      if (r != root) group.push_back(hb.vpids[static_cast<std::size_t>(r)]);
    hb.injected->init(1);
    dev.hw_broadcast(group, hb.ring_addr + off,
                     static_cast<std::uint32_t>(bytes), hb.arrive[slot]->index(),
                     hb.injected);
    dev.wait_event(hb.injected);
  } else {
    if (!dev.wait_event(hb.arrive[slot], root_lost))
      return Status::kErrProcFailed;
    dev.charge_copy(bytes);
    std::memcpy(buf, hb.ring.data() + off, bytes);
    hb.arrive[slot]->init(1);
  }
  if (++hb.round % kBcastSlots == 0) return barrier(c);
  return Status::kOk;
}

}  // namespace oqs::mpi::coll
