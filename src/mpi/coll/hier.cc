// Hierarchical composition: collectives split into an intra-node
// shared-memory phase and an inter-node phase over one leader per node.
//
// The intra-node side models what a shared-memory coll component does on
// the paper's dual-Xeon nodes: the local ranks of a communicator attach to
// one named segment (sim::Node::shm_attach) holding a deposit slot per
// local rank plus the leader's published result, synchronized by monotonic
// generation counters — each hierarchical collective is one round.
//
// Every operation runs the same three-phase skeleton so the counters never
// need resetting:
//   A) deposit  — non-leaders write their contribution (or just their
//                 in_gen flag for a barrier) and the leader collects;
//   B) inter    — the leaders run the operation among themselves, using
//                 the NIC combining tree when permitted and usable, else
//                 the point-to-point references over the leader group;
//   C) release  — the leader publishes out/out_gen, the locals consume it
//                 and write ack_gen, and the leader waits for all acks.
// The trailing ack sweep is what makes it safe for the next round to reuse
// the slots: a leader cannot overtake a straggling local because it does
// not leave round r until every local acknowledged r.
//
// A process failure mid-round leaves generation counters behind forever;
// every shm_wait therefore watches the abort epoch and bails with
// kRevoked, after which the communicator (and its segment protocol) is
// considered broken — survivors shrink to a fresh communicator whose
// post-fault collectives avoid the shared-segment path entirely.
//
// Role split is derived from a one-time placement exchange (ensure_hier).
// Like every build here it is collective and branch-uniform; the inner
// want-NIC predicate below depends only on option flags, leader count and
// message size, all identical across ranks.
#include <cstring>
#include <string>

#include "mpi/mpi.h"
#include "mpi/coll/coll.h"
#include "obs/metrics.h"

namespace oqs::mpi::coll {

Status Colls::ensure_hier(Communicator& c, CommState& st) {
  HierState& h = st.hier;
  if (h.built) return Status::kOk;
  const int n = c.size();
  const std::int32_t mynode = world_.env().node;
  std::vector<std::int32_t> nodes(static_cast<std::size_t>(n));
  OQS_COLL_TRY(c.allgather(&mynode, sizeof(std::int32_t), nodes.data()));
  h.node_of.assign(nodes.begin(), nodes.end());
  for (int r = 0; r < n; ++r) {
    if (nodes[static_cast<std::size_t>(r)] == mynode) {
      if (r == c.rank()) h.lidx = static_cast<int>(h.locals.size());
      h.locals.push_back(r);
    }
  }
  // One leader per node: the lowest comm rank placed there, ordered by
  // first appearance (== ascending leader rank).
  for (int r = 0; r < n; ++r) {
    const std::int32_t nd = nodes[static_cast<std::size_t>(r)];
    bool seen = false;
    for (int l : h.leaders)
      if (h.node_of[static_cast<std::size_t>(l)] == nd) seen = true;
    if (!seen) {
      if (r == c.rank()) h.leader_pos = static_cast<int>(h.leaders.size());
      h.leaders.push_back(r);
    }
  }
  h.multi = static_cast<int>(h.leaders.size()) < n;
  h.shm_key = world_.env().job + "/coll/" + std::to_string(c.context_id());
  const std::size_t nlocal = h.locals.size();
  h.seg = world_.net().node(mynode).shm_attach<ShmSeg>(h.shm_key, [nlocal] {
    auto seg = std::make_shared<ShmSeg>(nlocal);
    return seg;
  });
  OQS_METRIC_INC("coll.hier.maps_built");
  h.built = true;
  return Status::kOk;
}

// Leader-group inter phase helpers. Called on every rank (uniform), but
// only leaders do work; the want-NIC predicate is uniform so the collective
// ensure_nic build keeps all ranks in step.
Status Colls::inter_barrier(Communicator& c, int tag, CommState& st) {
  HierState& h = st.hier;
  const ModelParams& p = *world_.pml().ctx().params;
  const bool want_nic =
      world_.options().coll.nic &&
      static_cast<int>(h.leaders.size()) >= p.coll_nic_min_ranks;
  if (want_nic) OQS_COLL_TRY(ensure_nic(c, st.nic_leaders, h.leaders));
  if (h.leader_pos < 0 || h.leaders.size() < 2) return Status::kOk;
  if (want_nic && st.nic_leaders.usable)
    return nic_round(st.nic_leaders, nullptr, 0);
  const Group g{&h.leaders, static_cast<int>(h.leaders.size()), h.leader_pos};
  return ref_barrier(c, tag, g);
}

Status Colls::inter_allreduce(Communicator& c, int tag, CommState& st,
                              double* buf, std::size_t count) {
  HierState& h = st.hier;
  const ModelParams& p = *world_.pml().ctx().params;
  const std::size_t bytes = count * sizeof(double);
  const bool want_nic =
      world_.options().coll.nic && bytes > 0 &&
      bytes <= p.coll_nic_max_bytes &&
      static_cast<int>(h.leaders.size()) >= p.coll_nic_min_ranks;
  if (want_nic) OQS_COLL_TRY(ensure_nic(c, st.nic_leaders, h.leaders));
  if (h.leader_pos < 0 || h.leaders.size() < 2) return Status::kOk;
  if (want_nic && st.nic_leaders.usable)
    return nic_round(st.nic_leaders, buf, count);
  const Group g{&h.leaders, static_cast<int>(h.leaders.size()), h.leader_pos};
  return ref_allreduce(c, tag, g, buf, count);
}

Status Colls::hier_barrier(Communicator& c, int tag, CommState& st) {
  HierState& h = st.hier;
  ShmSeg& seg = *h.seg;
  const std::uint64_t r = ++h.round;
  if (h.leader_pos < 0) {
    charge_flag();
    seg.slots[static_cast<std::size_t>(h.lidx)].in_gen = r;
    OQS_COLL_TRY(inter_barrier(c, tag, st));  // uniform no-op for non-leaders
    OQS_COLL_TRY(shm_wait(seg.out_gen, r));
    charge_flag();
    seg.slots[static_cast<std::size_t>(h.lidx)].ack_gen = r;
    return Status::kOk;
  }
  for (std::size_t i = 1; i < h.locals.size(); ++i)
    OQS_COLL_TRY(shm_wait(seg.slots[i].in_gen, r));
  OQS_COLL_TRY(inter_barrier(c, tag, st));
  charge_flag();
  seg.out_gen = r;
  for (std::size_t i = 1; i < h.locals.size(); ++i)
    OQS_COLL_TRY(shm_wait(seg.slots[i].ack_gen, r));
  return Status::kOk;
}

Status Colls::hier_allreduce(Communicator& c, int tag, CommState& st,
                             const double* send, double* recv,
                             std::size_t count) {
  HierState& h = st.hier;
  ShmSeg& seg = *h.seg;
  const std::uint64_t r = ++h.round;
  const std::size_t bytes = count * sizeof(double);
  if (h.leader_pos < 0) {
    ShmSeg::Slot& slot = seg.slots[static_cast<std::size_t>(h.lidx)];
    slot.data.assign(reinterpret_cast<const std::uint8_t*>(send),
                     reinterpret_cast<const std::uint8_t*>(send) + bytes);
    charge_copy(bytes);
    charge_flag();
    slot.in_gen = r;
    OQS_COLL_TRY(inter_allreduce(c, tag, st, nullptr, count));  // uniform no-op
    OQS_COLL_TRY(shm_wait(seg.out_gen, r));
    charge_copy(bytes);
    std::memcpy(recv, seg.out.data(), bytes);
    charge_flag();
    slot.ack_gen = r;
    return Status::kOk;
  }
  std::vector<double> acc(send, send + count), tmp(count);
  for (std::size_t i = 1; i < h.locals.size(); ++i) {
    OQS_COLL_TRY(shm_wait(seg.slots[i].in_gen, r));
    charge_copy(bytes);
    std::memcpy(tmp.data(), seg.slots[i].data.data(), bytes);
    for (std::size_t j = 0; j < count; ++j) acc[j] += tmp[j];
  }
  OQS_COLL_TRY(inter_allreduce(c, tag, st, acc.data(), count));
  charge_copy(bytes);
  std::memcpy(recv, acc.data(), bytes);
  seg.out.assign(reinterpret_cast<const std::uint8_t*>(acc.data()),
                 reinterpret_cast<const std::uint8_t*>(acc.data()) + bytes);
  charge_copy(bytes);
  charge_flag();
  seg.out_gen = r;
  for (std::size_t i = 1; i < h.locals.size(); ++i)
    OQS_COLL_TRY(shm_wait(seg.slots[i].ack_gen, r));
  return Status::kOk;
}

Status Colls::hier_bcast(Communicator& c, int tag, CommState& st, void* buf,
                         std::size_t count, const dtype::DatatypePtr& type,
                         int root) {
  HierState& h = st.hier;
  ShmSeg& seg = *h.seg;
  const std::uint64_t r = ++h.round;
  const std::size_t bytes = count * type->size();  // contiguous (gated)
  const std::int32_t root_node = h.node_of[static_cast<std::size_t>(root)];
  int root_leader_pos = 0;
  for (std::size_t i = 0; i < h.leaders.size(); ++i)
    if (h.node_of[static_cast<std::size_t>(h.leaders[i])] == root_node)
      root_leader_pos = static_cast<int>(i);
  if (h.leader_pos < 0) {
    ShmSeg::Slot& slot = seg.slots[static_cast<std::size_t>(h.lidx)];
    if (c.rank() == root) {
      // The root is not its node's leader: hand the payload to the leader
      // through the segment.
      slot.data.assign(static_cast<const std::uint8_t*>(buf),
                       static_cast<const std::uint8_t*>(buf) + bytes);
      charge_copy(bytes);
    }
    charge_flag();
    slot.in_gen = r;
    OQS_COLL_TRY(shm_wait(seg.out_gen, r));
    if (c.rank() != root) {
      charge_copy(bytes);
      std::memcpy(buf, seg.out.data(), bytes);
    }
    charge_flag();
    slot.ack_gen = r;
    return Status::kOk;
  }
  for (std::size_t i = 1; i < h.locals.size(); ++i)
    OQS_COLL_TRY(shm_wait(seg.slots[i].in_gen, r));
  if (h.node_of[static_cast<std::size_t>(c.rank())] == root_node &&
      c.rank() != root) {
    int root_lidx = 0;
    for (std::size_t i = 0; i < h.locals.size(); ++i)
      if (h.locals[i] == root) root_lidx = static_cast<int>(i);
    charge_copy(bytes);
    std::memcpy(buf, seg.slots[static_cast<std::size_t>(root_lidx)].data.data(),
                bytes);
  }
  if (h.leaders.size() >= 2) {
    const Group g{&h.leaders, static_cast<int>(h.leaders.size()),
                  h.leader_pos};
    OQS_COLL_TRY(ref_bcast(c, tag, g, root_leader_pos, buf, count, type));
  }
  seg.out.assign(static_cast<const std::uint8_t*>(buf),
                 static_cast<const std::uint8_t*>(buf) + bytes);
  charge_copy(bytes);
  charge_flag();
  seg.out_gen = r;
  for (std::size_t i = 1; i < h.locals.size(); ++i)
    OQS_COLL_TRY(shm_wait(seg.slots[i].ack_gen, r));
  return Status::kOk;
}

Status Colls::hier_reduce(Communicator& c, int tag, CommState& st,
                          const double* send, double* recv, std::size_t count,
                          int root) {
  HierState& h = st.hier;
  ShmSeg& seg = *h.seg;
  const std::uint64_t r = ++h.round;
  const std::size_t bytes = count * sizeof(double);
  const std::int32_t root_node = h.node_of[static_cast<std::size_t>(root)];
  int root_leader_pos = 0;
  for (std::size_t i = 0; i < h.leaders.size(); ++i)
    if (h.node_of[static_cast<std::size_t>(h.leaders[i])] == root_node)
      root_leader_pos = static_cast<int>(i);
  if (h.leader_pos < 0) {
    ShmSeg::Slot& slot = seg.slots[static_cast<std::size_t>(h.lidx)];
    slot.data.assign(reinterpret_cast<const std::uint8_t*>(send),
                     reinterpret_cast<const std::uint8_t*>(send) + bytes);
    charge_copy(bytes);
    charge_flag();
    slot.in_gen = r;
    OQS_COLL_TRY(shm_wait(seg.out_gen, r));
    if (c.rank() == root) {
      charge_copy(bytes);
      std::memcpy(recv, seg.out.data(), bytes);
    }
    charge_flag();
    slot.ack_gen = r;
    return Status::kOk;
  }
  std::vector<double> acc(send, send + count), tmp(count);
  for (std::size_t i = 1; i < h.locals.size(); ++i) {
    OQS_COLL_TRY(shm_wait(seg.slots[i].in_gen, r));
    charge_copy(bytes);
    std::memcpy(tmp.data(), seg.slots[i].data.data(), bytes);
    for (std::size_t j = 0; j < count; ++j) acc[j] += tmp[j];
  }
  if (h.leaders.size() >= 2) {
    const Group g{&h.leaders, static_cast<int>(h.leaders.size()),
                  h.leader_pos};
    OQS_COLL_TRY(ref_reduce(c, tag, g, root_leader_pos, acc.data(), acc.data(),
                            count));
  }
  // Only the root's node leader holds the final sum now. Release phase is
  // uniform (out_gen always advances); the payload publish only matters —
  // and only happens — when the root is a non-leader on this node.
  if (c.rank() == root) {
    charge_copy(bytes);
    std::memcpy(recv, acc.data(), bytes);
  } else if (h.leader_pos == root_leader_pos &&
             h.node_of[static_cast<std::size_t>(c.rank())] == root_node) {
    seg.out.assign(reinterpret_cast<const std::uint8_t*>(acc.data()),
                   reinterpret_cast<const std::uint8_t*>(acc.data()) + bytes);
    charge_copy(bytes);
  }
  charge_flag();
  seg.out_gen = r;
  for (std::size_t i = 1; i < h.locals.size(); ++i)
    OQS_COLL_TRY(shm_wait(seg.slots[i].ack_gen, r));
  return Status::kOk;
}

}  // namespace oqs::mpi::coll
