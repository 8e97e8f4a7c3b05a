// Dispatch, selection rules and per-communicator state management.
//
// Selection (kAuto) must branch IDENTICALLY on every rank of the
// communicator, because the state builds behind the branches are
// collective: the gates below therefore use only values that are uniform
// across ranks (options, communicator size, fabric node count, message
// size) — never local capability, which is instead exchanged inside the
// builds and resolved into a uniform `usable` verdict.
#include "mpi/coll/coll.h"

#include <cassert>
#include <cstring>
#include <numeric>

#include "mpi/mpi.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ptl/elan4/ptl_elan4.h"

namespace oqs::mpi::coll {

Colls::CommState& Colls::state(const Communicator& c) {
  auto& up = states_[c.context_id()];
  if (up == nullptr) up = std::make_unique<CommState>();
  return *up;
}

bool Colls::hier_gate(const Communicator& c) const {
  // Pigeonhole: more ranks than fabric nodes means some node hosts at
  // least two of them, so the hierarchical split has an intra-node phase
  // to win with. Crucially this is computable without the placement map,
  // from values every rank agrees on — so all ranks decide to build the
  // map collectively before any role-dependent branching.
  return world_.options().coll.hier && c.size() > world_.net().num_nodes();
}

bool Colls::nic_gate(const Communicator& c, std::size_t bytes) const {
  const ModelParams& p = *world_.pml().ctx().params;
  return world_.options().coll.nic && c.size() >= p.coll_nic_min_ranks &&
         (bytes == 0 || bytes <= p.coll_nic_max_bytes);
}

void Colls::charge_flag() {
  world_.pml().ctx().compute(world_.pml().ctx().params->shm_flag_ns);
}

void Colls::charge_copy(std::size_t bytes) {
  const ModelParams& p = *world_.pml().ctx().params;
  world_.pml().ctx().compute(p.host_memcpy_startup_ns +
                             ModelParams::xfer_ns(bytes, p.host_memcpy_mbps));
}

Status Colls::shm_wait(ShmSeg::Gen& gen, std::uint64_t want) {
  pml::Pml& pml = world_.pml();
  const auto& epoch = pml.abort_epoch;
  const std::uint64_t stamp = epoch ? epoch() : 0;
  const bool seen = pml.ctx().wait_until(
      sim::Cadence::kShmFlag,
      sim::watched(&gen.signal(), [&] { return gen >= want; }), nullptr,
      sim::watched(pml.abort_signal, [&] { return epoch && epoch() > stamp; }));
  return seen ? Status::kOk : Status::kRevoked;
}

// Collectives over a communicator that already lost a member fail fast:
// the operation cannot complete with ULFM semantics, and the caller is
// expected to revoke + shrink. Scans only when a death has been declared.
Status Colls::fault_gate(const Communicator& c) const {
  if (!world_.any_failure()) return Status::kOk;
  for (int r = 0; r < c.size(); ++r)
    if (world_.proc_dead(c.gid_of(r))) return Status::kErrProcFailed;
  return Status::kOk;
}

// ------------------------------------------------------------ dispatch ----

Status Colls::barrier(Communicator& c) {
  if (Status gate = fault_gate(c); !ok(gate)) return gate;
  const int tag = c.coll_tag();
  OQS_METRIC_INC("coll.barrier.calls");
  CommState& st = state(c);
  const CollOptions& o = world_.options().coll;
  BarrierAlg alg = o.barrier;
  // Post-fault survivors fall back to pure point-to-point: NIC trees and
  // shared-segment protocols assume full membership and cannot be rebuilt
  // safely while the job is degraded (uniform: the dead-set is global).
  const bool degraded = world_.any_failure();
  if (alg == BarrierAlg::kAuto) {
    if (!degraded && hier_gate(c)) {
      OQS_COLL_TRY(ensure_hier(c, st));
      if (st.hier.multi) alg = BarrierAlg::kHier;
    }
    if (alg == BarrierAlg::kAuto && !degraded && nic_gate(c, 0))
      alg = BarrierAlg::kNic;
    if (alg == BarrierAlg::kAuto) alg = BarrierAlg::kDissemination;
  }
  const Group flat{nullptr, c.size(), c.rank()};
  switch (alg) {
    case BarrierAlg::kHier:
      OQS_COLL_TRY(ensure_hier(c, st));
      OQS_METRIC_INC("coll.barrier.hier");
      return hier_barrier(c, tag, st);
    case BarrierAlg::kNic: {
      std::vector<int> ranks(static_cast<std::size_t>(c.size()));
      std::iota(ranks.begin(), ranks.end(), 0);
      OQS_COLL_TRY(ensure_nic(c, st.nic_flat, std::move(ranks)));
      if (st.nic_flat.usable) {
        OQS_METRIC_INC("coll.barrier.nic");
        return nic_round(st.nic_flat, nullptr, 0);
      }
      break;  // capability disagreement: host fallback
    }
    case BarrierAlg::kDissemination:
    case BarrierAlg::kAuto:
      break;
  }
  OQS_METRIC_INC("coll.barrier.dissemination");
  return ref_barrier(c, tag, flat);
}

Status Colls::bcast(Communicator& c, void* buf, std::size_t count,
                    const dtype::DatatypePtr& type, int root) {
  if (count == 0) return Status::kOk;
  if (Status gate = fault_gate(c); !ok(gate)) return gate;
  const int tag = c.coll_tag();
  OQS_METRIC_INC("coll.bcast.calls");
  CommState& st = state(c);
  const CollOptions& o = world_.options().coll;
  // The shared-memory phase carries raw bytes, so the hierarchical path is
  // only meaningful for contiguous layouts (uniform across ranks: the
  // datatype signature of a collective must match).
  const bool contig = type->is_contiguous();
  const bool degraded = world_.any_failure();
  BcastAlg alg = o.bcast;
  if (alg == BcastAlg::kAuto) {
    if (contig && !degraded && hier_gate(c)) {
      OQS_COLL_TRY(ensure_hier(c, st));
      if (st.hier.multi) alg = BcastAlg::kHier;
    }
    if (alg == BcastAlg::kAuto) alg = BcastAlg::kBinomial;
  }
  if (alg == BcastAlg::kHier && !contig) alg = BcastAlg::kBinomial;
  if (alg == BcastAlg::kHier) {
    OQS_COLL_TRY(ensure_hier(c, st));
    OQS_METRIC_INC("coll.bcast.hier");
    return hier_bcast(c, tag, st, buf, count, type, root);
  }
  const Group flat{nullptr, c.size(), c.rank()};
  if (alg == BcastAlg::kNic) {
    // The switch moves raw bytes out of one slot, so only contiguous
    // layouts qualify. A payload longer than the slots rebuilds the ring.
    HwBcastState& hb = st.hw_bcast;
    const std::size_t bytes = count * type->size();
    if (contig && (!hb.built || bytes > hb.slot_bytes))
      OQS_COLL_TRY(build_hw_bcast(c, hb, bytes));
    if (contig && hb.usable) {
      OQS_METRIC_INC("coll.bcast.nic");
      return hw_bcast(c, hb, buf, bytes, root);
    }
    OQS_METRIC_INC("coll.bcast.nic_fallback");
    return ref_bcast(c, tag, flat, root, buf, count, type);
  }
  OQS_METRIC_INC("coll.bcast.binomial");
  return ref_bcast(c, tag, flat, root, buf, count, type);
}

Status Colls::reduce_sum(Communicator& c, const double* send, double* recv,
                         std::size_t count, int root) {
  if (count == 0) return Status::kOk;
  if (Status gate = fault_gate(c); !ok(gate)) return gate;
  const int tag = c.coll_tag();
  OQS_METRIC_INC("coll.reduce.calls");
  CommState& st = state(c);
  const bool degraded = world_.any_failure();
  ReduceAlg alg = world_.options().coll.reduce;
  if (alg == ReduceAlg::kAuto) {
    if (!degraded && hier_gate(c)) {
      OQS_COLL_TRY(ensure_hier(c, st));
      if (st.hier.multi) alg = ReduceAlg::kHier;
    }
    if (alg == ReduceAlg::kAuto) alg = ReduceAlg::kBinomial;
  }
  switch (alg) {
    case ReduceAlg::kHier:
      OQS_COLL_TRY(ensure_hier(c, st));
      OQS_METRIC_INC("coll.reduce.hier");
      return hier_reduce(c, tag, st, send, recv, count, root);
    case ReduceAlg::kLinear:
      OQS_METRIC_INC("coll.reduce.linear");
      return linear_reduce(c, tag, send, recv, count, root);
    case ReduceAlg::kBinomial:
    case ReduceAlg::kAuto:
      break;
  }
  OQS_METRIC_INC("coll.reduce.binomial");
  const Group flat{nullptr, c.size(), c.rank()};
  return ref_reduce(c, tag, flat, root, send, recv, count);
}

Status Colls::allreduce_sum(Communicator& c, const double* send, double* recv,
                            std::size_t count) {
  if (count == 0) return Status::kOk;
  if (Status gate = fault_gate(c); !ok(gate)) return gate;
  const int tag = c.coll_tag();
  OQS_METRIC_INC("coll.allreduce.calls");
  CommState& st = state(c);
  const ModelParams& p = *world_.pml().ctx().params;
  const std::size_t bytes = count * sizeof(double);
  const bool degraded = world_.any_failure();
  AllreduceAlg alg = world_.options().coll.allreduce;
  if (alg == AllreduceAlg::kAuto) {
    if (!degraded && hier_gate(c)) {
      OQS_COLL_TRY(ensure_hier(c, st));
      if (st.hier.multi) alg = AllreduceAlg::kHier;
    }
    if (alg == AllreduceAlg::kAuto && !degraded && nic_gate(c, bytes))
      alg = AllreduceAlg::kNic;
    if (alg == AllreduceAlg::kAuto)
      alg = bytes >= p.coll_rsag_min_bytes && c.size() >= 4
                ? AllreduceAlg::kRsAg
                : AllreduceAlg::kRecursiveDoubling;
  }
  const Group flat{nullptr, c.size(), c.rank()};
  switch (alg) {
    case AllreduceAlg::kHier:
      OQS_COLL_TRY(ensure_hier(c, st));
      OQS_METRIC_INC("coll.allreduce.hier");
      return hier_allreduce(c, tag, st, send, recv, count);
    case AllreduceAlg::kNic: {
      std::vector<int> ranks(static_cast<std::size_t>(c.size()));
      std::iota(ranks.begin(), ranks.end(), 0);
      OQS_COLL_TRY(ensure_nic(c, st.nic_flat, std::move(ranks)));
      if (recv != send) std::memcpy(recv, send, bytes);
      if (st.nic_flat.usable && bytes <= p.coll_nic_max_bytes) {
        OQS_METRIC_INC("coll.allreduce.nic");
        return nic_round(st.nic_flat, recv, count);
      }
      OQS_METRIC_INC("coll.allreduce.nic_fallback");
      return ref_allreduce(c, tag, flat, recv, count);
    }
    case AllreduceAlg::kRsAg:
      OQS_METRIC_INC("coll.allreduce.rsag");
      if (recv != send) std::memcpy(recv, send, bytes);
      return ref_allreduce_rsag(c, tag, flat, recv, count);
    case AllreduceAlg::kRecursiveDoubling:
    case AllreduceAlg::kAuto:
      break;
  }
  OQS_METRIC_INC("coll.allreduce.recdbl");
  if (recv != send) std::memcpy(recv, send, bytes);
  return ref_allreduce_recdbl(c, tag, flat, recv, count);
}

// --------------------------------------------------------------- state ----

void Colls::reset() {
  for (auto& [ctx_id, st] : states_) {
    (void)ctx_id;
    for (NicState* ns : {&st->nic_flat, &st->nic_leaders})
      if (ns->built) release_nic(*ns);
    release_hw_bcast(st->hw_bcast);
    if (st->hier.seg != nullptr)
      world_.net().node(world_.env().node).shm_unlink(st->hier.shm_key);
  }
  states_.clear();
}

}  // namespace oqs::mpi::coll
