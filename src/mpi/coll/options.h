// Collective-algorithm selection knobs.
//
// Every MPI collective routed through the framework (barrier, bcast,
// reduce_sum, allreduce_sum) is dispatched to one of several algorithms:
// the point-to-point references, the NIC-offloaded combining tree, the
// hardware broadcast, or the hierarchical (intra-node shared memory +
// inter-node) composition. kAuto picks by communicator size, message size
// and placement — the rules live in coll.cc and are documented in
// DESIGN.md §Collectives. Forcing a mode overrides the rules but still
// falls back to the reference algorithm when the fabric cannot support it
// (e.g. a rank without an Elan4 context).
//
// BcastAlg::kNic is the Elite switches' hardware broadcast (paper §4.1).
// kAuto never picks it: it needs the global virtual address space, which
// the first kNic bcast of a communicator checks collectively, falling
// back to the binomial tree when any process's allocation history has
// diverged.
#pragma once

namespace oqs::mpi::coll {

enum class BarrierAlg { kAuto, kDissemination, kNic, kHier };
enum class BcastAlg { kAuto, kBinomial, kHier, kNic };
enum class ReduceAlg { kAuto, kLinear, kBinomial, kHier };
enum class AllreduceAlg { kAuto, kRecursiveDoubling, kRsAg, kNic, kHier };

struct CollOptions {
  BarrierAlg barrier = BarrierAlg::kAuto;
  BcastAlg bcast = BcastAlg::kAuto;
  ReduceAlg reduce = ReduceAlg::kAuto;
  AllreduceAlg allreduce = AllreduceAlg::kAuto;
  // Permissions for the auto rules (and for the inter-node phase of a
  // forced kHier): allow hierarchical composition / NIC offload.
  bool hier = true;
  bool nic = true;

  bool all_auto() const {
    return barrier == BarrierAlg::kAuto && bcast == BcastAlg::kAuto &&
           reduce == ReduceAlg::kAuto && allreduce == AllreduceAlg::kAuto &&
           hier && nic;
  }
};

}  // namespace oqs::mpi::coll
