// Collectives framework: one dispatch point per MPI collective, selectable
// algorithms behind it.
//
// Three families:
//  - Reference point-to-point algorithms (dissemination barrier, binomial
//    bcast/reduce, recursive-doubling and ring reduce-scatter+allgather
//    allreduce), expressed over an arbitrary subgroup of a communicator so
//    the hierarchical layer can reuse them for its inter-node phase.
//  - NIC-offloaded barrier / small-message allreduce: a combining tree
//    programmed into the Elan4 NICs with chained QDMA descriptors and
//    countdown events, so the critical path between a rank's arrival and
//    the completion broadcast involves no host except at the root's own
//    arrival (see the protocol walkthrough in nic.cc and DESIGN.md). The
//    NIC bcast is the hardware broadcast (paper §4.1): the root's NIC
//    pushes one staged payload through the Elite switches' replication to
//    every member. It needs the global virtual address space, so it runs
//    only when forced (BcastAlg::kNic) and only where the build finds
//    that space intact.
//  - Hierarchical composition: collectives split into an intra-node
//    shared-memory phase (leader election over the ranks sharing a node)
//    and an inter-node phase over the leaders.
//
// Per-communicator state (placement map, shared segment, NIC tree,
// hardware-broadcast ring) is built lazily and collectively on the first
// routed collective, keyed by context id, and is placement-bound:
// migration or any other membership change invalidates it, which is why
// World::migrate() resets the local cache and why the kAuto rules only
// build state for communicators whose shape can benefit (see
// ensure_hier/ensure_nic call sites in coll.cc).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/status.h"
#include "dtype/datatype.h"
#include "elan4/device.h"
#include "mpi/coll/options.h"
#include "sim/idle.h"

namespace oqs::mpi {
class Communicator;
class World;
}  // namespace oqs::mpi

namespace oqs::mpi::coll {

// Return from the enclosing Status function when `expr` fails.
#define OQS_COLL_TRY(expr)                      \
  do {                                          \
    const Status st_ = (expr);                  \
    if (!ok(st_)) return st_;                   \
  } while (0)

class Colls {
 public:
  explicit Colls(World& world) : world_(world) {}
  ~Colls() { reset(); }
  Colls(const Colls&) = delete;
  Colls& operator=(const Colls&) = delete;

  // The dispatch points (called by Communicator; size() > 1 guaranteed).
  // A collective over a communicator with a declared-dead member fails
  // fast with kErrProcFailed; a failure mid-operation surfaces through the
  // underlying point-to-point statuses (kErrProcFailed / kRevoked).
  Status barrier(Communicator& c);
  Status bcast(Communicator& c, void* buf, std::size_t count,
               const dtype::DatatypePtr& type, int root);
  Status reduce_sum(Communicator& c, const double* send, double* recv,
                    std::size_t count, int root);
  Status allreduce_sum(Communicator& c, const double* send, double* recv,
                       std::size_t count);

  // Release device resources (NIC events, mapped slots, shared segments).
  // Must run while the Elan4 devices are still open: World calls it before
  // tearing down the PML in finalize() and migrate(). Idempotent.
  void reset();
  // Crash path: drop all cached state WITHOUT touching the device. A dead
  // host cannot clean up — peers' NIC trees keep their events, and the
  // node's shared segments outlive the process.
  void abandon() { states_.clear(); }

  // Host memcpy of `bytes` (startup plus host_memcpy_mbps), charged to the
  // calling process.
  void charge_copy(std::size_t bytes);

 private:
  static constexpr int kNicSlots = 2;
  static constexpr int kBcastSlots = 4;

  // A subgroup of a communicator taking part in one phase: position i
  // holds the communicator rank of the i-th member. Flat collectives use
  // the identity group; hierarchical inter phases use the leaders.
  struct Group {
    const std::vector<int>* ranks = nullptr;  // nullptr = identity
    int n = 0;
    int idx = -1;  // my position, -1 if not a member
    int to_comm(int i) const {
      return ranks != nullptr ? (*ranks)[static_cast<std::size_t>(i)] : i;
    }
  };

  // Intra-node shared segment (one per node per communicator; all local
  // ranks attach). Synchronization is by monotonic generation counters:
  // each hierarchical collective is a round; writers set a counter to the
  // round number, readers poll for >= round. The trailing ack sweep is
  // what makes slot/out reuse in the next round safe. Every counter write
  // notifies the readers polling it (sim::Word).
  struct ShmSeg {
    using Gen = sim::Word<std::uint64_t>;
    struct Slot {
      std::vector<std::uint8_t> data;
      Gen in_gen;   // local rank's contribution deposited
      Gen ack_gen;  // local rank consumed the round's result
    };
    explicit ShmSeg(std::size_t nlocal) : slots(nlocal) {}
    std::vector<Slot> slots;        // one per local rank
    std::vector<std::uint8_t> out;  // leader's published result
    Gen out_gen;
  };

  struct HierState {
    bool built = false;
    bool multi = false;        // any node hosts >= 2 ranks
    std::vector<int> node_of;  // comm rank -> node id
    std::vector<int> locals;   // comm ranks on my node (ascending)
    int lidx = -1;             // my position in locals
    std::vector<int> leaders;  // comm ranks, lowest rank per node
    int leader_pos = -1;       // my position in leaders; -1 = not a leader
    std::shared_ptr<ShmSeg> seg;
    std::string shm_key;
    std::uint64_t round = 0;
  };

  // Exchanged once per NIC-tree build: where each member's accumulator /
  // result slots live and which event-table indices to fire. Unlike the
  // hardware broadcast, nothing here must be symmetric across contexts —
  // but the events ARE allocated uniformly on every rank (members or not)
  // so the event-table indices the hardware broadcast matches stay
  // aligned across the job.
  struct NicPeerInfo {
    elan4::Vpid vpid;
    elan4::E4Addr acc[kNicSlots];
    elan4::E4Addr res[kNicSlots];
    std::int32_t up[kNicSlots];
    std::int32_t down[kNicSlots];
    std::int32_t capable;
  };

  struct NicState {
    bool built = false;
    bool usable = false;     // every group member has an Elan4 context
    std::vector<int> group;  // tree index -> comm rank
    int tidx = -1;           // my tree index; -1 = not a member
    elan4::Elan4Device* dev = nullptr;
    std::vector<double> acc[kNicSlots], res[kNicSlots];
    elan4::E4Addr acc_addr[kNicSlots] = {}, res_addr[kNicSlots] = {};
    elan4::E4Event* up[kNicSlots] = {nullptr, nullptr};
    elan4::E4Event* down[kNicSlots] = {nullptr, nullptr};
    elan4::E4Event* drain[kNicSlots] = {nullptr, nullptr};
    std::vector<NicPeerInfo> peers;  // by tree index
    int parent = -1;                 // tree indices
    std::vector<int> children;
    std::uint64_t seq = 0;
  };

  // Hardware broadcast: the switch lands the root's slot at the SAME E4
  // address in every member's context and fires the SAME event-table index
  // there. That holds only inside the global virtual address space — every
  // member mapped the ring at one address and allocated its arrival events
  // at the same indices — so the build allgathers both and resolves one
  // verdict. A ring of kBcastSlots slots pipelines successive rounds; a
  // barrier every kBcastSlots rounds bounds the skew.
  struct HwBcastState {
    bool built = false;
    bool usable = false;  // global virtual address space intact
    elan4::Elan4Device* dev = nullptr;
    std::size_t slot_bytes = 0;
    std::vector<std::uint8_t> ring;  // kBcastSlots slots of slot_bytes
    elan4::E4Addr ring_addr = elan4::kNullE4Addr;
    elan4::E4Event* arrive[kBcastSlots] = {};
    elan4::E4Event* injected = nullptr;
    std::vector<elan4::Vpid> vpids;  // by comm rank
    std::uint64_t round = 0;
  };

  struct CommState {
    HierState hier;
    NicState nic_flat;     // tree over all comm ranks
    NicState nic_leaders;  // tree over the node leaders
    HwBcastState hw_bcast;
  };

  CommState& state(const Communicator& c);

  // --- reference algorithms (reference.cc) ---
  // All return the first point-to-point error encountered and stop early;
  // the survivors of a mid-collective failure break out of their own waits
  // through the abort epoch (see Pml::epoch_aborted).
  Status ref_barrier(Communicator& c, int tag, const Group& g);
  Status ref_bcast(Communicator& c, int tag, const Group& g, int root_idx,
                   void* buf, std::size_t count, const dtype::DatatypePtr& type);
  Status ref_reduce(Communicator& c, int tag, const Group& g, int root_idx,
                    const double* send, double* recv, std::size_t count);
  Status linear_reduce(Communicator& c, int tag, const double* send,
                       double* recv, std::size_t count, int root);
  // In-place allreduce over the group (buf is both input and output).
  Status ref_allreduce_recdbl(Communicator& c, int tag, const Group& g,
                              double* buf, std::size_t count);
  Status ref_allreduce_rsag(Communicator& c, int tag, const Group& g,
                            double* buf, std::size_t count);
  Status ref_allreduce(Communicator& c, int tag, const Group& g, double* buf,
                       std::size_t count);

  // --- NIC combining tree (nic.cc) ---
  // A failed exchange releases what the build allocated and leaves the
  // state unbuilt; every build below returns the exchange's Status.
  Status ensure_nic(Communicator& c, NicState& st, std::vector<int> group);
  // Frees the tree's events and slot mappings.
  void release_nic(NicState& st);
  void prep_nic_slot(NicState& st, int slot);
  // One tree round: count == 0 is a barrier, else an in-place allreduce of
  // buf[0..count) (count * 8 must fit coll_nic_max_bytes). Aborts with
  // kErrProcFailed when the abort epoch moves while polling the tree — a
  // dead member means the countdown never completes.
  Status nic_round(NicState& st, double* buf, std::size_t count);

  // --- hardware broadcast (nic.cc) ---
  // Collective (re)build for payloads up to `bytes`; every rank passes the
  // same count, so every rank rebuilds together.
  Status build_hw_bcast(Communicator& c, HwBcastState& hb, std::size_t bytes);
  // Frees the ring mapping and events; the verdict stays.
  void release_hw_bcast(HwBcastState& hb);
  Status hw_bcast(Communicator& c, HwBcastState& hb, void* buf,
                  std::size_t bytes, int root);

  // --- hierarchical composition (hier.cc) ---
  Status ensure_hier(Communicator& c, CommState& st);
  Status hier_barrier(Communicator& c, int tag, CommState& st);
  Status hier_bcast(Communicator& c, int tag, CommState& st, void* buf,
                    std::size_t count, const dtype::DatatypePtr& type, int root);
  Status hier_reduce(Communicator& c, int tag, CommState& st,
                     const double* send, double* recv, std::size_t count,
                     int root);
  Status hier_allreduce(Communicator& c, int tag, CommState& st,
                        const double* send, double* recv, std::size_t count);
  // Inter-node phases over the leader group (NIC when permitted + usable).
  Status inter_barrier(Communicator& c, int tag, CommState& st);
  Status inter_allreduce(Communicator& c, int tag, CommState& st, double* buf,
                         std::size_t count);

  // Shared-memory helpers (cost model: shm_flag_ns per flag hop; payload
  // copies use charge_copy). shm_wait aborts with kRevoked when the abort
  // epoch moves while polling — a dead local rank would leave its
  // generation counter behind forever.
  Status shm_wait(ShmSeg::Gen& gen, std::uint64_t want);
  void charge_flag();

  // Uniform-across-ranks heuristics for the kAuto rules.
  bool hier_gate(const Communicator& c) const;
  bool nic_gate(const Communicator& c, std::size_t bytes) const;
  // kErrProcFailed when a member of c is in the published dead-set.
  Status fault_gate(const Communicator& c) const;

  World& world_;
  std::map<int, std::unique_ptr<CommState>> states_;  // by context id
};

}  // namespace oqs::mpi::coll
