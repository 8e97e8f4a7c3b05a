// The public MPI-2-style API of the library.
//
// One World per process (fiber). Construction performs the dynamic join the
// paper describes: claim an Elan4 context, instantiate PTL modules, publish
// contact info through the RTE registry, and wire up with the peers of the
// job. Communicators give ranks, point-to-point (blocking and nonblocking),
// collectives built over point-to-point, and MPI-2 dynamic process
// management via spawn_merge().
//
// Quickstart:
//   rte.launch(2, [&](rte::Env& env) {
//     mpi::World world(env, qsnet);
//     auto& comm = world.comm();
//     if (comm.rank() == 0) comm.send(buf, n, dtype::byte_type(), 1, 0);
//     else                  comm.recv(buf, n, dtype::byte_type(), 0, 0);
//   });
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dtype/datatype.h"
#include "elan4/qsnet.h"
#include "mpi/coll/options.h"
#include "pml/pml.h"
#include "pml/request.h"
#include "ptl/elan4/options.h"
#include "rte/runtime.h"

namespace oqs::ptl_elan4 {
class PtlElan4;
}

namespace oqs::mpi {

namespace coll {
class Colls;
}

inline constexpr int kAnySource = pml::kAnySource;
inline constexpr int kAnyTag = pml::kAnyTag;

struct Options {
  bool use_elan4 = true;
  bool use_tcp = false;
  // Elan4 PTL configuration. Its `scheme` is the one rendezvous selector:
  // the BML's fragment schedule (default, tuned by ModelParams::pipeline_*)
  // or the paper's monolithic RDMA-read/write.
  ptl_elan4::Options elan4;
  // Collective-algorithm selection (see mpi/coll/options.h and DESIGN.md
  // §Collectives): kAuto everywhere by default.
  coll::CollOptions coll;
};

struct RecvStatus {
  int source = kAnySource;
  int tag = kAnyTag;
  std::size_t bytes = 0;
  Status status = Status::kOk;
};

class World;
class Request;

// Complete a set of nonblocking operations.
void wait_all(std::vector<Request>& reqs);
// Complete (at least) one; returns its index.
std::size_t wait_any(std::vector<Request>& reqs);

// Nonblocking-operation handle. Keep it alive until wait()/test() says the
// operation completed; the underlying buffers belong to the caller.
class Request {
 public:
  Request() = default;
  bool valid() const { return req_ != nullptr; }
  bool test();
  void wait(RecvStatus* st = nullptr);
  std::size_t transferred() const { return req_ ? req_->transferred() : 0; }

 private:
  friend class Communicator;
  friend void wait_all(std::vector<Request>&);
  friend std::size_t wait_any(std::vector<Request>&);
  Request(World* w, std::shared_ptr<pml::Request> r) : world_(w), req_(std::move(r)) {}
  void fill_status(RecvStatus* st) const;
  World* world_ = nullptr;
  std::shared_ptr<pml::Request> req_;
};

class Communicator {
 public:
  int rank() const { return rank_; }
  int size() const { return static_cast<int>(gids_.size()); }
  int context_id() const { return ctx_; }
  // Global process id behind a communicator rank.
  int gid_of(int rank) const { return gids_[static_cast<std::size_t>(rank)]; }

  // --- point to point ---
  // Blocking calls return kOk on completion; after a process failure they
  // surface kErrProcFailed (the named peer is in the dead-set) or kRevoked
  // (the communicator was revoked / a wildcard receive became
  // unsatisfiable). Fault-free applications may ignore the returns.
  Status send(const void* buf, std::size_t count, const dtype::DatatypePtr& type,
              int dst, int tag);
  Status recv(void* buf, std::size_t count, const dtype::DatatypePtr& type, int src,
              int tag, RecvStatus* st = nullptr);
  Request isend(const void* buf, std::size_t count, const dtype::DatatypePtr& type,
                int dst, int tag);
  Request irecv(void* buf, std::size_t count, const dtype::DatatypePtr& type,
                int src, int tag);
  // Simultaneous send and receive (deadlock-free shift exchanges).
  Status sendrecv(const void* send_buf, std::size_t send_count, int dst, int send_tag,
                  void* recv_buf, std::size_t recv_count, int src, int recv_tag,
                  const dtype::DatatypePtr& type, RecvStatus* st = nullptr);
  // Blocking probe: returns the envelope of the next matching message
  // without consuming it. iprobe is the nonblocking variant.
  void probe(int src, int tag, RecvStatus* st);
  bool iprobe(int src, int tag, RecvStatus* st = nullptr);

  // --- collectives (built on point-to-point, as in the paper's Open MPI) ---
  // Like the point-to-point calls these return kOk normally and
  // kErrProcFailed / kRevoked once the job is degraded. A collective over
  // a communicator with a declared-dead member fails fast without
  // touching the network (see Colls::fault_gate).
  Status barrier();
  Status bcast(void* buf, std::size_t count, const dtype::DatatypePtr& type, int root);
  // Element-wise double-precision sum into recv_buf on every rank.
  Status allreduce_sum(const double* send_buf, double* recv_buf, std::size_t count);
  // Element-wise double-precision sum to root only.
  Status reduce_sum(const double* send_buf, double* recv_buf, std::size_t count,
                    int root);
  // Gather equal-size contributions to root (recv_buf significant at root).
  Status gather(const void* send_buf, std::size_t bytes_each, void* recv_buf,
                int root);
  // Gather equal-size contributions to every rank.
  Status allgather(const void* send_buf, std::size_t bytes_each, void* recv_buf);
  // Distribute equal-size pieces of send_buf (significant at root).
  Status scatter(const void* send_buf, std::size_t bytes_each, void* recv_buf,
                 int root);
  // Personalized all-to-all exchange of equal-size blocks: block i of
  // send_buf goes to rank i; block j of recv_buf comes from rank j.
  Status alltoall(const void* send_buf, std::size_t bytes_each, void* recv_buf);

  // Duplicate with a fresh context id (collective).
  Communicator dup();
  // Partition into sub-communicators by color; ranks ordered by (key, rank).
  // Collective over the whole communicator.
  Communicator split(int color, int key);
  // ULFM-style recovery: the communicator minus every declared-dead
  // member, under a fresh context id. Locally computable and uniform (the
  // dead-set is global); every survivor must call it the same number of
  // times, like dup(). Collective state for the old context is abandoned.
  Communicator shrink();

 private:
  friend class World;
  friend class coll::Colls;
  Communicator(World* w, int ctx, int rank, std::vector<int> gids)
      : world_(w), ctx_(ctx), rank_(rank), gids_(std::move(gids)) {}

  int coll_tag();  // reserved-tag sequence for collective traffic

  World* world_ = nullptr;
  int ctx_ = 0;
  int rank_ = -1;
  std::vector<int> gids_;  // rank -> global process id
  // Collective sequence number. 64-bit so the counter itself never wraps:
  // only its 28-bit projection onto the tag space does, and coll_tag()
  // asserts that projection never lands on an in-flight tag.
  std::uint64_t coll_seq_ = 0;
};

class World {
 public:
  // Collective over the launched job: every process of env's launch must
  // construct a World before any can exit wire-up.
  World(rte::Env& env, elan4::QsNet& net, Options opts = {});
  ~World();
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  int rank() const { return comm_->rank(); }
  int size() const { return comm_->size(); }
  int gid() const { return gid_; }
  Communicator& comm() { return *comm_; }
  pml::Pml& pml() { return *pml_; }
  // The collectives framework (algorithm dispatch + cached per-communicator
  // state); rebuilt with the stack on migrate().
  coll::Colls& coll() { return *coll_; }
  // The Elan4 PTL module, when enabled (one-sided windows need its device).
  ptl_elan4::PtlElan4* elan4_ptl();
  // A specific rail's module ("elan4", "elan4.1", ...); nullptr if absent.
  ptl_elan4::PtlElan4* elan4_rail_ptl(int rail);
  rte::Env& env() { return env_; }
  elan4::QsNet& net() { return net_; }
  const Options& options() const { return opts_; }

  // MPI-2 dynamic process management: collectively (over comm world) spawn
  // `n` new processes running child_main, whose World is the merged
  // parents-then-children communicator. Returns the parents' view of that
  // merged communicator. `nodes[i]` optionally places child i.
  Communicator spawn_merge(int n, std::function<void(World&)> child_main,
                           const std::vector<int>& nodes = {});

  // Checkpoint/restart-style migration (paper §4.1: processes "migrate to
  // a remote node on-demand or in case of faults"): quiesce and tear down
  // the communication stack, release the Elan context, claim a fresh one on
  // `new_node`, and republish contact info. Peers reconnect lazily through
  // the registry on their next send. The application must ensure no traffic
  // targets this process between its goodbye and the republication —
  // exactly the quiescence a coordinated checkpoint provides.
  void migrate(int new_node);

  // --- process-fault tolerance ---
  // Crash this process in place: no goodbyes, no quiesce. Heartbeats stop
  // (the failure detector declares the death after its silence window),
  // the capability slot is marked failed, every in-flight request fails
  // with kErrProcFailed, and the Elan contexts stay open so peers' frames
  // keep landing unread until teardown. The chaos harness calls this; a
  // crashed World must only be destroyed afterwards, never finalized.
  void crash();
  // ULFM revoke: bump the global abort epoch so every rank's blocked
  // operations stamped earlier abort with kRevoked. Called by a survivor
  // that observed kErrProcFailed before it shrinks.
  void revoke();
  // Published failure state (from the RTE failure detector).
  bool any_failure() const;
  bool proc_dead(int gid) const;
  rte::FailureService& failure();

  // Collective teardown: quiesce, say goodbye, release the Elan context.
  void finalize();

 private:
  friend class Communicator;
  struct SpawnedTag {
    int gid;
    int nparents;
    int nchildren;
    int child_index;
    int ctx;
    std::vector<int> parent_gids;
    std::string key;
  };
  World(rte::Env& env, elan4::QsNet& net, Options opts, const SpawnedTag& tag);

  void open_stack();  // pml + ptls + contact publication
  void watch_failures();  // register with + subscribe to the detector
  // End the subscription and wait out its fibers still running, so none
  // touches the stack after this World is gone.
  void retire_failure_watch();
  // The wire-up exchange (Open MPI's modex): the gids' contact records in
  // one registry fetch. Only self is wired from it; its other results are
  // read again on first contact (peer_resolver), so what this process
  // keeps is when it fetched which gids.
  void modex(const std::vector<int>& gids);
  std::string proc_key(int gid) const;

  rte::Env env_;
  elan4::QsNet& net_;
  Options opts_;
  int gid_ = -1;
  std::unique_ptr<pml::Pml> pml_;
  std::unique_ptr<coll::Colls> coll_;
  std::unique_ptr<Communicator> comm_;
  int next_ctx_ = 1;
  int spawn_seq_ = 0;
  int known_procs_ = 0;  // total gids allocated in this job (spawn base)
  // The modex fetches: gids [lo, hi) were fetched at `at`.
  struct Fetched {
    int lo;
    int hi;
    sim::Time at;
  };
  std::vector<Fetched> fetched_;
  bool finalized_ = false;
  bool crashed_ = false;
  int failure_sub_ = 0;  // FailureService subscription id (0 = none)
  // Liveness token for the failure-subscriber fiber: cleared once the
  // stack is torn down (crash: before) so late notifications no-op.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  // Failure-subscriber fibers spawned and not yet finished.
  sim::Word<int> failure_fibers_;
};

}  // namespace oqs::mpi
