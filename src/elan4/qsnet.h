// The simulated testbed: nodes, QsNetII fabric, Elan4 NICs, and the
// system-wide capability.
//
// Mirrors the paper's cluster: eight dual-Xeon nodes, one QS-8A switch,
// one QM-500 Elan4 card per node (more rails on request for the multirail
// extension).
#pragma once

#include <memory>
#include <vector>

#include "base/params.h"
#include "elan4/capability.h"
#include "elan4/nic.h"
#include "net/ethernet.h"
#include "net/fabric.h"
#include "sim/engine.h"
#include "sim/node.h"
#include "sim/process.h"
#include "sim/rng.h"

namespace oqs::elan4 {

class Elan4Device;

class QsNet {
 public:
  QsNet(sim::Engine& engine, const ModelParams& params, int nodes,
        int contexts_per_node = 64, int rails = 1);
  ~QsNet();
  QsNet(const QsNet&) = delete;
  QsNet& operator=(const QsNet&) = delete;

  sim::Engine& engine() { return engine_; }
  const ModelParams& params() const { return params_; }
  // For harnesses that retune the model between building the testbed and
  // launching processes; every component reads this one copy.
  ModelParams& mutable_params() { return params_; }
  net::Fabric& fabric() { return *fabric_; }
  // The machine's management/TCP Ethernet (beside the QsNetII fabric).
  net::EthNet& eth() { return *eth_; }
  SystemCapability& capability() { return capability_; }

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  int num_rails() const { return rails_; }
  sim::Node& node(int id) { return *nodes_[static_cast<std::size_t>(id)]; }
  // Host handle of a process (or device) on node `id`.
  sim::ProcessCtx host(int id, int gid = -1) {
    return {&engine_, &node(id).cpu(), &params_, gid};
  }
  Elan4Nic& nic(int node, int rail = 0) {
    return *nics_[static_cast<std::size_t>(node * rails_ + rail)];
  }

  // Claim a context on `node` and open a device handle for the calling
  // process (the dynamic-join operation of paper §4.1/§5). Returns nullptr
  // when the node's contexts are exhausted.
  std::unique_ptr<Elan4Device> open(int node, int rail = 0);

  int node_of(Vpid vpid) const { return capability_.node_of(vpid); }
  ContextId context_of(Vpid vpid) const { return capability_.context_of(vpid); }

  // --- fault injection (reliability testing) ---
  // Install a fault profile (drop / corrupt / duplicate / delay) on the
  // fabric, replacing any previous injector; an empty profile removes it.
  // Deterministic per seed. The one way to configure a fault.
  void set_faults(const net::FaultProfile& profile, std::uint64_t seed = 1);
  // Called by NICs on landing data. Returns true if a bit was flipped.
  bool maybe_corrupt(std::vector<std::uint8_t>& data, std::size_t protect_prefix);
  // Hard-kill one rail from now on: every packet routed over it vanishes
  // (all traffic classes). Fabric state, so a later set_faults leaves the
  // rail dead.
  void kill_rail(int rail);
  net::FaultInjector* faults() { return faults_.get(); }
  std::uint64_t corruptions() const { return faults_ ? faults_->corruptions() : 0; }

 private:
  sim::Engine& engine_;
  ModelParams params_;
  int rails_;
  std::vector<std::unique_ptr<sim::Node>> nodes_;
  std::unique_ptr<net::Fabric> fabric_;
  std::unique_ptr<net::EthNet> eth_;
  std::vector<std::unique_ptr<Elan4Nic>> nics_;
  SystemCapability capability_;
  std::unique_ptr<net::FaultInjector> faults_;
};

}  // namespace oqs::elan4
