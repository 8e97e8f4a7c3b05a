#include "elan4/qsnet.h"

#include "base/log.h"
#include "elan4/device.h"

namespace oqs::elan4 {

QsNet::QsNet(sim::Engine& engine, const ModelParams& params, int nodes,
             int contexts_per_node, int rails)
    : engine_(engine),
      params_(params),
      rails_(rails),
      capability_(nodes, contexts_per_node) {
  fabric_ = std::make_unique<net::Fabric>(engine_, params_, nodes, rails);
  eth_ = std::make_unique<net::EthNet>(engine_, params_);
  for (int i = 0; i < nodes; ++i)
    nodes_.push_back(std::make_unique<sim::Node>(engine_, i, params_));
  for (int i = 0; i < nodes; ++i)
    for (int r = 0; r < rails; ++r)
      nics_.push_back(std::make_unique<Elan4Nic>(*this, i, r));
}

QsNet::~QsNet() = default;

void QsNet::set_faults(const net::FaultProfile& profile, std::uint64_t seed) {
  if (!profile.any()) {
    faults_.reset();
    fabric_->set_fault_injector(nullptr);
    return;
  }
  faults_ = std::make_unique<net::FaultInjector>(profile, seed);
  fabric_->set_fault_injector(faults_.get());
}

void QsNet::kill_rail(int rail) {
  log::warn("elan4", "rail ", rail, " marked dead");
  fabric_->kill_rail(rail);
}

bool QsNet::maybe_corrupt(std::vector<std::uint8_t>& data,
                          std::size_t protect_prefix) {
  if (faults_ == nullptr) return false;
  return faults_->corrupt(data, protect_prefix);
}

std::unique_ptr<Elan4Device> QsNet::open(int node, int rail) {
  const Vpid vpid = capability_.claim(node);
  if (vpid == kInvalidVpid) {
    log::warn("elan4", "no free context on node ", node);
    return nullptr;
  }
  log::debug("elan4", "node ", node, " claimed vpid ", vpid, " (rail ", rail, ")");
  return std::make_unique<Elan4Device>(*this, node, rail, vpid);
}

}  // namespace oqs::elan4
