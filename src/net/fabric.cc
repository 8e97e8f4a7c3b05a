#include "net/fabric.h"

#include <cassert>

namespace oqs::net {

Fabric::Fabric(sim::Engine& engine, const ModelParams& params, int nodes, int rails)
    : engine_(engine), params_(params), nodes_(nodes) {
  assert(rails >= 1);
  for (int r = 0; r < rails; ++r) {
    if (nodes <= 8)
      rails_.push_back(std::make_unique<SingleSwitch>(nodes));
    else
      rails_.push_back(std::make_unique<QuaternaryFatTree>(nodes));
  }
}

void Fabric::transmit(int src, int dst, std::uint32_t bytes,
                      std::function<void()> deliver, int rail, Delivery cls) {
  assert(rail >= 0 && rail < num_rails());
  ++packets_;

  if (src == dst) {
    // NIC-internal loopback: no fabric traversal, one hop worth of latency.
    // Loopback never crosses a link, so it is immune to wire faults.
    engine_.schedule(params_.hop_ns, std::move(deliver));
    return;
  }

  // A killed rail eats every traffic class — RDMA streams included — which
  // is what distinguishes a rail failure from per-packet wire loss.
  if (faults_ != nullptr && faults_->rail_dead(rail)) return;

  FaultInjector::WireFault fault;
  if (faults_ != nullptr && cls == Delivery::kLossy) fault = faults_->roll_wire(src, dst);
  if (fault.drop) return;  // the packet vanishes on the wire

  const sim::Time tx =
      params_.link_startup_ns + ModelParams::xfer_ns(bytes, params_.link_mbps);

  rails_[static_cast<std::size_t>(rail)]->route(src, dst, scratch_route_);
  sim::Time head = engine_.now();
  for (Link* link : scratch_route_) {
    const sim::Time depart = link->reserve(head, tx);
    head = depart + params_.hop_ns;
  }
  // Tail arrival: head arrival at the destination plus serialization.
  const sim::Time deliver_at = head + tx + fault.delay_ns;
  if (fault.duplicate) {
    // Two independent deliveries of the same packet. Copy the closure
    // before either runs: both copies must own the full payload.
    engine_.schedule_at(deliver_at + 2 * params_.hop_ns, deliver);
  }
  engine_.schedule_at(deliver_at, std::move(deliver));
}

void Fabric::multicast(int src, const std::vector<int>& dsts, std::uint32_t bytes,
                       std::function<void(std::size_t)> deliver, int rail) {
  assert(rail >= 0 && rail < num_rails());
  const sim::Time tx =
      params_.link_startup_ns + ModelParams::xfer_ns(bytes, params_.link_mbps);
  Topology& topo = *rails_[static_cast<std::size_t>(rail)];
  auto shared = std::make_shared<std::function<void(std::size_t)>>(std::move(deliver));

  // The injection path is reserved once; each destination pays only its
  // ejection leg. (Interior replication happens in the switches.)
  sim::Time src_depart = engine_.now();
  bool src_reserved = false;
  for (std::size_t i = 0; i < dsts.size(); ++i) {
    const int dst = dsts[i];
    ++packets_;
    if (dst == src) {
      engine_.schedule(params_.hop_ns, [shared, i] { (*shared)(i); });
      continue;
    }
    topo.route(src, dst, scratch_route_);
    assert(!scratch_route_.empty());
    if (!src_reserved) {
      src_depart = scratch_route_.front()->reserve(engine_.now(), tx);
      src_reserved = true;
    }
    // Replicated copies fan down from the common ancestor.
    sim::Time head = src_depart + params_.hop_ns;
    for (std::size_t k = 1; k < scratch_route_.size(); ++k) {
      const sim::Time depart = scratch_route_[k]->reserve(head, tx);
      head = depart + params_.hop_ns;
    }
    engine_.schedule_at(head + tx, [shared, i] { (*shared)(i); });
  }
}

}  // namespace oqs::net
