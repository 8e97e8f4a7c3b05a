// The QsNetII fabric: topology + wire-time model + delivery scheduling.
//
// transmit() models cut-through switching: the head of a packet advances one
// hop latency per traversed link, each link is occupied for the packet's
// serialization time, and the payload callback runs at the destination when
// the tail arrives. Multiple rails (the paper's future-work multirail) are
// independent topologies over the same nodes.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "base/params.h"
#include "net/fault.h"
#include "net/topology.h"
#include "sim/engine.h"

namespace oqs::net {

class Fabric {
 public:
  // Builds `rails` identical topologies: SingleSwitch when nodes <= 8 (the
  // paper's QS-8A testbed), a quaternary fat-tree otherwise.
  Fabric(sim::Engine& engine, const ModelParams& params, int nodes, int rails = 1);

  int num_nodes() const { return nodes_; }
  int num_rails() const { return static_cast<int>(rails_.size()); }
  int hops(int src, int dst, int rail = 0) const { return rails_[rail]->hops(src, dst); }

  // Attach a fault injector (owned by the caller, typically QsNet). Only
  // Delivery::kLossy packets are subject to wire faults; loopback
  // (src == dst) never touches the fabric and is always immune.
  void set_fault_injector(FaultInjector* f) { faults_ = f; }

  // Hard-kill a rail from now on: every packet on it — any traffic class —
  // vanishes. No RNG draw, so the fault schedule of surviving rails is
  // unperturbed.
  void kill_rail(int rail) { rail_dead_[static_cast<std::size_t>(rail)] = true; }

  // Ship `bytes` from src to dst; run `deliver` at the destination when the
  // packet tail arrives. `bytes` here is one wire packet (the NIC fragments
  // to MTU); on-wire overhead per packet is folded into link_startup_ns.
  void transmit(int src, int dst, std::uint32_t bytes, std::function<void()> deliver,
                int rail = 0, Delivery cls = Delivery::kGuaranteed);

  // Hardware multicast (the Elite switches replicate the packet): the
  // source injects once; every destination's ejection link carries one
  // copy. Latency is that of a single packet, independent of fan-out.
  // `deliver` runs once per entry of `dsts`, with its index.
  void multicast(int src, const std::vector<int>& dsts, std::uint32_t bytes,
                 std::function<void(std::size_t idx)> deliver, int rail = 0);

  std::uint64_t packets_sent() const { return packets_; }

 private:
  sim::Engine& engine_;
  const ModelParams& params_;
  int nodes_;
  std::vector<std::unique_ptr<Topology>> rails_;
  std::vector<bool> rail_dead_;
  std::vector<Link*> scratch_route_;
  std::uint64_t packets_ = 0;
  FaultInjector* faults_ = nullptr;
};

}  // namespace oqs::net
