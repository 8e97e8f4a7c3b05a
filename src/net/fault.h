// Deterministic fault injection for the fabric.
//
// A FaultInjector decides, per wire packet, whether the fabric loses it,
// delivers it twice, holds it (reordering it past its successors), or — at
// landing time, where the bytes are visible — flips one bit of it. All
// decisions come from seeded RNG streams consumed in simulation event
// order, so a fault schedule is a pure function of (workload, seed): the
// same seed reproduces the same drops, the same retransmissions, and the
// same trace digest.
//
// Wire faults (drop/duplicate/delay) are only applied to packets the
// sender marked Delivery::kLossy — the QDMA frame stream the Elan4 PTL
// protects with go-back-N. RDMA payload streams and Tport traffic stay
// Delivery::kGuaranteed: the hardware model has no recovery for a lost
// fragment (QsNetII links are reliable; the end-to-end layer exists to
// catch what the hardware misses), but their *contents* can still be
// corrupted, which the CRC + re-read path recovers.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "sim/rng.h"
#include "sim/time.h"

namespace oqs::net {

// Per-link fault probabilities. `delay_ns` is how long a delayed packet is
// held beyond its normal delivery time.
struct FaultProfile {
  double drop = 0.0;
  double corrupt = 0.0;
  double duplicate = 0.0;
  double delay = 0.0;
  sim::Time delay_ns = 25000;

  bool wire_active() const { return drop > 0 || duplicate > 0 || delay > 0; }
  bool any() const { return wire_active() || corrupt > 0; }
};

class FaultInjector {
 public:
  // `seed` derives both RNG streams: wire rolls and corruption rolls are
  // independent so enabling loss does not perturb an existing corruption
  // schedule (and vice versa).
  FaultInjector(const FaultProfile& profile, std::uint64_t seed)
      : default_(profile), wire_rng_(seed ^ 0x9E3779B97F4A7C15ull), corrupt_rng_(seed) {}

  // Directed per-link override; -1 on either side is a wildcard matched
  // after the exact pair (exact, then (-1,dst), then (src,-1)).
  void set_link(int src, int dst, const FaultProfile& profile) {
    links_[{src, dst}] = profile;
  }

  const FaultProfile& profile_for(int src, int dst) const {
    if (!links_.empty()) {
      if (auto it = links_.find({src, dst}); it != links_.end()) return it->second;
      if (auto it = links_.find({-1, dst}); it != links_.end()) return it->second;
      if (auto it = links_.find({src, -1}); it != links_.end()) return it->second;
    }
    return default_;
  }

  // One wire-level decision for a lossy packet traversing src -> dst.
  struct WireFault {
    bool drop = false;
    bool duplicate = false;
    sim::Time delay_ns = 0;
  };
  WireFault roll_wire(int src, int dst) {
    const FaultProfile& p = profile_for(src, dst);
    WireFault f;
    if (p.drop > 0 && wire_rng_.chance(p.drop)) {
      f.drop = true;
      ++drops_;
      return f;  // a dropped packet can be neither duplicated nor delayed
    }
    if (p.duplicate > 0 && wire_rng_.chance(p.duplicate)) {
      f.duplicate = true;
      ++duplicates_;
    }
    if (p.delay > 0 && wire_rng_.chance(p.delay)) {
      f.delay_ns = p.delay_ns;
      ++delays_;
    }
    return f;
  }

  // Corruption roll at landing time: with the link's corrupt probability,
  // flip one bit beyond `protect_prefix`. Returns true if a bit flipped.
  bool corrupt(std::vector<std::uint8_t>& data, std::size_t protect_prefix,
               int src = -1, int dst = -1) {
    const FaultProfile& p = profile_for(src, dst);
    if (p.corrupt <= 0 || data.size() <= protect_prefix) return false;
    if (!corrupt_rng_.chance(p.corrupt)) return false;
    const std::size_t idx = corrupt_rng_.uniform(protect_prefix, data.size() - 1);
    const int bit = static_cast<int>(corrupt_rng_.uniform(0, 7));
    data[idx] ^= static_cast<std::uint8_t>(1 << bit);
    ++corruptions_;
    return true;
  }

  void set_corruption(double prob) { default_.corrupt = prob; }

  // Hard-kill a rail: every packet on it — any traffic class — vanishes.
  // Deterministic (no RNG draw), so killing a rail never perturbs the fault
  // schedule of surviving rails.
  void set_rail_dead(int rail) { dead_rails_.insert(rail); }
  bool rail_dead(int rail) const { return dead_rails_.count(rail) != 0; }

  // Record a process death once it happened.
  void mark_vpid_dead(int vpid) {
    dead_vpids_.insert(vpid);
    ++kills_;
  }
  bool vpid_dead(int vpid) const { return dead_vpids_.count(vpid) != 0; }
  std::uint64_t kills() const { return kills_; }

  std::uint64_t drops() const { return drops_; }
  std::uint64_t duplicates() const { return duplicates_; }
  std::uint64_t delays() const { return delays_; }
  std::uint64_t corruptions() const { return corruptions_; }

 private:
  FaultProfile default_;
  std::map<std::pair<int, int>, FaultProfile> links_;
  std::set<int> dead_rails_;
  std::set<int> dead_vpids_;
  std::uint64_t kills_ = 0;
  sim::Rng wire_rng_;
  sim::Rng corrupt_rng_;
  std::uint64_t drops_ = 0;
  std::uint64_t duplicates_ = 0;
  std::uint64_t delays_ = 0;
  std::uint64_t corruptions_ = 0;
};

// How a packet may be treated by the fault layer. The sender picks the
// class: kLossy only for traffic whose protocol recovers from loss.
enum class Delivery : std::uint8_t {
  kGuaranteed,  // exempt from drop/duplicate/delay (still corruptible)
  kLossy,       // full fault treatment
};

}  // namespace oqs::net
