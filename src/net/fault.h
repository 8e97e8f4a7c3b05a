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
// corrupted, which the fragment schedule's per-fragment CRC re-pull
// recovers.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/rng.h"
#include "sim/time.h"

namespace oqs::net {

// Fault probabilities, one set for the whole fabric. `delay_ns` is how long
// a delayed packet is held beyond its normal delivery time.
struct FaultProfile {
  double drop = 0.0;
  double corrupt = 0.0;
  double duplicate = 0.0;
  double delay = 0.0;
  sim::Time delay_ns = 25000;

  bool any() const { return drop > 0 || corrupt > 0 || duplicate > 0 || delay > 0; }
};

class FaultInjector {
 public:
  // `seed` derives both RNG streams: wire rolls and corruption rolls are
  // independent so enabling loss does not perturb an existing corruption
  // schedule (and vice versa).
  FaultInjector(const FaultProfile& profile, std::uint64_t seed)
      : profile_(profile), wire_rng_(seed ^ 0x9E3779B97F4A7C15ull), corrupt_rng_(seed) {}

  // One wire-level decision for a lossy packet.
  struct WireFault {
    bool drop = false;
    bool duplicate = false;
    sim::Time delay_ns = 0;
  };
  WireFault roll_wire() {
    WireFault f;
    if (profile_.drop > 0 && wire_rng_.chance(profile_.drop)) {
      f.drop = true;
      ++drops_;
      return f;  // a dropped packet can be neither duplicated nor delayed
    }
    if (profile_.duplicate > 0 && wire_rng_.chance(profile_.duplicate)) {
      f.duplicate = true;
      ++duplicates_;
    }
    if (profile_.delay > 0 && wire_rng_.chance(profile_.delay)) {
      f.delay_ns = profile_.delay_ns;
      ++delays_;
    }
    return f;
  }

  // Corruption roll at landing time: with the corrupt probability, flip one
  // bit beyond `protect_prefix`. Returns true if a bit flipped.
  bool corrupt(std::vector<std::uint8_t>& data, std::size_t protect_prefix) {
    if (profile_.corrupt <= 0 || data.size() <= protect_prefix) return false;
    if (!corrupt_rng_.chance(profile_.corrupt)) return false;
    const std::size_t idx = corrupt_rng_.uniform(protect_prefix, data.size() - 1);
    const int bit = static_cast<int>(corrupt_rng_.uniform(0, 7));
    data[idx] ^= static_cast<std::uint8_t>(1 << bit);
    ++corruptions_;
    return true;
  }

  std::uint64_t drops() const { return drops_; }
  std::uint64_t duplicates() const { return duplicates_; }
  std::uint64_t delays() const { return delays_; }
  std::uint64_t corruptions() const { return corruptions_; }

 private:
  FaultProfile profile_;
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
