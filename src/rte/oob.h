// Out-of-band control messaging (the RTE's management Ethernet).
//
// Open MPI's RTE wires processes up over a socket-based OOB channel that is
// independent of the high-speed fabric — which is exactly what lets new
// processes join the Quadrics network at arbitrary times (paper §4.1). Cost
// model: per-message management-network latency plus serialization at
// Fast-Ethernet-class bandwidth.
#pragma once

#include <cstdint>
#include <cstring>
#include <deque>
#include <map>
#include <type_traits>
#include <vector>

#include "base/params.h"
#include "sim/engine.h"
#include "sim/sync.h"

namespace oqs::rte {

constexpr int kAnyTag = -1;

struct OobMsg {
  int src = -1;
  int tag = 0;
  std::vector<std::uint8_t> data;
};

class Oob {
 public:
  Oob(sim::Engine& engine, const ModelParams& params)
      : engine_(engine), params_(params) {}

  // Create a new addressable endpoint; returns its OOB id.
  int add_endpoint();
  void remove_endpoint(int id);

  // Reliable, ordered per-pair delivery after the management-net delay.
  void send(int src, int dst, int tag, std::vector<std::uint8_t> data);

  // Block until a message with `tag` (or any, with kAnyTag) arrives at
  // `self`; other messages stay queued.
  OobMsg recv(int self, int tag = kAnyTag);
  bool try_recv(int self, int tag, OobMsg* out);

 private:
  struct Endpoint {
    explicit Endpoint(sim::Engine& e) : arrived(e) {}
    std::deque<OobMsg> queue;
    sim::Notifier arrived;
  };

  bool match(Endpoint& ep, int tag, OobMsg* out);

  sim::Engine& engine_;
  const ModelParams& params_;
  std::map<int, std::unique_ptr<Endpoint>> endpoints_;
  int next_id_ = 1;
};

// --- tiny POD (de)serialization helpers for control payloads ---
template <typename T>
void put_pod(std::vector<std::uint8_t>& buf, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  const std::size_t at = buf.size();
  buf.resize(at + sizeof(T));
  std::memcpy(buf.data() + at, &v, sizeof(T));
}

template <typename T>
T get_pod(const std::vector<std::uint8_t>& buf, std::size_t& off) {
  static_assert(std::is_trivially_copyable_v<T>);
  T v{};
  std::memcpy(&v, buf.data() + off, sizeof(T));
  off += sizeof(T);
  return v;
}

}  // namespace oqs::rte
