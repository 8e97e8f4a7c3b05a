// The run-time environment: job launch, name service, dynamic spawn.
//
// Models Open MPI's RTE (orted + GPR): processes are placed on nodes, get an
// OOB endpoint, and use a head-node registry to publish/look up contact
// info (Elan VPIDs, queue ids, exposed E4 addresses) during wire-up. The
// registry is the mechanism that lets late-spawned processes establish
// connections with an existing pool (paper §4.1: "Open MPI Run-Time
// Environment can help the newly created processes to establish connections
// with the existing processes").
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "elan4/qsnet.h"
#include "rte/failure.h"
#include "rte/oob.h"
#include "sim/sync.h"

namespace oqs::rte {

class Runtime;

// Per-process environment handed to the process body.
struct Env {
  Runtime* rte = nullptr;
  int world_size = 0;   // size of the initially launched job
  int world_index = 0;  // index within the initial launch (or spawn order)
  int node = -1;
  int oob_id = -1;
  std::string job = "job0";
};

class Registry {
 public:
  Registry(sim::Engine& engine, const ModelParams& params)
      : engine_(engine), params_(params), changed_(engine) {}

  // Publish key -> value. One management-net round trip; the value is
  // stamped with the instant it lands.
  void put(const std::string& key, std::vector<std::uint8_t> value);
  // Block until the key exists, then return its value. Each probe of a
  // missing key costs a registry round trip (subscription model).
  std::vector<std::uint8_t> get(const std::string& key);
  // Block until every key exists, then fetch all their values in one
  // round trip, the reply's bytes paid at oob_mbps. Like get(), each probe
  // that finds a key missing costs another round trip. The caller reads
  // the values through peek() for as long as they stay current.
  void fetch(const std::vector<std::string>& keys);
  // A key's value without a round trip. It stands for the copy a caller
  // kept from an earlier get() or fetch(), so call it only when
  // republished_after() says that copy is still current.
  const std::vector<std::uint8_t>& peek(const std::string& key) const {
    return kv_.at(key).value;
  }
  // The key was (re)published after instant `t`, or does not exist: a
  // value fetched at or before `t` may be stale.
  bool republished_after(const std::string& key, sim::Time t) const {
    auto it = kv_.find(key);
    return it == kv_.end() || it->second.put_at > t;
  }
  void erase(const std::string& key) { kv_.erase(key); }

  // Named counting barrier: returns once `count` participants arrived.
  void barrier(const std::string& name, int count);
  // The instant the named barrier let its participants go, if it has.
  std::optional<sim::Time> barrier_released_at(const std::string& name) const {
    auto it = barriers_.find(name);
    if (it == barriers_.end()) return std::nullopt;
    return it->second.released_at;
  }

 private:
  sim::Time rtt() const { return 2 * params_.oob_latency_ns; }

  sim::Engine& engine_;
  const ModelParams& params_;
  struct Entry {
    std::vector<std::uint8_t> value;
    sim::Time put_at = 0;
  };
  std::map<std::string, Entry> kv_;
  struct Barrier {
    int entered = 0;
    std::optional<sim::Time> released_at;
  };
  std::map<std::string, Barrier> barriers_;
  sim::Notifier changed_;
};

class Runtime {
 public:
  Runtime(sim::Engine& engine, elan4::QsNet& qsnet)
      : engine_(engine),
        qsnet_(qsnet),
        oob_(engine, qsnet.params()),
        registry_(engine, qsnet.params()),
        failure_(engine, qsnet.params()) {}

  sim::Engine& engine() { return engine_; }
  elan4::QsNet& qsnet() { return qsnet_; }
  Oob& oob() { return oob_; }
  Registry& registry() { return registry_; }
  FailureService& failure() { return failure_; }

  using Body = std::function<void(Env&)>;

  // Launch `nprocs` processes round-robin over the cluster nodes (or on
  // `nodes[i]` when given). Processes start immediately as fibers.
  void launch(int nprocs, Body body, const std::vector<int>& nodes = {});

  // Dynamically spawn one more process on `node` (MPI-2 spawn support).
  // The new process gets a fresh OOB endpoint and world_index.
  void spawn_one(int node, Body body);

  int processes_launched() const { return launched_; }

 private:
  sim::Engine& engine_;
  elan4::QsNet& qsnet_;
  Oob oob_;
  Registry registry_;
  FailureService failure_;
  int launched_ = 0;
};

}  // namespace oqs::rte
