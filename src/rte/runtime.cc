#include "rte/runtime.h"

#include <algorithm>
#include <cassert>
#include <memory>

#include "base/log.h"

namespace oqs::rte {

void Registry::put(const std::string& key, std::vector<std::uint8_t> value) {
  engine_.sleep(rtt());
  kv_[key] = {std::move(value), engine_.now()};
  changed_.notify_all();
}

std::vector<std::uint8_t> Registry::get(const std::string& key) {
  engine_.sleep(rtt());
  while (true) {
    auto it = kv_.find(key);
    if (it != kv_.end()) return it->second.value;
    changed_.wait();
    engine_.sleep(rtt());  // re-fetch after the change notification
  }
}

void Registry::fetch(const std::vector<std::string>& keys) {
  auto all_present = [&] {
    return std::all_of(keys.begin(), keys.end(),
                       [&](const std::string& k) { return kv_.contains(k); });
  };
  engine_.sleep(rtt());
  while (!all_present()) {
    changed_.wait();
    engine_.sleep(rtt());  // re-fetch after the change notification
  }
  std::uint64_t bytes = 0;
  for (const std::string& k : keys) bytes += kv_.at(k).value.size();
  if (const sim::Time xfer = ModelParams::xfer_ns(bytes, params_.oob_mbps))
    engine_.sleep(xfer);
}

void Registry::barrier(const std::string& name, int count) {
  engine_.sleep(rtt());
  Barrier& b = barriers_[name];
  if (++b.entered >= count) {
    b.released_at = engine_.now();
    changed_.notify_all();
    return;
  }
  while (barriers_[name].entered < count) changed_.wait();
}

void Runtime::launch(int nprocs, Body body, const std::vector<int>& nodes) {
  assert(nodes.empty() || static_cast<int>(nodes.size()) == nprocs);
  auto shared_body = std::make_shared<Body>(std::move(body));
  for (int i = 0; i < nprocs; ++i) {
    const int node = nodes.empty() ? i % qsnet_.num_nodes()
                                   : nodes[static_cast<std::size_t>(i)];
    Env env;
    env.rte = this;
    env.world_size = nprocs;
    env.world_index = i;
    env.node = node;
    env.oob_id = oob_.add_endpoint();
    ++launched_;
    engine_.spawn("proc" + std::to_string(i),
                  [env, shared_body]() mutable { (*shared_body)(env); });
  }
}

void Runtime::spawn_one(int node, Body body) {
  Env env;
  env.rte = this;
  env.world_size = 1;
  env.world_index = launched_;
  env.node = node;
  env.oob_id = oob_.add_endpoint();
  ++launched_;
  engine_.spawn("spawned" + std::to_string(env.world_index),
                [env, body = std::move(body)]() mutable { body(env); });
}

}  // namespace oqs::rte
