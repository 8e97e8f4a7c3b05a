// Shared test harness: one simulated testbed (the paper's 8-node cluster)
// plus helpers to run MPI programs on it.
#pragma once

#include <cstdlib>
#include <functional>
#include <memory>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "openqs.h"

namespace oqs::test {

// CI variation hooks. Tests that leave the relevant mpi::Options or
// ModelParams at their defaults pick these up, so one build can run the
// whole suite again as a multirail and/or multi-network configuration:
//   OQS_TEST_RAILS=N  bring up N Elan4 rails (fabric + PTL modules)
//   OQS_TEST_TCP=1    additionally enable the TCP PTL beside Elan4
//   OQS_TEST_FRAG=N   ModelParams::pipeline_frag_bytes (bytes) — a small
//                     value forces multi-fragment schedules on every
//                     long message in the suite
//   OQS_TEST_DEPTH=N  ModelParams::pipeline_depth
//   OQS_TEST_COLL=M   force a collectives mode for every routed collective:
//                     p2p (reference algorithms only), nic (NIC combining
//                     tree for barrier/allreduce, hardware broadcast for
//                     bcast), hier (hierarchical, p2p inter phase),
//                     hiernic (hierarchical with NIC inter phase). Applied
//                     only when the test left every coll knob at kAuto.
inline int env_rails() {
  const char* v = std::getenv("OQS_TEST_RAILS");
  const int n = v != nullptr ? std::atoi(v) : 1;
  return n >= 1 ? n : 1;
}

inline bool env_tcp() {
  const char* v = std::getenv("OQS_TEST_TCP");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

inline std::size_t env_frag() {
  const char* v = std::getenv("OQS_TEST_FRAG");
  const long long n = v != nullptr ? std::atoll(v) : 0;
  return n > 0 ? static_cast<std::size_t>(n) : 0;
}

inline int env_depth() {
  const char* v = std::getenv("OQS_TEST_DEPTH");
  const int n = v != nullptr ? std::atoi(v) : 0;
  return n > 0 ? n : 0;
}

// Maps OQS_TEST_COLL onto opts.coll; no-op when unset or unrecognized.
inline void env_coll(mpi::coll::CollOptions* coll) {
  const char* v = std::getenv("OQS_TEST_COLL");
  if (v == nullptr) return;
  const std::string mode(v);
  using namespace mpi::coll;
  if (mode == "p2p") {
    coll->barrier = BarrierAlg::kDissemination;
    coll->bcast = BcastAlg::kBinomial;
    coll->reduce = ReduceAlg::kBinomial;
    coll->allreduce = AllreduceAlg::kRecursiveDoubling;
    coll->hier = false;
    coll->nic = false;
  } else if (mode == "nic") {
    coll->barrier = BarrierAlg::kNic;
    coll->bcast = BcastAlg::kNic;
    coll->allreduce = AllreduceAlg::kNic;
    coll->hier = false;
  } else if (mode == "hier") {
    coll->barrier = BarrierAlg::kHier;
    coll->bcast = BcastAlg::kHier;
    coll->reduce = ReduceAlg::kHier;
    coll->allreduce = AllreduceAlg::kHier;
    coll->nic = false;
  } else if (mode == "hiernic") {
    coll->barrier = BarrierAlg::kHier;
    coll->bcast = BcastAlg::kHier;
    coll->reduce = ReduceAlg::kHier;
    coll->allreduce = AllreduceAlg::kHier;
  }
}

// Rendezvous sends each shape of the BML's fragment schedule has started so
// far (process-wide): the paper's one-fragment read and write shapes count
// ptl.rdv.started, the pipelined shape bml.send.pipelined.
struct RdvCounts {
  std::uint64_t paper = obs::metrics().counter("ptl.rdv.started").value();
  std::uint64_t pipelined =
      obs::metrics().counter("bml.send.pipelined").value();
};

// Every rendezvous since `before` ran the shape `scheme` names, and at
// least one did.
inline void expect_rendezvous_path(ptl_elan4::Scheme scheme,
                                   const RdvCounts& before) {
  const RdvCounts now;
  const std::uint64_t paper = now.paper - before.paper;
  const std::uint64_t pipelined = now.pipelined - before.pipelined;
  const bool pipe = scheme == ptl_elan4::Scheme::kPipelined;
  EXPECT_GT(pipe ? pipelined : paper, 0u) << "no rendezvous ran";
  EXPECT_EQ(pipe ? paper : pipelined, 0u) << "a rendezvous took the other shape";
}

struct TestBed {
  sim::Engine engine;
  ModelParams params;
  std::unique_ptr<elan4::QsNet> net;
  std::unique_ptr<rte::Runtime> rt;
  // Tests whose assertions depend on the exact transport configuration
  // (1-rail vs 2-rail comparisons, single-PTL blocking ladders, PTL-level
  // counters the striped path bypasses) set this to ignore the env hooks.
  bool pin_transport = false;
  // A frame of unknown kind or a runt (shorter than a match header) is a
  // protocol bug, so the bed fails any test during which one arrived.
  // Tests that inject malformed frames on purpose set this to opt out.
  bool allow_bad_frames = false;
  // A fault-free run drops no QDMA: a process closes each context only
  // once every peer it said goodbye to has said goodbye back, and nothing
  // follows a goodbye (pml/endpoint.h). The bed fails any test during which
  // a NIC dropped one. Tests that crash a process (frames to the corpse
  // drop) or inject faults set this to opt out.
  bool allow_drops = false;

  // Runts and unknown-kind frames seen so far, over every PTL.
  static std::uint64_t bad_frames() {
    return obs::metrics().counter("ptl.frames.unknown_kind").value() +
           obs::metrics().counter("ptl.frames.runt_dropped").value();
  }
  // QDMAs dropped so far by every NIC: for a closed or unknown queue, or
  // addressed to a dead context.
  static std::uint64_t qdma_drops() {
    return obs::metrics().counter("elan4.nic.rx_drops").value() +
           obs::metrics().counter("elan4.nic.dead_vpid_drops").value();
  }

  explicit TestBed(int nodes = 8, int rails = 1, ModelParams p = {})
      : params(p),
        bad_frames_at_start_(bad_frames()),
        qdma_drops_at_start_(qdma_drops()) {
    if (rails < env_rails()) rails = env_rails();
    net = std::make_unique<elan4::QsNet>(engine, params, nodes, 64, rails);
    rt = std::make_unique<rte::Runtime>(engine, *net);
  }

  // Launch `n` MPI processes running `body`, then drive the simulation to
  // completion. Returns the final simulated time (ns).
  sim::Time run_mpi(int n, std::function<void(mpi::World&)> body,
                    mpi::Options opts = {}) {
    // Apply the environment variation only where it cannot change what a
    // test explicitly configured: rails need polling progress, and the
    // other knobs respect a non-default setting.
    if (!pin_transport) {
      if (opts.use_elan4 && opts.elan4.rails == 1 &&
          opts.elan4.progress == ptl_elan4::Progress::kPolling)
        opts.elan4.rails = env_rails();
      if (opts.use_elan4 && !opts.use_tcp && env_tcp()) opts.use_tcp = true;
      const ModelParams defaults;
      if (params.pipeline_frag_bytes == defaults.pipeline_frag_bytes &&
          env_frag() > 0)
        params.pipeline_frag_bytes = env_frag();
      if (params.pipeline_depth == defaults.pipeline_depth && env_depth() > 0)
        params.pipeline_depth = env_depth();
      net->mutable_params().pipeline_frag_bytes = params.pipeline_frag_bytes;
      net->mutable_params().pipeline_depth = params.pipeline_depth;
      if (opts.coll.all_auto()) env_coll(&opts.coll);
    }
    auto shared = std::make_shared<std::function<void(mpi::World&)>>(std::move(body));
    int left = 0;
    rt->launch(n, [this, opts, shared, &left](rte::Env& env) {
      {
        mpi::World world(env, *net, opts);
        (*shared)(world);
      }
      ++left;
    });
    const sim::Time end = engine.run();
    // The engine drains with a fiber still parked when a wait can never
    // end: a teardown waiting for a goodbye that will not come, say.
    EXPECT_EQ(left, n) << "a process never finished its teardown";
    return end;
  }

  ~TestBed() {
    if (!allow_bad_frames) {
      EXPECT_EQ(bad_frames(), bad_frames_at_start_)
          << "malformed frames arrived (ptl.frames.unknown_kind / "
             "ptl.frames.runt_dropped)";
    }
    if (!allow_drops) {
      EXPECT_EQ(qdma_drops(), qdma_drops_at_start_)
          << "a NIC dropped QDMAs (elan4.nic.rx_drops / "
             "elan4.nic.dead_vpid_drops)";
    }
  }

 private:
  std::uint64_t bad_frames_at_start_;
  std::uint64_t qdma_drops_at_start_;
};

}  // namespace oqs::test
