// Workload generation and tail statistics for the two-clock benchmark.
//
// Every input the benchmark feeds the library is generated here from one
// seed: message sizes, per-round compute skew, and (through Workload::seed)
// the payload oracle and the wire fault schedule. The same seed yields
// byte-identical traces (workload::serialize), so the simulated metrics of
// one build repeat exactly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "workload/trace.h"

namespace oqs::perfbench {

struct Workload {
  std::string name;
  int nodes = 8;       // testbed size; <= 8 is one QS-8A, more a fat tree
  int rails = 1;
  double loss = 0.0;   // wire drop probability; > 0 arms go-back-N
  std::uint64_t seed = 1;
  // Jobs occupy consecutive world-rank blocks, as in workload::replay_jobs.
  std::vector<workload::Trace> jobs;

  int ranks() const;
};

// Builds the named workload for `seed`; false for an unknown name.
bool make_workload(const std::string& name, std::uint64_t seed, Workload* out);

// Ops whose latency the replay samples: everything but compute blocks.
std::uint64_t comm_ops(const workload::Trace& t);

// Median and 99th percentile (sim::Samples interpolation), with the number
// of samples strictly above the 99th percentile. A p99 is reported only
// when at least kMinBeyondP99 samples lie beyond it.
struct Tail {
  double p50 = 0.0;
  double p99 = 0.0;
  std::size_t count = 0;
  std::size_t beyond_p99 = 0;
};
inline constexpr std::size_t kMinBeyondP99 = 10;
Tail tail_of(const std::vector<double>& samples);
inline bool tail_resolved(const Tail& t) { return t.beyond_p99 >= kMinBeyondP99; }

}  // namespace oqs::perfbench
