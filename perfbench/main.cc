// One benchmark run: one workload, one seed, one process.
//
//   perfbench --workload <p2p_pair|ring_scale|mix_loss> --seed <n>
//             [--spans <file>]
//
// Builds the testbed (bench::Bed), launches one rank per trace slot through
// rte::Runtime::launch, and has each rank construct its mpi::World, leave
// one barrier, replay its job with workload::replay_rank, and finalize.
// Both clocks are read at the phase boundaries:
//   setup    testbed construction .. every rank has left the post-init
//            barrier (wire-up skew lands here, not in run)
//   run      .. the last rank has finished its last op
//   teardown .. finalize, the engine drain and testbed destruction are done
// Prints one JSON object on stdout for run.py. With --spans this is the
// traced run: it keeps spans around its own calls into rte, mpi, sim and
// workload in memory, writes them to <file> at the end, and adds the
// per-layer metrics. Library warnings go to stderr, which run.py captures.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.h"
#include "net/fault.h"
#include "obs/metrics.h"
#include "workload/workload.h"
#include "workloads.h"

namespace {

using namespace oqs;
using workload::OpKind;
using workload::ReplayOutcome;
using Clock = std::chrono::steady_clock;

// A span the benchmark records around one of its own calls. Names are
// "<layer>.<what>"; the layer is what the call enters.
struct Span {
  std::string name;
  int parent = -1;
  int rank = -1;  // -1: the benchmark's main thread
  sim::Time sim_begin = 0, sim_end = 0;
  double wall_begin = 0, wall_end = 0;  // seconds since setup started
};

class SpanLog {
 public:
  SpanLog(bool on, Clock::time_point t0) : on_(on), t0_(t0) {}

  // Returns the span id, or -1 when tracing is off.
  int open(std::string name, int parent, int rank, sim::Time now) {
    if (!on_) return -1;
    spans_.push_back({std::move(name), parent, rank, now, now, wall(), 0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id, sim::Time now) {
    if (id < 0) return;
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.sim_end = now;
    s.wall_end = wall();
  }
  double wall() const {
    return std::chrono::duration<double>(Clock::now() - t0_).count();
  }
  const std::vector<Span>& spans() const { return spans_; }

  // Simulated self time per layer, in us: each span's duration minus the
  // union of its children's intervals, summed over the layer's spans.
  std::map<std::string, double> self_sim_us() const {
    std::vector<std::vector<std::pair<sim::Time, sim::Time>>> kids(spans_.size());
    for (const Span& s : spans_)
      if (s.parent >= 0)
        kids[static_cast<std::size_t>(s.parent)].push_back({s.sim_begin, s.sim_end});
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      auto& k = kids[i];
      std::sort(k.begin(), k.end());
      sim::Time covered = 0, reach = s.sim_begin;
      for (auto [b, e] : k) {
        b = std::max(b, reach);
        e = std::min(e, s.sim_end);
        if (e > b) {
          covered += e - b;
          reach = e;
        }
      }
      const std::string layer = s.name.substr(0, s.name.find('.'));
      out[layer] += static_cast<double>(s.sim_end - s.sim_begin - covered) / 1000.0;
    }
    return out;
  }

  bool write(const std::string& path) const {
    std::ofstream os(path);
    os << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "\"parent\": %d, \"rank\": %d, \"sim_begin_us\": %.3f, "
                    "\"sim_end_us\": %.3f, \"wall_begin_s\": %.9f, "
                    "\"wall_end_s\": %.9f}",
                    s.parent, s.rank, static_cast<double>(s.sim_begin) / 1000.0,
                    static_cast<double>(s.sim_end) / 1000.0, s.wall_begin,
                    s.wall_end);
      os << "  {\"id\": " << i << ", \"name\": \"" << s.name << "\", " << buf
         << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    os << "]\n";
    return static_cast<bool>(os);
  }

 private:
  bool on_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
};

const char* op_span_name(OpKind k) {
  switch (k) {
    case OpKind::kCompute: return "cpu.compute";
    case OpKind::kSend: return "mpi.send";
    case OpKind::kRecv: return "mpi.recv";
    case OpKind::kSendRecv: return "mpi.sendrecv";
    case OpKind::kBarrier: return "mpi.barrier";
    case OpKind::kBcast: return "mpi.bcast";
    case OpKind::kAllreduce: return "mpi.allreduce";
    case OpKind::kAlltoall: return "mpi.alltoall";
  }
  return "mpi.op";
}

// The traced replay: the same ops through the same replay_rank, one call
// per op so each op gets its own span. Timing is unchanged; the rank
// digest is not comparable (it folds one op per call), and collective
// payload keys restart per call, which both sides of every op share.
ReplayOutcome replay_per_op(mpi::World& w, mpi::Communicator& comm,
                            const workload::Trace& job,
                            const workload::ReplayOptions& ropt,
                            workload::Report* report, SpanLog& spans,
                            int parent, int rank) {
  const auto me = static_cast<std::size_t>(comm.rank());
  workload::Trace one;
  one.name = job.name;
  one.ranks.resize(job.ranks.size());
  sim::Engine& eng = w.net().engine();
  for (const workload::Op& op : job.ranks[me]) {
    one.ranks[me].assign(1, op);
    const int s = spans.open(op_span_name(op.kind), parent, rank, eng.now());
    const ReplayOutcome out = workload::replay_rank(w, comm, one, ropt, report);
    spans.close(s, eng.now());
    if (out != ReplayOutcome::kCompleted) return out;
  }
  return ReplayOutcome::kCompleted;
}

// Phase boundaries, filled in by the rank bodies.
struct Phases {
  int ready = 0;      // ranks past the post-init barrier
  int done = 0;       // ranks past their last op
  int completed = 0;  // ranks whose replay returned kCompleted
  double setup_end_wall = 0, run_end_wall = 0;
  std::uint64_t setup_end_events = 0, run_end_events = 0;
  sim::Time init_sim = 0;  // last World constructed
  sim::Time fin_begin = std::numeric_limits<sim::Time>::max(), fin_end = 0;
  obs::MetricRegistry::Snapshot at_run_end;
};

class Json {
 public:
  void num(const std::string& k, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    raw(k, buf);
  }
  void str(const std::string& k, const std::string& v) { raw(k, "\"" + v + "\""); }
  void raw(const std::string& k, const std::string& v) {
    s_ += (s_.size() > 1 ? ", \"" : "\"") + k + "\": " + v;
  }
  std::string done() const { return s_ + "}"; }

 private:
  std::string s_ = "{";
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <p2p_pair|ring_scale|mix_loss> "
               "--seed <n> [--spans <file>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name, spans_path;
  std::uint64_t seed = 0;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--workload") {
      name = argv[i + 1];
    } else if (flag == "--seed") {
      char* end = nullptr;
      seed = std::strtoull(argv[i + 1], &end, 10);
      have_seed = end != argv[i + 1] && *end == '\0';
    } else if (flag == "--spans") {
      spans_path = argv[i + 1];
    } else {
      return usage();
    }
  }
  perfbench::Workload wl;
  if (argc % 2 == 0 || !have_seed || !perfbench::make_workload(name, seed, &wl))
    return usage();
  const bool traced = !spans_path.empty();
  const int np = wl.ranks();

  mpi::Options opts;
  opts.elan4.rails = wl.rails;
  if (wl.loss > 0) {
    // Wire loss is only survivable with the go-back-N stream armed.
    opts.elan4.reliability = true;
    opts.elan4.max_data_retries = 50;
  }
  workload::ReplayOptions ropt;
  ropt.seed = seed;
  std::vector<workload::Report> reports(wl.jobs.size());
  Phases ph;

  const obs::MetricRegistry::Snapshot at_start = obs::metrics().snapshot();
  const Clock::time_point t0 = Clock::now();
  SpanLog spans(traced, t0);

  int s = spans.open("bench.testbed", -1, -1, 0);
  auto bed = std::make_unique<bench::Bed>(wl.nodes, wl.rails);
  if (wl.loss > 0) {
    net::FaultProfile profile;
    profile.drop = wl.loss;
    bed->net->set_faults(profile, seed);
  }
  spans.close(s, 0);
  sim::Engine& eng = bed->engine;

  const int run_span = spans.open("sim.run", -1, -1, 0);
  auto body = [&](rte::Env& env) {
    const int me = env.world_index;
    const int proc = spans.open("rte.proc", run_span, me, eng.now());
    int sp = spans.open("mpi.init", proc, me, eng.now());
    mpi::World w(env, *bed->net, opts);
    spans.close(sp, eng.now());
    ph.init_sim = std::max(ph.init_sim, eng.now());

    sp = spans.open("mpi.init_barrier", proc, me, eng.now());
    w.comm().barrier();
    spans.close(sp, eng.now());
    if (++ph.ready == np) {
      ph.setup_end_wall = spans.wall();
      ph.setup_end_events = eng.events_executed();
    }

    // Job blocks as in workload::replay_jobs, which does not return each
    // rank's outcome. A lone job replays on the world communicator: at 256
    // ranks, splitting off a copy of it and building the copy's collective
    // state again costs seconds of wall time that measure neither phase.
    std::size_t job = 0;
    int base = 0;
    while (me >= base + wl.jobs[job].nranks()) base += wl.jobs[job++].nranks();
    std::optional<mpi::Communicator> split;
    if (wl.jobs.size() > 1) {
      sp = spans.open("mpi.split", proc, me, eng.now());
      split = w.comm().split(static_cast<int>(job), me);
      spans.close(sp, eng.now());
    }
    mpi::Communicator& comm = split ? *split : w.comm();
    sp = spans.open("workload.replay", proc, me, eng.now());
    const ReplayOutcome out =
        traced ? replay_per_op(w, comm, wl.jobs[job], ropt, &reports[job], spans,
                               sp, me)
               : workload::replay_rank(w, comm, wl.jobs[job], ropt, &reports[job]);
    spans.close(sp, eng.now());
    ph.completed += out == ReplayOutcome::kCompleted;
    if (++ph.done == np) {
      ph.run_end_wall = spans.wall();
      ph.run_end_events = eng.events_executed();
      if (traced) ph.at_run_end = obs::metrics().snapshot();
    }

    sp = spans.open("mpi.quiesce_barrier", proc, me, eng.now());
    w.comm().barrier();
    spans.close(sp, eng.now());
    sp = spans.open("mpi.finalize", proc, me, eng.now());
    ph.fin_begin = std::min(ph.fin_begin, eng.now());
    w.finalize();
    ph.fin_end = std::max(ph.fin_end, eng.now());
    spans.close(sp, eng.now());
    spans.close(proc, eng.now());
  };
  s = spans.open("rte.launch", -1, -1, 0);
  bed->rt->launch(np, body);
  spans.close(s, 0);
  const sim::Time drained = eng.run();
  spans.close(run_span, drained);

  const std::uint64_t events = eng.events_executed();
  const std::uint64_t stacks = eng.stacks_allocated();
  const std::uint64_t packets = bed->net->fabric().packets_sent();
  const std::uint64_t drops = bed->net->faults() ? bed->net->faults()->drops() : 0;
  sim::Time busy_ns = 0;
  for (int n = 0; n < bed->net->num_nodes(); ++n) busy_ns += bed->net->node(n).cpu().busy_ns();

  s = spans.open("bench.teardown", -1, -1, drained);
  bed.reset();
  spans.close(s, drained);
  const double end_wall = spans.wall();

  // ---- correctness and the simulated end-to-end metrics ----
  std::vector<double> op_us, p2p_us, coll_us;
  std::uint64_t attempted = 0, sampled = 0, verify_failures = 0, bytes = 0,
                replayed = 0;
  sim::Time t_begin = std::numeric_limits<sim::Time>::max(), t_end = 0;
  std::string digests;
  for (std::size_t j = 0; j < reports.size(); ++j) {
    const workload::Report& r = reports[j];
    attempted += perfbench::comm_ops(wl.jobs[j]);
    sampled += r.op_us.count();
    verify_failures += r.verify_failures;
    bytes += r.bytes_moved;
    replayed += r.ops_replayed;
    t_begin = std::min(t_begin, r.t_begin);
    t_end = std::max(t_end, r.t_end);
    op_us.insert(op_us.end(), r.op_us.values().begin(), r.op_us.values().end());
    p2p_us.insert(p2p_us.end(), r.p2p_us.values().begin(), r.p2p_us.values().end());
    coll_us.insert(coll_us.end(), r.coll_us.values().begin(), r.coll_us.values().end());
    char hex[24];
    std::snprintf(hex, sizeof(hex), "\"%016llx\"",
                  static_cast<unsigned long long>(r.digest()));
    digests += (j ? ", " : "") + std::string(hex);
  }
  // An op fails if it returned an error, never ran, or failed its oracle.
  const std::uint64_t failed =
      std::min(attempted, attempted - std::min(attempted, sampled) + verify_failures);
  const perfbench::Tail tail = perfbench::tail_of(op_us);
  std::string errors;
  if (ph.completed != np)
    errors += std::to_string(np - ph.completed) + " ranks did not complete; ";
  if (verify_failures != 0)
    errors += std::to_string(verify_failures) + " payloads failed verification; ";
  if (failed != 0) errors += std::to_string(failed) + " ops failed; ";
  if (!perfbench::tail_resolved(tail))
    errors += "only " + std::to_string(tail.beyond_p99) + " samples beyond p99; ";
  const double makespan_us =
      t_end > t_begin ? static_cast<double>(t_end - t_begin) / 1000.0 : 0.0;

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);

  Json sim_m;
  sim_m.num("op_p50_us", tail.p50);
  sim_m.num("op_p99_us", tail.p99);
  sim_m.num("goodput_mbps", makespan_us > 0 ? static_cast<double>(bytes) / makespan_us : 0);
  Json wall_m;
  wall_m.num("setup_s", ph.setup_end_wall);
  wall_m.num("run_s", ph.run_end_wall - ph.setup_end_wall);
  wall_m.num("teardown_s", end_wall - ph.run_end_wall);
  wall_m.num("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0);

  Json out;
  out.str("workload", wl.name);
  out.num("seed", static_cast<double>(seed));
  out.num("attempted", static_cast<double>(attempted));
  out.num("failed", static_cast<double>(failed));
  out.raw("correct", errors.empty() ? "true" : "false");
  out.str("errors", errors);
  out.raw("digests", "[" + digests + "]");
  out.num("samples", static_cast<double>(tail.count));
  out.num("beyond_p99", static_cast<double>(tail.beyond_p99));
  out.raw("sim", sim_m.done());
  out.raw("wall", wall_m.done());

  if (traced) {
    using Reg = obs::MetricRegistry;
    const Reg::Snapshot at_end = obs::metrics().snapshot();
    const Reg::Snapshot total = Reg::diff(at_start, at_end);
    const Reg::Snapshot teardown = Reg::diff(ph.at_run_end, at_end);
    auto get = [](const Reg::Snapshot& snap, const std::string& n) {
      const auto it = snap.find(n);
      return it == snap.end() ? 0.0 : static_cast<double>(it->second);
    };
    auto c = [&](const std::string& n) { return get(total, n); };
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    Json layer;
    const double run_events = static_cast<double>(ph.run_end_events - ph.setup_end_events);
    layer.num("sim.events.setup", static_cast<double>(ph.setup_end_events));
    layer.num("sim.events.run", run_events);
    layer.num("sim.events.teardown", static_cast<double>(events - ph.run_end_events));
    layer.num("sim.fiber_parks", c("sim.fiber.park"));
    layer.num("sim.timed_wakeup_share",
              ratio(c("sim.fiber.park") - c("sim.fiber.unpark"), static_cast<double>(events)));
    layer.num("sim.wall_ns_per_event",
              ratio((ph.run_end_wall - ph.setup_end_wall) * 1e9, run_events));
    layer.num("sim.stacks_allocated", static_cast<double>(stacks));
    layer.num("sim.cpu_busy_us", static_cast<double>(busy_ns) / 1000.0);
    layer.num("mpi.init_sim_us", static_cast<double>(ph.init_sim) / 1000.0);
    layer.num("mpi.finalize_sim_us",
              ph.fin_end > ph.fin_begin ? static_cast<double>(ph.fin_end - ph.fin_begin) / 1000.0
                                        : 0.0);
    const perfbench::Tail tp = perfbench::tail_of(p2p_us);
    const perfbench::Tail tc = perfbench::tail_of(coll_us);
    layer.num("mpi.p2p.p50_us", tp.p50);
    layer.num("mpi.p2p.p99_us", tp.p99);
    layer.num("mpi.p2p.calls", static_cast<double>(tp.count));
    layer.num("mpi.coll.p50_us", tc.p50);
    layer.num("mpi.coll.p99_us", tc.p99);
    layer.num("mpi.coll.calls", static_cast<double>(tc.count));
    for (const char* n :
         {"coll.barrier.hier", "coll.barrier.nic", "coll.barrier.dissemination",
          "coll.allreduce.hier", "coll.allreduce.nic", "coll.allreduce.nic_fallback",
          "coll.allreduce.rsag", "coll.allreduce.recdbl", "pml.send.eager",
          "pml.send.rendezvous", "bml.send.pipelined", "bml.pipeline.push_tx",
          "bml.stripe.send_done", "bml.stripe.failovers", "ptl.frames.handled",
          "ptl.rdv.started", "ptl.reliability.retransmissions",
          "ptl.reliability.rtx_timeouts", "ptl.reliability.dup_frames",
          "ptl.reliability.acks_sent", "elan4.qdma.posted", "elan4.rdma.reads",
          "elan4.rdma.writes", "elan4.rdma.tx_bytes", "elan4.event.chain_fires",
          "elan4.mmu.maps", "elan4.nic.commands", "elan4.nic.rx_drops"})
      layer.num(n, c(n));
    layer.num("elan4.nic.rx_drops.teardown", get(teardown, "elan4.nic.rx_drops"));
    layer.num("elan4.qdma.depth.hiwater", get(at_end, "elan4.qdma.depth.hiwater"));
    layer.num("pml.unexpected_share",
              ratio(c("pml.match.unexpected_queued"), c("pml.recv.posted")));
    layer.num("ptl.rtx_ratio",
              ratio(c("ptl.reliability.retransmissions"), c("ptl.frames.handled")));
    layer.num("net.packets", static_cast<double>(packets));
    layer.num("net.drops", static_cast<double>(drops));
    layer.num("workload.ops", static_cast<double>(replayed));
    layer.num("workload.bytes", static_cast<double>(bytes));
    layer.num("workload.verify_failures", static_cast<double>(verify_failures));
    layer.num("workload.fail_ratio", ratio(static_cast<double>(failed),
                                           static_cast<double>(attempted)));
    const auto self = spans.self_sim_us();
    for (const char* l : {"sim", "rte", "mpi", "workload", "cpu"}) {
      const auto it = self.find(l);
      layer.num(std::string("span.") + l + ".self_sim_us", it == self.end() ? 0.0 : it->second);
    }
    layer.num("trace.spans", static_cast<double>(spans.spans().size()));
    out.raw("layer", layer.done());
    if (!spans.write(spans_path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", spans_path.c_str());
      return 1;
    }
  }
  std::printf("%s\n", out.done().c_str());
  return errors.empty() ? 0 : 1;
}
