// Shared measurement harness for the paper-reproduction benchmarks.
//
// Each measurement builds a fresh simulated testbed (the paper's 8-node
// QsNetII cluster), runs the workload to completion, and reports simulated
// time. Results are deterministic: the same build prints the same numbers.
#pragma once

#include <cstdarg>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "openqs.h"

namespace oqs::bench {

// Optional trace/metric capture, driven by the bench command line:
//   bench_fig9 --trace=out.json   record every instrumented event and write
//                                 a Chrome trace file on exit (open it in
//                                 Perfetto or chrome://tracing)
//   bench_fig9 --metrics          dump the metric registry to stderr on exit
// Construct one at the top of main(); capture spans the whole process.
// Tracing records no simulated time, so the printed numbers are identical
// with and without it.
class TraceSession {
 public:
  TraceSession(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--trace=", 0) == 0)
        path_ = arg.substr(sizeof("--trace=") - 1);
      else if (arg == "--trace")
        path_ = "trace.json";
      else if (arg == "--metrics")
        metrics_ = true;
    }
    if (!path_.empty()) obs::set_tracer(&tracer_);
  }

  ~TraceSession() {
    if (metrics_) std::fputs(obs::metrics().to_string().c_str(), stderr);
    if (path_.empty()) return;
    obs::set_tracer(nullptr);
    if (tracer_.write_chrome_json_file(path_))
      std::printf("# trace: %zu events, digest %016llx -> %s\n",
                  tracer_.size(),
                  static_cast<unsigned long long>(tracer_.digest()),
                  path_.c_str());
  }
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  const obs::Tracer& tracer() const { return tracer_; }

 private:
  obs::Tracer tracer_;
  std::string path_;
  bool metrics_ = false;
};

// Machine-readable rows, driven by the bench command line:
//   bench_coll --json=coll.json   also write every row to coll.json as one
//                                 JSON array of objects
// Construct one at the top of main(), add() each row's object as a
// printf-style format, and call write() last. Without --json the rows are
// dropped.
class JsonRows {
 public:
  JsonRows(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--json=", 0) == 0) path_ = arg.substr(sizeof("--json=") - 1);
    }
  }

  // Appends one row: `fmt` formats the object, braces included.
  [[gnu::format(printf, 2, 3)]] void add(const char* fmt, ...) {
    va_list args;
    va_start(args, fmt);
    char row[512];
    std::vsnprintf(row, sizeof(row), fmt, args);
    va_end(args);
    json_ += "  ";
    json_ += row;
    json_ += ",\n";
  }

  // Writes the array to the --json path, if one was given, and names it
  // on stdout. False when the file cannot be written.
  bool write() {
    if (path_.empty()) return true;
    if (json_.size() > 2) json_.erase(json_.size() - 2, 1);  // trailing comma
    json_ += "]\n";
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path_.c_str());
      return false;
    }
    std::fwrite(json_.data(), 1, json_.size(), f);
    std::fclose(f);
    std::printf("# json: %s\n", path_.c_str());
    return true;
  }

 private:
  std::string path_;
  std::string json_ = "[\n";
};

// Paper methodology: "the first 100 iterations are used to warm up".
inline constexpr int kWarmup = 100;
inline constexpr int kIters = 400;

struct Bed {
  sim::Engine engine;
  ModelParams params;
  std::unique_ptr<elan4::QsNet> net;
  std::unique_ptr<rte::Runtime> rt;

  explicit Bed(int nodes = 8, int rails = 1, ModelParams p = {}) : params(p) {
    net = std::make_unique<elan4::QsNet>(engine, params, nodes, 64, rails);
    rt = std::make_unique<rte::Runtime>(engine, *net);
  }

  // QDMAs every NIC dropped (Elan4Nic::rx_drops: unknown-queue, dead-event
  // and dead-context drops alike); a fault-free run drops none.
  std::uint64_t qdma_drops() const {
    std::uint64_t drops = 0;
    for (int n = 0; n < net->num_nodes(); ++n)
      for (int r = 0; r < net->num_rails(); ++r)
        drops += net->nic(n, r).rx_drops();
    return drops;
  }
};

// One-way ping-pong latency (us) over the Open MPI stack.
inline double ompi_pingpong_us(std::size_t bytes, mpi::Options opts,
                               ModelParams params = {}, int iters = kIters,
                               int rails = 1) {
  Bed bed(8, rails, params);
  double us = 0;
  auto body = [&](mpi::World& w) {
    auto& c = w.comm();
    std::vector<std::uint8_t> buf(bytes, 0x42);
    std::vector<std::uint8_t> tmp(bytes);
    auto once = [&] {
      if (c.rank() == 0) {
        c.send(buf.data(), bytes, dtype::byte_type(), 1, 0);
        c.recv(tmp.data(), bytes, dtype::byte_type(), 1, 0);
      } else {
        c.recv(tmp.data(), bytes, dtype::byte_type(), 0, 0);
        c.send(tmp.data(), bytes, dtype::byte_type(), 0, 0);
      }
    };
    for (int i = 0; i < kWarmup; ++i) once();
    c.barrier();
    const sim::Time t0 = bed.engine.now();
    for (int i = 0; i < iters; ++i) once();
    if (c.rank() == 0)
      us = sim::to_us(bed.engine.now() - t0) / (2.0 * iters);
    c.barrier();
  };
  auto shared = std::make_shared<decltype(body)>(std::move(body));
  bed.rt->launch(2, [&bed, shared, opts](rte::Env& env) {
    mpi::World w(env, *bed.net, opts);
    (*shared)(w);
  });
  bed.engine.run();
  return us;
}

// Unidirectional streaming bandwidth (MB/s) over the Open MPI stack.
inline double ompi_bandwidth_mbps(std::size_t bytes, mpi::Options opts,
                                  ModelParams params = {}, int window = 32,
                                  int rounds = 8, int rails = 1) {
  Bed bed(8, rails, params);
  double mbps = 0;
  auto body = [&](mpi::World& w) {
    auto& c = w.comm();
    std::vector<std::vector<std::uint8_t>> bufs(
        static_cast<std::size_t>(window), std::vector<std::uint8_t>(bytes, 7));
    auto round = [&] {
      std::vector<mpi::Request> reqs;
      for (int i = 0; i < window; ++i) {
        auto& b = bufs[static_cast<std::size_t>(i)];
        if (c.rank() == 0)
          reqs.push_back(c.isend(b.data(), bytes, dtype::byte_type(), 1, 0));
        else
          reqs.push_back(c.irecv(b.data(), bytes, dtype::byte_type(), 0, 0));
      }
      for (auto& r : reqs) r.wait();
      // Window ack keeps the sender from running away.
      std::uint8_t tok = 1;
      if (c.rank() == 0)
        c.recv(&tok, 1, dtype::byte_type(), 1, 1);
      else
        c.send(&tok, 1, dtype::byte_type(), 0, 1);
    };
    round();  // warm up
    c.barrier();
    const sim::Time t0 = bed.engine.now();
    for (int r = 0; r < rounds; ++r) round();
    if (c.rank() == 0) {
      const double us = sim::to_us(bed.engine.now() - t0);
      mbps = static_cast<double>(bytes) * window * rounds / us;
    }
    c.barrier();
  };
  auto shared = std::make_shared<decltype(body)>(std::move(body));
  bed.rt->launch(2, [&bed, shared, opts](rte::Env& env) {
    mpi::World w(env, *bed.net, opts);
    (*shared)(w);
  });
  bed.engine.run();
  return mbps;
}

// Per-rail accounting snapshot for the multirail breakdown tables.
struct RailStat {
  std::string name;
  std::uint64_t tx_bytes = 0;         // bytes this rail put on the wire
  std::uint64_t retransmissions = 0;  // go-back-N retransmits (reliability)
};

// Streaming bandwidth with blocking sends (the classic stream test: send
// back-to-back, each completing before the next posts; one final token).
// This is the methodology that exposes the rendezvous handshake in the
// mid-range (Fig. 10c/d). With rails > 1 the BML stripes the rendezvous
// payloads; rail_stats (receiver side — the puller moves the bytes) gets
// one entry per rail when non-null.
inline double ompi_stream_mbps(std::size_t bytes, mpi::Options opts,
                               ModelParams params = {}, int count = 48,
                               int rails = 1,
                               std::vector<RailStat>* rail_stats = nullptr) {
  Bed bed(8, rails, params);
  double mbps = 0;
  auto body = [&](mpi::World& w) {
    auto& c = w.comm();
    std::vector<std::uint8_t> buf(bytes, 9);
    auto burst = [&](int n) {
      if (c.rank() == 0) {
        for (int i = 0; i < n; ++i)
          c.send(buf.data(), bytes, dtype::byte_type(), 1, 0);
        std::uint8_t tok = 0;
        c.recv(&tok, 1, dtype::byte_type(), 1, 1);
      } else {
        for (int i = 0; i < n; ++i)
          c.recv(buf.data(), bytes, dtype::byte_type(), 0, 0);
        std::uint8_t tok = 1;
        c.send(&tok, 1, dtype::byte_type(), 0, 1);
      }
    };
    burst(8);  // warm up
    c.barrier();
    const sim::Time t0 = bed.engine.now();
    burst(count);
    if (c.rank() == 0)
      mbps = static_cast<double>(bytes) * count / sim::to_us(bed.engine.now() - t0);
    if (c.rank() == 1 && rail_stats != nullptr) {
      for (int r = 0; w.elan4_rail_ptl(r) != nullptr; ++r) {
        ptl_elan4::PtlElan4* p = w.elan4_rail_ptl(r);
        rail_stats->push_back({p->name(), p->tx_bytes(), p->retransmissions()});
      }
    }
    c.barrier();
  };
  auto shared = std::make_shared<decltype(body)>(std::move(body));
  bed.rt->launch(2, [&bed, shared, opts](rte::Env& env) {
    mpi::World w(env, *bed.net, opts);
    (*shared)(w);
  });
  bed.engine.run();
  return mbps;
}

inline double mpich_stream_mbps(std::size_t bytes, ModelParams params = {},
                                int count = 48) {
  Bed bed(8, 1, params);
  tport::TportDomain domain(*bed.net);
  double mbps = 0;
  bed.rt->launch(2, [&](rte::Env& env) {
    mpich::MpichWorld w(env, domain);
    std::vector<std::uint8_t> buf(bytes, 9);
    auto burst = [&](int n) {
      if (w.rank() == 0) {
        for (int i = 0; i < n; ++i) w.send(buf.data(), bytes, 1, 0);
        std::uint8_t tok = 0;
        w.recv(&tok, 1, 1, 1);
      } else {
        for (int i = 0; i < n; ++i) w.recv(buf.data(), bytes, 0, 0);
        std::uint8_t tok = 1;
        w.send(&tok, 1, 0, 1);
      }
    };
    burst(8);
    w.barrier();
    const sim::Time t0 = bed.engine.now();
    burst(count);
    if (w.rank() == 0)
      mbps = static_cast<double>(bytes) * count / sim::to_us(bed.engine.now() - t0);
    w.barrier();
  });
  bed.engine.run();
  return mbps;
}

// One-way ping-pong latency (us) over the MPICH-QsNetII baseline.
inline double mpich_pingpong_us(std::size_t bytes, ModelParams params = {},
                                int iters = kIters) {
  Bed bed(8, 1, params);
  tport::TportDomain domain(*bed.net);
  double us = 0;
  bed.rt->launch(2, [&](rte::Env& env) {
    mpich::MpichWorld w(env, domain);
    std::vector<std::uint8_t> buf(bytes, 0x42);
    std::vector<std::uint8_t> tmp(bytes);
    auto once = [&] {
      if (w.rank() == 0) {
        w.send(buf.data(), bytes, 1, 0);
        w.recv(tmp.data(), bytes, 1, 0);
      } else {
        w.recv(tmp.data(), bytes, 0, 0);
        w.send(tmp.data(), bytes, 0, 0);
      }
    };
    for (int i = 0; i < kWarmup; ++i) once();
    w.barrier();
    const sim::Time t0 = bed.engine.now();
    for (int i = 0; i < iters; ++i) once();
    if (w.rank() == 0) us = sim::to_us(bed.engine.now() - t0) / (2.0 * iters);
    w.barrier();
  });
  bed.engine.run();
  return us;
}

// Unidirectional streaming bandwidth (MB/s) over MPICH-QsNetII.
inline double mpich_bandwidth_mbps(std::size_t bytes, ModelParams params = {},
                                   int window = 32, int rounds = 8) {
  Bed bed(8, 1, params);
  tport::TportDomain domain(*bed.net);
  double mbps = 0;
  bed.rt->launch(2, [&](rte::Env& env) {
    mpich::MpichWorld w(env, domain);
    std::vector<std::vector<std::uint8_t>> bufs(
        static_cast<std::size_t>(window), std::vector<std::uint8_t>(bytes, 7));
    auto round = [&] {
      if (w.rank() == 0) {
        std::vector<tport::Tport::TxReq*> txs;
        for (int i = 0; i < window; ++i)
          txs.push_back(w.isend(bufs[static_cast<std::size_t>(i)].data(), bytes, 1, 0));
        for (auto* t : txs) w.wait(t);
        std::uint8_t tok = 0;
        w.recv(&tok, 1, 1, 1);
      } else {
        std::vector<tport::Tport::RxReq*> rxs;
        for (int i = 0; i < window; ++i)
          rxs.push_back(w.irecv(bufs[static_cast<std::size_t>(i)].data(), bytes, 0, 0));
        for (auto* r : rxs) w.wait(r);
        std::uint8_t tok = 1;
        w.send(&tok, 1, 0, 1);
      }
    };
    round();
    w.barrier();
    const sim::Time t0 = bed.engine.now();
    for (int r = 0; r < rounds; ++r) round();
    if (w.rank() == 0) {
      const double us = sim::to_us(bed.engine.now() - t0);
      mbps = static_cast<double>(bytes) * window * rounds / us;
    }
    w.barrier();
  });
  bed.engine.run();
  return mbps;
}

// Native QDMA one-way latency (us) for a `bytes` message (Fig. 9 reference).
inline double native_qdma_us(std::size_t bytes, ModelParams params = {},
                             int iters = kIters) {
  Bed bed(2, 1, params);
  auto d0 = bed.net->open(0);
  auto d1 = bed.net->open(1);
  elan4::QdmaQueue* q0 = nullptr;
  elan4::QdmaQueue* q1 = nullptr;
  double us = 0;
  bed.engine.spawn("qdma-bench", [&] {
    q0 = d0->create_queue(1024);
    q1 = d1->create_queue(1024);
    std::vector<std::uint8_t> msg(bytes, 0x5A);
    elan4::QdmaQueue::Slot slot;
    auto rtt = [&] {
      d0->post_qdma(d1->vpid(), q1->id(), msg);
      while (!d1->queue_poll(q1, &slot)) {
      }
      d1->post_qdma(d0->vpid(), q0->id(), slot.data);
      while (!d0->queue_poll(q0, &slot)) {
      }
    };
    for (int i = 0; i < kWarmup; ++i) rtt();
    const sim::Time t0 = bed.engine.now();
    for (int i = 0; i < iters; ++i) rtt();
    us = sim::to_us(bed.engine.now() - t0) / (2.0 * iters);
  });
  bed.engine.run();
  return us;
}

// -------- reporting helpers --------

inline void print_header(const std::string& title,
                         const std::vector<std::string>& columns) {
  std::printf("\n%s\n", title.c_str());
  for (std::size_t i = 0; i < title.size(); ++i) std::printf("=");
  std::printf("\n%-10s", "size");
  for (const auto& c : columns) std::printf(" %14s", c.c_str());
  std::printf("\n");
}

inline void print_row(std::size_t size, const std::vector<double>& values) {
  std::printf("%-10zu", size);
  for (double v : values) std::printf(" %14.2f", v);
  std::printf("\n");
}

inline std::string size_label(std::size_t s) {
  if (s >= (1u << 20) && s % (1u << 20) == 0) return std::to_string(s >> 20) + "M";
  if (s >= 1024 && s % 1024 == 0) return std::to_string(s >> 10) + "K";
  return std::to_string(s);
}

}  // namespace oqs::bench
