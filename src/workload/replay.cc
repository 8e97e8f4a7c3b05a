#include "workload/replay.h"

#include <cassert>
#include <cstring>

#include "obs/metrics.h"
#include "sim/node.h"

namespace oqs::workload {

namespace {

constexpr std::uint64_t kFnvBasis = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xFF;
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t splitmix(std::uint64_t& s) {
  s += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = s;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// One 64-bit key per logical message; the payload is its splitmix stream.
std::uint64_t msg_key(std::uint64_t seed, std::uint64_t kind, int src, int dst,
                      int tag) {
  std::uint64_t s = seed;
  std::uint64_t h = fnv(kFnvBasis, splitmix(s));
  h = fnv(h, kind);
  h = fnv(h, static_cast<std::uint64_t>(src) + 1);
  h = fnv(h, static_cast<std::uint64_t>(dst) + 1);
  h = fnv(h, static_cast<std::uint64_t>(tag));
  return h;
}

void fill_payload(std::uint64_t key, std::uint8_t* p, std::size_t n) {
  std::uint64_t s = key;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const std::uint64_t w = splitmix(s);
    std::memcpy(p + i, &w, 8);
  }
  if (i < n) {
    const std::uint64_t w = splitmix(s);
    std::memcpy(p + i, &w, n - i);
  }
}

bool check_payload(std::uint64_t key, const std::uint8_t* p, std::size_t n) {
  std::uint64_t s = key;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const std::uint64_t w = splitmix(s);
    if (std::memcmp(p + i, &w, 8) != 0) return false;
  }
  if (i < n) {
    const std::uint64_t w = splitmix(s);
    if (std::memcmp(p + i, &w, n - i) != 0) return false;
  }
  return true;
}

// Allreduce oracle: rank r contributes a_i + r*b_i to element i, so the
// serial reduction has the closed form n*a_i + b_i*n*(n-1)/2. All values
// are small integers — double sums are exact in any association order,
// which keeps the oracle algorithm-independent (ring, recursive doubling
// and NIC combining must all hit it bit-for-bit).
struct AllreduceOracle {
  std::uint64_t seed;
  std::uint64_t cseq;
  double a(std::size_t i) const { return static_cast<double>(term(i, 0) & 1023); }
  double b(std::size_t i) const { return static_cast<double>(term(i, 1) & 63); }
  double contrib(int rank, std::size_t i) const {
    return a(i) + static_cast<double>(rank) * b(i);
  }
  double expected(int nranks, std::size_t i) const {
    const double n = nranks;
    return n * a(i) + b(i) * n * (n - 1.0) / 2.0;
  }

 private:
  std::uint64_t term(std::size_t i, std::uint64_t which) const {
    std::uint64_t s = seed ^ (cseq * 0x51ed2701u) ^ (which << 40) ^
                      (static_cast<std::uint64_t>(i) << 1);
    return splitmix(s);
  }
};

}  // namespace

std::uint64_t Report::digest() const {
  std::uint64_t h = kFnvBasis;
  for (std::uint64_t d : rank_digests) h = fnv(h, d);
  return h;
}

double Report::goodput_mbps() const {
  const sim::Time ns = makespan_ns();
  if (ns == 0) return 0.0;
  return static_cast<double>(bytes_moved) * 1000.0 / static_cast<double>(ns);
}

ReplayOutcome replay_rank(mpi::World& w, mpi::Communicator& comm,
                          const Trace& trace, const ReplayOptions& opt,
                          Report* report) {
  const int me = comm.rank();
  const int n = comm.size();
  assert(n == trace.nranks() && "trace rank count != communicator size");
  assert(report != nullptr);
  if (report->rank_digests.size() < static_cast<std::size_t>(n))
    report->rank_digests.resize(static_cast<std::size_t>(n), kFnvBasis);

  sim::Engine& eng = w.net().engine();
  sim::Cpu& cpu = w.net().node(w.env().node).cpu();

  obs::Histogram* h_op = nullptr;
  obs::Histogram* h_compute = nullptr;
  obs::Counter* c_bytes = nullptr;
  obs::Counter* c_ops = nullptr;
  obs::Counter* c_bad = nullptr;
  if (opt.publish_metrics) {
    const std::string prefix = "workload." + trace.name;
    h_op = &obs::metrics().histogram(prefix + ".op_ns");
    h_compute = &obs::metrics().histogram(prefix + ".compute_ns");
    c_bytes = &obs::metrics().counter(prefix + ".bytes");
    c_ops = &obs::metrics().counter(prefix + ".ops");
    c_bad = &obs::metrics().counter(prefix + ".verify_failures");
  }

  const std::uint64_t seed = opt.seed;
  std::uint64_t digest = kFnvBasis;
  std::uint64_t cseq = 0;  // collective sequence, consistent across ranks
  std::vector<std::uint8_t> sbuf, rbuf;

  const sim::Time t_start = eng.now();
  if (t_start < report->t_begin) report->t_begin = t_start;

  auto verify = [&](std::uint64_t key, const std::uint8_t* p, std::size_t len) {
    if (!opt.verify) return;
    if (!check_payload(key, p, len)) {
      ++report->verify_failures;
      if (c_bad != nullptr) c_bad->add();
    }
  };

  const auto& ops = trace.ranks[static_cast<std::size_t>(me)];
  for (std::size_t idx = 0; idx < ops.size(); ++idx) {
    const Op& op = ops[idx];
    for (const ReplayOptions::KillAt& k : opt.kills) {
      if (k.rank != me || k.at_op != idx) continue;
      OQS_METRIC_INC("workload.replay.kills");
      w.crash();
      return ReplayOutcome::kKilled;
    }
    const sim::Time t0 = eng.now();
    std::uint64_t moved = 0;  // payload bytes delivered to this rank
    Status st = Status::kOk;

    switch (op.kind) {
      case OpKind::kCompute:
        cpu.compute(op.cost_ns);
        break;
      case OpKind::kSend: {
        sbuf.resize(op.bytes);
        if (opt.verify)
          fill_payload(msg_key(seed, 1, me, op.peer, op.tag), sbuf.data(),
                       sbuf.size());
        st = comm.send(sbuf.data(), sbuf.size(), dtype::byte_type(), op.peer,
                       op.tag);
        break;
      }
      case OpKind::kRecv: {
        rbuf.assign(op.bytes, 0);
        st = comm.recv(rbuf.data(), rbuf.size(), dtype::byte_type(), op.peer,
                       op.tag);
        if (ok(st))
          verify(msg_key(seed, 1, op.peer, me, op.tag), rbuf.data(),
                 rbuf.size());
        moved = op.bytes;
        break;
      }
      case OpKind::kSendRecv: {
        sbuf.resize(op.bytes);
        rbuf.assign(op.bytes2, 0);
        if (opt.verify)
          fill_payload(msg_key(seed, 1, me, op.peer, op.tag), sbuf.data(),
                       sbuf.size());
        st = comm.sendrecv(sbuf.data(), sbuf.size(), op.peer, op.tag,
                           rbuf.data(), rbuf.size(), op.peer2, op.tag,
                           dtype::byte_type());
        if (ok(st))
          verify(msg_key(seed, 1, op.peer2, me, op.tag), rbuf.data(),
                 rbuf.size());
        moved = op.bytes2;
        break;
      }
      case OpKind::kBarrier:
        st = comm.barrier();
        ++cseq;
        break;
      case OpKind::kBcast: {
        rbuf.assign(op.bytes, 0);
        const std::uint64_t key = msg_key(seed, 2, op.peer, -1,
                                          static_cast<int>(cseq));
        if (me == op.peer) fill_payload(key, rbuf.data(), rbuf.size());
        st = comm.bcast(rbuf.data(), rbuf.size(), dtype::byte_type(), op.peer);
        if (me != op.peer && ok(st)) {
          verify(key, rbuf.data(), rbuf.size());
          moved = op.bytes;
        }
        ++cseq;
        break;
      }
      case OpKind::kAllreduce: {
        const std::size_t elems = op.bytes / 8;
        const AllreduceOracle oracle{seed, cseq};
        std::vector<double> in(elems), out(elems, 0.0);
        for (std::size_t i = 0; i < elems; ++i) in[i] = oracle.contrib(me, i);
        st = comm.allreduce_sum(in.data(), out.data(), elems);
        if (opt.verify && ok(st)) {
          bool good = true;
          for (std::size_t i = 0; i < elems; ++i)
            good &= out[i] == oracle.expected(n, i);
          if (!good) {
            ++report->verify_failures;
            if (c_bad != nullptr) c_bad->add();
          }
        }
        moved = elems * 8;
        ++cseq;
        break;
      }
      case OpKind::kAlltoall: {
        const std::size_t each = op.bytes;
        sbuf.resize(each * static_cast<std::size_t>(n));
        rbuf.assign(each * static_cast<std::size_t>(n), 0);
        if (opt.verify)
          for (int j = 0; j < n; ++j)
            fill_payload(msg_key(seed, 3, me, j, static_cast<int>(cseq)),
                         sbuf.data() + static_cast<std::size_t>(j) * each, each);
        st = comm.alltoall(sbuf.data(), each, rbuf.data());
        if (opt.verify && ok(st))
          for (int j = 0; j < n; ++j)
            verify(msg_key(seed, 3, j, me, static_cast<int>(cseq)),
                   rbuf.data() + static_cast<std::size_t>(j) * each, each);
        moved = each * static_cast<std::size_t>(n - 1);
        ++cseq;
        break;
      }
    }

    if (!ok(st)) {
      // A peer died (kErrProcFailed) or someone already revoked (kRevoked).
      // Standard ULFM error-handler move: revoke so every sibling blocked
      // in this communicator unwedges with kRevoked too, then stop — the
      // caller decides whether to shrink() and re-run. Revoking twice is
      // harmless (stamps compare with >).
      OQS_METRIC_INC("workload.replay.faults");
      w.revoke();
      return ReplayOutcome::kFault;
    }

    const sim::Time t1 = eng.now();
    const double us = static_cast<double>(t1 - t0) / 1000.0;
    if (op.kind == OpKind::kCompute) {
      report->compute_us.add(us);
      if (h_compute != nullptr) h_compute->add(static_cast<double>(t1 - t0));
    } else {
      report->op_us.add(us);
      const bool p2p = op.kind == OpKind::kSend || op.kind == OpKind::kRecv ||
                       op.kind == OpKind::kSendRecv;
      (p2p ? report->p2p_us : report->coll_us).add(us);
      if (h_op != nullptr) h_op->add(static_cast<double>(t1 - t0));
    }
    report->bytes_moved += moved;
    ++report->ops_replayed;
    if (c_bytes != nullptr) c_bytes->add(moved);
    if (c_ops != nullptr) c_ops->add();

    digest = fnv(digest, static_cast<std::uint64_t>(idx));
    digest = fnv(digest, static_cast<std::uint64_t>(op.kind));
    digest = fnv(digest, moved);
    if (opt.digest_times) digest = fnv(digest, t1);
  }

  const sim::Time t_done = eng.now();
  if (t_done > report->t_end) report->t_end = t_done;
  report->rank_digests[static_cast<std::size_t>(me)] = digest;
  return ReplayOutcome::kCompleted;
}

int replay_jobs(mpi::World& w, const std::vector<const Trace*>& jobs,
                const ReplayOptions& opt, std::vector<Report>* reports) {
  assert(!jobs.empty());
  assert(reports != nullptr);
  int total = 0;
  for (const Trace* j : jobs) total += j->nranks();
  auto& world_comm = w.comm();
  assert(total == world_comm.size() && "job sizes must sum to world size");
  if (reports->size() < jobs.size()) reports->resize(jobs.size());

  const int me = world_comm.rank();
  int job = 0, base = 0;
  while (me >= base + jobs[static_cast<std::size_t>(job)]->nranks()) {
    base += jobs[static_cast<std::size_t>(job)]->nranks();
    ++job;
  }
  mpi::Communicator sub = world_comm.split(job, me);
  // Kill ranks are world ranks: keep only those landing in this job's
  // block, rebased to block-local rank numbers.
  ReplayOptions sub_opt = opt;
  sub_opt.kills.clear();
  for (const ReplayOptions::KillAt& k : opt.kills) {
    if (k.rank < base ||
        k.rank >= base + jobs[static_cast<std::size_t>(job)]->nranks())
      continue;
    sub_opt.kills.push_back({k.rank - base, k.at_op});
  }
  const ReplayOutcome outcome =
      replay_rank(w, sub, *jobs[static_cast<std::size_t>(job)], sub_opt,
                  &(*reports)[static_cast<std::size_t>(job)]);
  // A killed rank is gone — its World crashed in place, so it must not
  // touch the stack again (no quiesce, no barrier).
  if (outcome == ReplayOutcome::kKilled) return job;
  // Meet before returning: jobs finish at different times, and a rank that
  // finalized early would say goodbye to the peers it shares with a job
  // still running (the world-level collectives wired them), whose answers
  // would then take host time from that job's measured operations. Timing
  // was recorded inside replay_rank, so the barrier does not touch the
  // reports. With a kill schedule the MPI barrier would hang (or fault) on
  // the corpses, so the survivors meet at the OOB registry instead: the
  // survivor count is statically known from the schedule, and dead ranks
  // never arrive.
  if (opt.kills.empty()) {
    world_comm.barrier();
  } else {
    const int survivors = total - static_cast<int>(opt.kills.size());
    w.env().rte->registry().barrier(w.env().job + "/replay-quiesce",
                                    survivors);
  }
  return job;
}

}  // namespace oqs::workload
