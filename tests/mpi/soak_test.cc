// Property/soak tests: randomized traffic over the full stack must deliver
// every payload intact, in order per (sender, tag-stream), across mixed
// sizes, schemes, wildcards, and concurrent communicators.
#include <gtest/gtest.h>

#include "base/checksum.h"
#include "sim/rng.h"
#include "testbed.h"
#include "workload/workload.h"

namespace oqs {
namespace {

using test::TestBed;

// Deterministic payload for (sender, msg index): checkable at the receiver
// without shipping expectations out of band.
std::vector<std::uint8_t> payload_for(int sender, int index, std::size_t bytes) {
  std::vector<std::uint8_t> v(bytes);
  sim::Rng rng(static_cast<std::uint64_t>(sender) * 1000003u +
               static_cast<std::uint64_t>(index) * 97u + 13u);
  rng.fill(v.data(), v.size());
  return v;
}

struct SoakCase {
  int nprocs;
  int msgs_per_pair;
  std::uint64_t seed;
  ptl_elan4::Scheme scheme;
};

class Soak : public ::testing::TestWithParam<SoakCase> {};

TEST_P(Soak, AllToAllRandomSizesArriveIntact) {
  const SoakCase& sc = GetParam();
  mpi::Options opts;
  opts.elan4.scheme = sc.scheme;
  TestBed bed;
  int ranks_ok = 0;
  const test::RdvCounts before;

  bed.run_mpi(sc.nprocs, [&](mpi::World& w) {
    auto& c = w.comm();
    const int n = c.size();
    const int me = c.rank();
    // Per-pair size schedule derived from the shared seed, so sender and
    // receiver agree without communicating.
    auto size_of = [&](int sender, int receiver, int k) -> std::size_t {
      sim::Rng r(sc.seed ^ (static_cast<std::uint64_t>(sender) << 20) ^
                 (static_cast<std::uint64_t>(receiver) << 10) ^
                 static_cast<std::uint64_t>(k));
      // Mix eager, threshold-straddling, and rendezvous sizes.
      const std::size_t buckets[] = {0, 3, 64, 1024, 1984, 1985, 4096, 20000};
      return buckets[r.uniform(0, 7)];
    };

    // Post all receives up front (stresses the posted list), then send.
    std::vector<mpi::Request> reqs;
    std::vector<std::vector<std::uint8_t>> rbufs;
    std::vector<std::tuple<int, int, std::size_t>> expect;  // (src,k,bytes)
    for (int src = 0; src < n; ++src) {
      if (src == me) continue;
      for (int k = 0; k < sc.msgs_per_pair; ++k) {
        const std::size_t bytes = size_of(src, me, k);
        rbufs.emplace_back(bytes, 0);
        expect.emplace_back(src, k, bytes);
        reqs.push_back(c.irecv(rbufs.back().data(), bytes, dtype::byte_type(),
                               src, /*tag=*/k));
      }
    }
    std::vector<std::vector<std::uint8_t>> sbufs;
    for (int dst = 0; dst < n; ++dst) {
      if (dst == me) continue;
      for (int k = 0; k < sc.msgs_per_pair; ++k) {
        const std::size_t bytes = size_of(me, dst, k);
        sbufs.push_back(payload_for(me, k * n + dst, bytes));
        reqs.push_back(c.isend(sbufs.back().data(), bytes, dtype::byte_type(),
                               dst, k));
      }
    }
    mpi::wait_all(reqs);

    bool all_good = true;
    for (std::size_t i = 0; i < expect.size(); ++i) {
      const auto [src, k, bytes] = expect[i];
      const auto want = payload_for(src, k * n + me, bytes);
      all_good &= rbufs[i] == want;
      EXPECT_EQ(rbufs[i], want) << "from " << src << " k " << k;
    }
    c.barrier();
    if (all_good) ++ranks_ok;
  }, opts);
  EXPECT_EQ(ranks_ok, sc.nprocs);
  test::expect_rendezvous_path(sc.scheme, before);
}

using ptl_elan4::Scheme;

INSTANTIATE_TEST_SUITE_P(
    Sweeps, Soak,
    ::testing::Values(SoakCase{4, 6, 1, Scheme::kPipelined},
                      SoakCase{4, 6, 2, Scheme::kPipelined},
                      SoakCase{8, 3, 3, Scheme::kPipelined},
                      SoakCase{3, 10, 4, Scheme::kPipelined},
                      SoakCase{8, 3, 5, Scheme::kPipelined},
                      SoakCase{4, 6, 1, Scheme::kRdmaRead},
                      SoakCase{4, 6, 2, Scheme::kRdmaWrite},
                      SoakCase{8, 3, 3, Scheme::kRdmaRead},
                      SoakCase{3, 10, 4, Scheme::kRdmaWrite},
                      SoakCase{8, 3, 5, Scheme::kRdmaRead}));

TEST(Soak, MixedCommunicatorsAndWildcardsDrainCompletely) {
  TestBed bed;
  bed.run_mpi(6, [&](mpi::World& w) {
    auto& c = w.comm();
    mpi::Communicator c2 = c.dup();
    sim::Rng rng(42u + static_cast<std::uint64_t>(c.rank()));

    // Everyone fires 30 messages at random peers on random communicators;
    // receivers drain with wildcards, counting by checksum.
    constexpr int kPerRank = 30;
    std::vector<std::vector<std::uint8_t>> bufs;
    std::vector<mpi::Request> sends;
    std::uint64_t sent_sum = 0;
    for (int i = 0; i < kPerRank; ++i) {
      const int dst = static_cast<int>(rng.uniform(0, 5));
      const std::size_t bytes = rng.uniform(1, 1500);
      bufs.push_back(payload_for(c.rank(), i, bytes));
      sent_sum += crc32c(bufs.back().data(), bytes);
      auto& comm = rng.chance(0.5) ? c : c2;
      sends.push_back(
          comm.isend(bufs.back().data(), bytes, dtype::byte_type(), dst, 1));
    }

    // Total message count is fixed (everyone sends kPerRank), but who
    // receives how many is random: agree via allreduce on counts per rank.
    // Simpler: each rank drains until global counter says done, using
    // iprobe on both communicators.
    int received = 0;
    std::uint64_t recv_sum = 0;
    auto drain = [&](mpi::Communicator& comm) {
      mpi::RecvStatus st;
      while (comm.iprobe(mpi::kAnySource, 1, &st)) {
        std::vector<std::uint8_t> buf(st.bytes);
        comm.recv(buf.data(), buf.size(), dtype::byte_type(), st.source, 1, &st);
        recv_sum += crc32c(buf.data(), buf.size());
        ++received;
      }
    };
    // Drain until a global allreduce agrees all 6*30 messages were consumed.
    for (;;) {
      drain(c);
      drain(c2);
      double mine = received;
      double total = 0;
      c.allreduce_sum(&mine, &total, 1);
      if (static_cast<int>(total) == 6 * kPerRank) break;
    }
    mpi::wait_all(sends);

    // Global checksum conservation: everything sent was received intact.
    double s = static_cast<double>(sent_sum % 100000007ull);
    double r = static_cast<double>(recv_sum % 100000007ull);
    double sums[2] = {s, r};
    double totals[2] = {0, 0};
    c.allreduce_sum(sums, totals, 2);
    EXPECT_DOUBLE_EQ(totals[0], totals[1]);
    c.barrier();
  });
}

TEST(Soak, LongRunStabilityNoResourceLeaks) {
  // The 600 alternating exchanges are expressed as a workload trace and
  // driven by the replay engine — same traffic as the old hand-rolled loop,
  // but through the one interpreter, with every payload oracle-checked.
  workload::Trace t;
  t.name = "pingpong600";
  t.ranks.resize(2);
  for (int i = 0; i < 600; ++i) {
    const std::uint64_t bytes = (i % 7 == 0) ? 30000 : 512;
    const int src = i % 2;
    workload::Op s;
    s.kind = workload::OpKind::kSend;
    s.bytes = bytes;
    s.peer = 1 - src;
    workload::Op r;
    r.kind = workload::OpKind::kRecv;
    r.bytes = bytes;
    r.peer = src;
    t.ranks[static_cast<std::size_t>(src)].push_back(s);
    t.ranks[static_cast<std::size_t>(1 - src)].push_back(r);
  }
  workload::Op bar;
  bar.kind = workload::OpKind::kBarrier;
  for (auto& ops : t.ranks) ops.push_back(bar);

  TestBed bed;
  workload::Report rep;
  const workload::ReplayOptions opt;
  bed.run_mpi(2, [&](mpi::World& w) {
    workload::replay_rank(w, w.comm(), t, opt, &rep);
    // Pending-op tables must be empty once the replay drains.
    EXPECT_EQ(w.elan4_ptl()->pending_ops(), 0u);
    EXPECT_EQ(w.pml().unexpected_count(), 0u);
    EXPECT_EQ(w.pml().posted_count(), 0u);
  });
  EXPECT_EQ(rep.verify_failures, 0u);
  EXPECT_EQ(rep.ops_replayed, t.total_ops());
  // No queue overflowed anywhere.
  for (int node = 0; node < 8; ++node)
    EXPECT_EQ(bed.net->nic(node).rx_drops(), 0u);
}

TEST(Soak, ConcurrentSkeletonsLeaveNoResidue) {
  // Mixed-traffic soak via the workload engine: a 2x2 stencil and a 4-rank
  // all-to-all shuffle share the fabric. Both jobs must finish with their
  // payload oracles intact, overlap in simulated time, and leave every
  // pending-op table empty.
  workload::StencilConfig scfg;
  scfg.px = 2;
  scfg.py = 2;
  scfg.iters = 5;
  scfg.halo_bytes = 6000;
  const workload::Trace a = workload::make_stencil(scfg);
  const workload::Trace b = workload::make_shuffle(
      {.ranks = 4, .rounds = 3, .bytes_per_pair = 3000});

  TestBed bed;
  std::vector<workload::Report> reports;
  bed.run_mpi(8, [&](mpi::World& w) {
    workload::ReplayOptions opt;
    opt.seed = 5;
    workload::replay_jobs(w, {&a, &b}, opt, &reports);
    EXPECT_EQ(w.elan4_ptl()->pending_ops(), 0u);
    EXPECT_EQ(w.pml().unexpected_count(), 0u);
    EXPECT_EQ(w.pml().posted_count(), 0u);
  });
  ASSERT_EQ(reports.size(), 2u);
  for (const workload::Report& rep : reports) {
    EXPECT_EQ(rep.verify_failures, 0u);
    EXPECT_GT(rep.bytes_moved, 0u);
  }
  // Interference, not time-sharing: the jobs' spans overlap.
  EXPECT_LT(reports[0].t_begin, reports[1].t_end);
  EXPECT_LT(reports[1].t_begin, reports[0].t_end);
  for (int node = 0; node < 8; ++node)
    EXPECT_EQ(bed.net->nic(node).rx_drops(), 0u);
}

}  // namespace
}  // namespace oqs
