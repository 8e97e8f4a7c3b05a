// Extended MPI API: sendrecv, reduce/allgather/scatter, waitall/waitany,
// probe/iprobe, communicator split.
#include <gtest/gtest.h>

#include <numeric>
#include <tuple>
#include <vector>

#include "testbed.h"

namespace oqs {
namespace {

using test::TestBed;

TEST(Api, SendrecvRingShiftDoesNotDeadlock) {
  TestBed bed;
  bed.run_mpi(8, [&](mpi::World& w) {
    auto& c = w.comm();
    const int n = c.size();
    // Every rank simultaneously shifts a 4KB payload to the right.
    std::vector<std::uint8_t> out(4096, static_cast<std::uint8_t>(c.rank()));
    std::vector<std::uint8_t> in(4096, 0xFF);
    c.sendrecv(out.data(), out.size(), (c.rank() + 1) % n, 0, in.data(),
               in.size(), (c.rank() - 1 + n) % n, 0, dtype::byte_type());
    EXPECT_EQ(in, std::vector<std::uint8_t>(
                      4096, static_cast<std::uint8_t>((c.rank() - 1 + n) % n)));
  });
}

TEST(Api, ReduceSumToEachRoot) {
  TestBed bed;
  bed.run_mpi(5, [&](mpi::World& w) {
    auto& c = w.comm();
    for (int root = 0; root < c.size(); ++root) {
      double x = static_cast<double>(c.rank() + 1);
      double sum = -1;
      c.reduce_sum(&x, &sum, 1, root);
      if (c.rank() == root) {
        EXPECT_DOUBLE_EQ(sum, 15.0);
      }
    }
  });
}

TEST(Api, AllgatherDistributesEverything) {
  TestBed bed;
  bed.run_mpi(6, [&](mpi::World& w) {
    auto& c = w.comm();
    std::uint64_t mine = 0x1000 + static_cast<std::uint64_t>(c.rank());
    std::vector<std::uint64_t> all(static_cast<std::size_t>(c.size()), 0);
    c.allgather(&mine, sizeof(mine), all.data());
    for (int r = 0; r < c.size(); ++r)
      EXPECT_EQ(all[static_cast<std::size_t>(r)],
                0x1000u + static_cast<std::uint64_t>(r));
  });
}

// Bruck allgather conformance over odd, prime, power-of-two and
// power-of-two-plus-one sizes, with blocks from 1 B up past the eager limit.
class AllgatherConformance
    : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {};

int ceil_log2(int n) {
  int steps = 0;
  for (int k = 1; k < n; k *= 2) ++steps;
  return steps;
}

// Distinct per call, rank and byte, so a misplaced, stale or truncated
// block shows up byte for byte (37 is odd: ranks map to distinct bytes).
std::uint8_t block_byte(int call, int rank, std::size_t i) {
  return static_cast<std::uint8_t>(call * 131 + rank * 37 + i * 7 + (i >> 8));
}

TEST_P(AllgatherConformance, EveryBlockInLog2StepsBesideUserTraffic) {
  const auto [np, bytes] = GetParam();
  constexpr int kCalls = 2;
  constexpr int kUserTagA = 5;
  constexpr int kUserTagB = 6;
  obs::Counter& sends = obs::metrics().counter("pml.send.total");
  const std::uint64_t sends_before = sends.value();
  TestBed bed;
  bed.run_mpi(np, [&, np = np, bytes = bytes](mpi::World& w) {
    auto& c = w.comm();
    const int me = c.rank();
    const int right = (me + 1) % np;
    const int left = (me - 1 + np) % np;
    auto fill = [bytes = bytes](int tag, int rank) {
      std::vector<std::uint8_t> v(bytes);
      for (std::size_t i = 0; i < bytes; ++i) v[i] = block_byte(tag, rank, i);
      return v;
    };
    // User-tag messages of block size sit unexpected at the receiver while
    // an allgather runs; none may match a collective receive or vice versa.
    const auto user_a = fill(kUserTagA, me);
    const auto user_b = fill(kUserTagB, me);
    std::vector<std::uint8_t> got_a(bytes), got_b(bytes);
    std::vector<mpi::Request> reqs;
    if (np > 1)
      reqs.push_back(c.isend(user_a.data(), bytes, dtype::byte_type(), right,
                             kUserTagA));
    for (int call = 0; call < kCalls; ++call) {
      const auto mine = fill(call, me);
      std::vector<std::uint8_t> all(static_cast<std::size_t>(np) * bytes, 0xEE);
      ASSERT_EQ(c.allgather(mine.data(), bytes, all.data()), Status::kOk);
      for (int r = 0; r < np; ++r)
        for (std::size_t i = 0; i < bytes; ++i)
          ASSERT_EQ(all[static_cast<std::size_t>(r) * bytes + i],
                    block_byte(call, r, i))
              << "call " << call << " rank " << me << " block " << r
              << " byte " << i;
      if (np > 1 && call == 0) {
        reqs.push_back(c.irecv(got_a.data(), bytes, dtype::byte_type(), left,
                               kUserTagA));
        reqs.push_back(c.isend(user_b.data(), bytes, dtype::byte_type(), left,
                               kUserTagB));
      }
    }
    if (np > 1) {
      ASSERT_EQ(c.recv(got_b.data(), bytes, dtype::byte_type(), right,
                       kUserTagB),
                Status::kOk);
      mpi::wait_all(reqs);
      EXPECT_EQ(got_a, fill(kUserTagA, left));
      EXPECT_EQ(got_b, fill(kUserTagB, right));
    }
  });
  // One send per step per rank per call, plus the two user messages.
  const std::uint64_t per_rank =
      static_cast<std::uint64_t>(kCalls * ceil_log2(np) + (np > 1 ? 2 : 0));
  EXPECT_EQ(sends.value() - sends_before,
            static_cast<std::uint64_t>(np) * per_rank);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, AllgatherConformance,
    ::testing::Combine(::testing::Values(1, 2, 3, 5, 7, 8, 9, 16, 33),
                       ::testing::Values(std::size_t{1}, std::size_t{4},
                                         std::size_t{64}, std::size_t{3000})));

TEST(Api, ScatterDistributesPieces) {
  TestBed bed;
  bed.run_mpi(4, [&](mpi::World& w) {
    auto& c = w.comm();
    std::vector<std::uint32_t> all;
    if (c.rank() == 2)
      for (int r = 0; r < 4; ++r) all.push_back(static_cast<std::uint32_t>(r * r));
    std::uint32_t mine = 999;
    c.scatter(all.data(), sizeof(std::uint32_t), &mine, /*root=*/2);
    EXPECT_EQ(mine, static_cast<std::uint32_t>(c.rank() * c.rank()));
  });
}

class AlltoallNp : public ::testing::TestWithParam<int> {};

TEST_P(AlltoallNp, PersonalizedExchange) {
  const int np = GetParam();
  TestBed bed;
  bed.run_mpi(np, [&](mpi::World& w) {
    auto& c = w.comm();
    const int n = c.size();
    std::vector<std::uint32_t> out(static_cast<std::size_t>(n));
    std::vector<std::uint32_t> in(static_cast<std::size_t>(n), 0);
    for (int p = 0; p < n; ++p)
      out[static_cast<std::size_t>(p)] =
          static_cast<std::uint32_t>(c.rank() * 100 + p);
    c.alltoall(out.data(), sizeof(std::uint32_t), in.data());
    for (int p = 0; p < n; ++p)
      EXPECT_EQ(in[static_cast<std::size_t>(p)],
                static_cast<std::uint32_t>(p * 100 + c.rank()));
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, AlltoallNp, ::testing::Values(2, 3, 4, 8));

TEST(Api, WaitAllAndWaitAny) {
  TestBed bed;
  bed.run_mpi(2, [&](mpi::World& w) {
    auto& c = w.comm();
    if (c.rank() == 0) {
      std::vector<std::vector<std::uint8_t>> bufs;
      std::vector<mpi::Request> reqs;
      for (int i = 0; i < 6; ++i) {
        bufs.emplace_back(1000, static_cast<std::uint8_t>(i));
        reqs.push_back(c.isend(bufs.back().data(), 1000, dtype::byte_type(), 1, i));
      }
      mpi::wait_all(reqs);
    } else {
      std::vector<std::vector<std::uint8_t>> bufs(6, std::vector<std::uint8_t>(1000));
      std::vector<mpi::Request> reqs;
      for (int i = 0; i < 6; ++i)
        reqs.push_back(c.irecv(bufs[static_cast<std::size_t>(i)].data(), 1000,
                               dtype::byte_type(), 0, i));
      // Drain via wait_any, marking each as done.
      std::vector<bool> seen(6, false);
      for (int k = 0; k < 6; ++k) {
        const std::size_t idx = mpi::wait_any(reqs);
        EXPECT_FALSE(seen[idx]);
        seen[idx] = true;
        EXPECT_EQ(bufs[idx][0], static_cast<std::uint8_t>(idx));
        reqs[idx] = mpi::Request();  // consume
      }
    }
    c.barrier();
  });
}

TEST(Api, ProbeSeesEnvelopeWithoutConsuming) {
  TestBed bed;
  bed.run_mpi(2, [&](mpi::World& w) {
    auto& c = w.comm();
    if (c.rank() == 0) {
      std::vector<std::uint8_t> msg(333, 0x5A);
      c.send(msg.data(), msg.size(), dtype::byte_type(), 1, 42);
    } else {
      mpi::RecvStatus st;
      c.probe(mpi::kAnySource, mpi::kAnyTag, &st);
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 42);
      EXPECT_EQ(st.bytes, 333u);
      // Message is still there: allocate exactly and receive.
      std::vector<std::uint8_t> buf(st.bytes);
      c.recv(buf.data(), buf.size(), dtype::byte_type(), st.source, st.tag);
      EXPECT_EQ(buf, std::vector<std::uint8_t>(333, 0x5A));
      // Nothing further pending on that tag (the peer's barrier traffic may
      // already be queued, so don't wildcard here).
      EXPECT_FALSE(c.iprobe(mpi::kAnySource, 42));
    }
    c.barrier();
  });
}

TEST(Api, IprobeNonblockingMiss) {
  TestBed bed;
  bed.run_mpi(2, [&](mpi::World& w) {
    auto& c = w.comm();
    EXPECT_FALSE(c.iprobe(mpi::kAnySource, 7));
    c.barrier();
  });
}

TEST(Api, SplitPartitionsByColor) {
  TestBed bed;
  bed.run_mpi(8, [&](mpi::World& w) {
    auto& c = w.comm();
    // Evens and odds form separate communicators, reverse-ordered by key.
    mpi::Communicator sub = c.split(c.rank() % 2, -c.rank());
    EXPECT_EQ(sub.size(), 4);
    EXPECT_NE(sub.context_id(), c.context_id());
    // Highest old rank gets sub-rank 0 (key = -rank).
    EXPECT_EQ(sub.rank(), (6 + (c.rank() % 2) - c.rank()) / 2) << c.rank();
    // Traffic stays within the split: sum ranks over the sub-communicator.
    double mine = c.rank();
    double sum = 0;
    sub.allreduce_sum(&mine, &sum, 1);
    EXPECT_DOUBLE_EQ(sum, c.rank() % 2 ? 16.0 : 12.0);  // 1+3+5+7 / 0+2+4+6
    c.barrier();
  });
}

TEST(Api, SplitSubgroupsRunConcurrently) {
  TestBed bed;
  bed.run_mpi(8, [&](mpi::World& w) {
    auto& c = w.comm();
    mpi::Communicator sub = c.split(c.rank() / 4, c.rank());
    // Each half runs its own broadcast with different payloads.
    std::uint32_t v = sub.rank() == 0 ? static_cast<std::uint32_t>(1000 + c.rank())
                                      : 0;
    sub.bcast(&v, 4, dtype::byte_type(), 0);
    EXPECT_EQ(v, 1000u + static_cast<std::uint32_t>(c.rank() < 4 ? 0 : 4));
    c.barrier();
  });
}

}  // namespace
}  // namespace oqs
