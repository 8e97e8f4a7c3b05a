// Point-to-point semantics over the full stack (MPI -> PML -> PTL/Elan4 ->
// simulated NIC/fabric): eager and rendezvous paths (the fragment schedule
// and both paper RDMA schemes), ordering, wildcards, nonblocking ops.
#include <gtest/gtest.h>

#include <numeric>

#include "testbed.h"

namespace oqs {
namespace {

using test::TestBed;

std::vector<std::uint8_t> pattern(std::size_t n, std::uint8_t seed) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = static_cast<std::uint8_t>(seed + i * 131);
  return v;
}

void pingpong_payload_roundtrip(mpi::Options opts, std::size_t bytes) {
  TestBed bed;
  int verified = 0;
  bed.run_mpi(2, [&](mpi::World& w) {
    auto& c = w.comm();
    std::vector<std::uint8_t> buf =
        c.rank() == 0 ? pattern(bytes, 7) : std::vector<std::uint8_t>(bytes, 0);
    if (c.rank() == 0) {
      c.send(buf.data(), bytes, dtype::byte_type(), 1, 99);
      std::vector<std::uint8_t> back(bytes, 0);
      c.recv(back.data(), bytes, dtype::byte_type(), 1, 100);
      EXPECT_EQ(back, pattern(bytes, 7));
      ++verified;
    } else {
      c.recv(buf.data(), bytes, dtype::byte_type(), 0, 99);
      EXPECT_EQ(buf, pattern(bytes, 7));
      c.send(buf.data(), bytes, dtype::byte_type(), 0, 100);
      ++verified;
    }
    c.barrier();
  }, opts);
  EXPECT_EQ(verified, 2);
}

struct SchemeCase {
  ptl_elan4::Scheme scheme;
  bool chained;
  std::size_t bytes;
};

class P2PSchemes : public ::testing::TestWithParam<SchemeCase> {};

TEST_P(P2PSchemes, PayloadRoundTrips) {
  const SchemeCase& sc = GetParam();
  mpi::Options opts;
  opts.elan4.scheme = sc.scheme;
  opts.elan4.chained_fin = sc.chained;
  const test::RdvCounts before;
  pingpong_payload_roundtrip(opts, sc.bytes);
  if (sc.bytes > 1984) {
    test::expect_rendezvous_path(sc.scheme, before);
  } else {
    const test::RdvCounts after;
    EXPECT_EQ(after.paper, before.paper);
    EXPECT_EQ(after.pipelined, before.pipelined);
  }
}

using ptl_elan4::Scheme;

INSTANTIATE_TEST_SUITE_P(
    SizesAndSchemes, P2PSchemes,
    ::testing::Values(
        // Eager path (<= 1984B): no rendezvous engine runs under any scheme.
        SchemeCase{Scheme::kPipelined, true, 0},
        SchemeCase{Scheme::kRdmaRead, true, 1},
        SchemeCase{Scheme::kPipelined, true, 64},
        SchemeCase{Scheme::kRdmaRead, true, 1984},
        SchemeCase{Scheme::kRdmaWrite, true, 1984},
        // Rendezvous threshold crossing and long messages: the fragment
        // schedule, then both paper schemes with and without the chained
        // FIN (the write scheme's unchained FIN is host-posted after the
        // PUT completes).
        SchemeCase{Scheme::kPipelined, true, 1985},
        SchemeCase{Scheme::kPipelined, true, 4096},
        SchemeCase{Scheme::kPipelined, true, 65536},
        SchemeCase{Scheme::kPipelined, true, 1 << 20},
        SchemeCase{Scheme::kRdmaRead, true, 1985},
        SchemeCase{Scheme::kRdmaRead, true, 4096},
        SchemeCase{Scheme::kRdmaRead, false, 4096},
        SchemeCase{Scheme::kRdmaRead, true, 65536},
        SchemeCase{Scheme::kRdmaRead, true, 1 << 20},
        SchemeCase{Scheme::kRdmaWrite, true, 1985},
        SchemeCase{Scheme::kRdmaWrite, true, 4096},
        SchemeCase{Scheme::kRdmaWrite, false, 4096},
        SchemeCase{Scheme::kRdmaWrite, true, 65536},
        SchemeCase{Scheme::kRdmaWrite, false, 1 << 20}));

TEST(P2P, InlineRendezvousCarriesPayload) {
  for (const Scheme scheme : {Scheme::kRdmaRead, Scheme::kRdmaWrite}) {
    mpi::Options opts;
    opts.elan4.scheme = scheme;
    opts.elan4.inline_rendezvous = true;
    const test::RdvCounts before;
    pingpong_payload_roundtrip(opts, 8192);
    test::expect_rendezvous_path(scheme, before);
  }
}

// One-way 4 KB latency of the paper's rendezvous, pinned to the nanosecond:
// kIters round trips after a warmup, so the one-way figure is
// elapsed / (2 * kIters). The values are the Fig. 7 and Fig. 8 columns at
// 4 KB; any change to the paper protocol's cost shows here first.
sim::Time paper_round_trips_4k(const mpi::Options& opts) {
  constexpr int kWarmup = 10;
  constexpr int kIters = 20;
  TestBed bed;
  bed.pin_transport = true;
  sim::Time elapsed = 0;
  bed.run_mpi(2, [&](mpi::World& w) {
    auto& c = w.comm();
    std::vector<std::uint8_t> buf(4096, 0x42);
    auto once = [&] {
      if (c.rank() == 0) {
        c.send(buf.data(), buf.size(), dtype::byte_type(), 1, 0);
        c.recv(buf.data(), buf.size(), dtype::byte_type(), 1, 0);
      } else {
        c.recv(buf.data(), buf.size(), dtype::byte_type(), 0, 0);
        c.send(buf.data(), buf.size(), dtype::byte_type(), 0, 0);
      }
    };
    for (int i = 0; i < kWarmup; ++i) once();
    c.barrier();
    const sim::Time t0 = w.net().engine().now();
    for (int i = 0; i < kIters; ++i) once();
    if (c.rank() == 0) elapsed = w.net().engine().now() - t0;
    c.barrier();
  }, opts);
  return elapsed;
}

mpi::Options paper_opts(Scheme scheme, bool inline_rdv, bool dtp,
                        bool chained = true) {
  mpi::Options o;
  o.elan4.scheme = scheme;
  o.elan4.inline_rendezvous = inline_rdv;
  o.elan4.use_dtype_engine = dtp;
  o.elan4.chained_fin = chained;
  return o;
}

TEST(PaperTiming, Fig7ColumnsAt4KB) {
  // RDMA-Read, Read-NoInline, Read-DTP, RDMA-Write, Write-NoInline,
  // Write-DTP (the "RDMA-*" and "*-DTP" columns inline the first 1968 B).
  EXPECT_EQ(paper_round_trips_4k(paper_opts(Scheme::kRdmaRead, true, false)),
            651280u);
  EXPECT_EQ(paper_round_trips_4k(paper_opts(Scheme::kRdmaRead, false, false)),
            579000u);
  EXPECT_EQ(paper_round_trips_4k(paper_opts(Scheme::kRdmaRead, true, true)),
            674220u);
  EXPECT_EQ(paper_round_trips_4k(paper_opts(Scheme::kRdmaWrite, true, false)),
            817880u);
  EXPECT_EQ(paper_round_trips_4k(paper_opts(Scheme::kRdmaWrite, false, false)),
            756800u);
  EXPECT_EQ(paper_round_trips_4k(paper_opts(Scheme::kRdmaWrite, true, true)),
            844020u);
}

TEST(PaperTiming, Fig8ChainedFinAckAt4KB) {
  // RDMA-Read with the FIN_ACK chained to the read, and host-posted.
  EXPECT_EQ(paper_round_trips_4k(
                paper_opts(Scheme::kRdmaRead, false, false, /*chained=*/true)),
            579000u);
  EXPECT_EQ(paper_round_trips_4k(
                paper_opts(Scheme::kRdmaRead, false, false, /*chained=*/false)),
            602880u);
}

TEST(P2P, MessagesFromOneSenderArriveInOrder) {
  TestBed bed;
  bed.run_mpi(2, [&](mpi::World& w) {
    auto& c = w.comm();
    constexpr int kN = 40;
    if (c.rank() == 0) {
      for (int i = 0; i < kN; ++i) {
        std::uint32_t v = static_cast<std::uint32_t>(i);
        c.send(&v, sizeof(v), dtype::byte_type(), 1, 5);
      }
    } else {
      for (int i = 0; i < kN; ++i) {
        std::uint32_t v = 999;
        c.recv(&v, sizeof(v), dtype::byte_type(), 0, 5);
        EXPECT_EQ(v, static_cast<std::uint32_t>(i));
      }
    }
  });
}

TEST(P2P, MixedSizesInterleaveCorrectly) {
  // Alternating eager and rendezvous messages must still match in order.
  TestBed bed;
  bed.run_mpi(2, [&](mpi::World& w) {
    auto& c = w.comm();
    const std::size_t sizes[] = {8, 100000, 64, 4096, 0, 2000, 1984, 1985};
    if (c.rank() == 0) {
      for (std::size_t s : sizes) {
        auto buf = pattern(s, static_cast<std::uint8_t>(s));
        c.send(buf.data(), s, dtype::byte_type(), 1, 1);
      }
    } else {
      for (std::size_t s : sizes) {
        std::vector<std::uint8_t> buf(s, 0);
        c.recv(buf.data(), s, dtype::byte_type(), 0, 1);
        EXPECT_EQ(buf, pattern(s, static_cast<std::uint8_t>(s))) << s;
      }
    }
  });
}

TEST(P2P, TagsSelectMessages) {
  TestBed bed;
  bed.run_mpi(2, [&](mpi::World& w) {
    auto& c = w.comm();
    if (c.rank() == 0) {
      std::uint32_t a = 111;
      std::uint32_t b = 222;
      c.send(&a, 4, dtype::byte_type(), 1, 10);
      c.send(&b, 4, dtype::byte_type(), 1, 20);
    } else {
      std::uint32_t v = 0;
      // Receive tag 20 first even though tag 10 arrived earlier.
      c.recv(&v, 4, dtype::byte_type(), 0, 20);
      EXPECT_EQ(v, 222u);
      c.recv(&v, 4, dtype::byte_type(), 0, 10);
      EXPECT_EQ(v, 111u);
    }
  });
}

TEST(P2P, WildcardSourceAndTag) {
  TestBed bed;
  bed.run_mpi(3, [&](mpi::World& w) {
    auto& c = w.comm();
    if (c.rank() != 0) {
      std::uint32_t v = static_cast<std::uint32_t>(c.rank());
      c.send(&v, 4, dtype::byte_type(), 0, 7 + c.rank());
    } else {
      bool seen[3] = {false, false, false};
      for (int i = 0; i < 2; ++i) {
        std::uint32_t v = 0;
        mpi::RecvStatus st;
        c.recv(&v, 4, dtype::byte_type(), mpi::kAnySource, mpi::kAnyTag, &st);
        EXPECT_EQ(st.source, static_cast<int>(v));
        EXPECT_EQ(st.tag, 7 + static_cast<int>(v));
        seen[v] = true;
      }
      EXPECT_TRUE(seen[1] && seen[2]);
    }
  });
}

TEST(P2P, UnexpectedMessagesMatchLaterPosts) {
  TestBed bed;
  bed.run_mpi(2, [&](mpi::World& w) {
    auto& c = w.comm();
    if (c.rank() == 0) {
      auto big = pattern(50000, 3);
      c.send(big.data(), big.size(), dtype::byte_type(), 1, 42);
      std::uint32_t done = 0;
      c.recv(&done, 4, dtype::byte_type(), 1, 43);
      EXPECT_EQ(done, 1u);
    } else {
      // Let the rendezvous arrive unexpected, then post.
      w.net().engine().sleep(sim::kMs);
      EXPECT_GE(w.pml().unexpected_count(), 0u);
      std::vector<std::uint8_t> buf(50000, 0);
      c.recv(buf.data(), buf.size(), dtype::byte_type(), 0, 42);
      EXPECT_EQ(buf, pattern(50000, 3));
      std::uint32_t done = 1;
      c.send(&done, 4, dtype::byte_type(), 0, 43);
    }
  });
}

TEST(P2P, NonblockingSendRecvOverlap) {
  TestBed bed;
  bed.run_mpi(2, [&](mpi::World& w) {
    auto& c = w.comm();
    constexpr int kN = 8;
    std::vector<std::vector<std::uint8_t>> bufs;
    std::vector<mpi::Request> reqs;
    if (c.rank() == 0) {
      for (int i = 0; i < kN; ++i) {
        bufs.push_back(pattern(3000 + static_cast<std::size_t>(i) * 1000,
                               static_cast<std::uint8_t>(i)));
        reqs.push_back(c.isend(bufs.back().data(), bufs.back().size(),
                               dtype::byte_type(), 1, i));
      }
    } else {
      for (int i = 0; i < kN; ++i) {
        bufs.emplace_back(3000 + static_cast<std::size_t>(i) * 1000, 0);
        reqs.push_back(c.irecv(bufs.back().data(), bufs.back().size(),
                               dtype::byte_type(), 0, i));
      }
    }
    for (auto& r : reqs) r.wait();
    if (c.rank() == 1) {
      for (int i = 0; i < kN; ++i)
        EXPECT_EQ(bufs[static_cast<std::size_t>(i)],
                  pattern(3000 + static_cast<std::size_t>(i) * 1000,
                          static_cast<std::uint8_t>(i)));
    }
  });
}

TEST(P2P, EagerTruncationReportsStatus) {
  TestBed bed;
  bed.run_mpi(2, [&](mpi::World& w) {
    auto& c = w.comm();
    if (c.rank() == 0) {
      auto buf = pattern(100, 1);
      c.send(buf.data(), buf.size(), dtype::byte_type(), 1, 1);
    } else {
      std::vector<std::uint8_t> small(40, 0);
      mpi::RecvStatus st;
      c.recv(small.data(), small.size(), dtype::byte_type(), 0, 1, &st);
      EXPECT_EQ(st.status, Status::kTruncate);
      // The bytes that fit arrived intact.
      auto expect = pattern(100, 1);
      expect.resize(40);
      EXPECT_EQ(small, expect);
    }
  });
}

TEST(P2P, AllPairsExchangeOnEightNodes) {
  TestBed bed(8);
  bed.run_mpi(8, [&](mpi::World& w) {
    auto& c = w.comm();
    const int n = c.size();
    std::vector<mpi::Request> reqs;
    std::vector<std::vector<std::uint8_t>> rbufs(static_cast<std::size_t>(n));
    std::vector<std::vector<std::uint8_t>> sbufs(static_cast<std::size_t>(n));
    for (int p = 0; p < n; ++p) {
      if (p == c.rank()) continue;
      auto& rb = rbufs[static_cast<std::size_t>(p)];
      rb.assign(2048, 0);
      reqs.push_back(c.irecv(rb.data(), rb.size(), dtype::byte_type(), p, 0));
    }
    for (int p = 0; p < n; ++p) {
      if (p == c.rank()) continue;
      auto& sb = sbufs[static_cast<std::size_t>(p)];
      sb = pattern(2048, static_cast<std::uint8_t>(c.rank() * 16 + p));
      reqs.push_back(c.isend(sb.data(), sb.size(), dtype::byte_type(), p, 0));
    }
    for (auto& r : reqs) r.wait();
    for (int p = 0; p < n; ++p) {
      if (p == c.rank()) continue;
      EXPECT_EQ(rbufs[static_cast<std::size_t>(p)],
                pattern(2048, static_cast<std::uint8_t>(p * 16 + c.rank())));
    }
    c.barrier();
  });
}

TEST(P2P, SameNodeProcessesCommunicate) {
  TestBed bed(2);
  // 4 processes on 2 nodes: ranks 0,2 on node 0 and 1,3 on node 1.
  bed.run_mpi(4, [&](mpi::World& w) {
    auto& c = w.comm();
    const int partner = c.rank() ^ 2;  // same-node pairs (0,2) and (1,3)
    std::vector<std::uint8_t> buf(5000);
    if (c.rank() < 2) {
      auto data = pattern(5000, static_cast<std::uint8_t>(c.rank()));
      c.send(data.data(), data.size(), dtype::byte_type(), partner, 0);
    } else {
      c.recv(buf.data(), buf.size(), dtype::byte_type(), partner, 0);
      EXPECT_EQ(buf, pattern(5000, static_cast<std::uint8_t>(partner)));
    }
    c.barrier();
  });
}

// Revoke races. A revoke aborts a rendezvous send that no FIN has settled
// and no put has left; the receiver must then fail, never hang and never
// complete with bytes that did not arrive.

struct RevokeCase {
  Scheme scheme;
  ptl_elan4::Completion completion;
};

std::string revoke_case_name(const ::testing::TestParamInfo<RevokeCase>& info) {
  static const char* const kModes[] = {"DirectPoll", "OneQueue", "TwoQueue"};
  return std::string(info.param.scheme == Scheme::kRdmaRead ? "Read"
                                                            : "Pipelined") +
         kModes[static_cast<int>(info.param.completion)];
}

class RevokeBeforePull : public ::testing::TestWithParam<RevokeCase> {};

TEST_P(RevokeBeforePull, ReceiveFails) {
  // The sender revokes right after its RTS left and aborts the send, which
  // unexposes its region; the receiver matches afterwards, so its pull
  // reads a region that is gone and the NIC faults it. Every completion
  // mode must report that fault.
  mpi::Options opts;
  opts.elan4.scheme = GetParam().scheme;
  opts.elan4.completion = GetParam().completion;
  TestBed bed;
  bed.pin_transport = true;
  Status sent = Status::kOk;
  Status received = Status::kOk;
  bed.run_mpi(2, [&](mpi::World& w) {
    auto& c = w.comm();
    std::vector<std::uint8_t> buf(65536, 0x5A);
    if (c.rank() == 0) {
      mpi::Request s = c.isend(buf.data(), buf.size(), dtype::byte_type(), 1, 0);
      w.revoke();
      mpi::RecvStatus st;
      s.wait(&st);
      sent = st.status;
    } else {
      w.net().engine().sleep(20 * sim::kUs);
      received = c.recv(buf.data(), buf.size(), dtype::byte_type(), 0, 0);
    }
  }, opts);
  EXPECT_EQ(sent, Status::kRevoked);
  EXPECT_EQ(received, Status::kFault);
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndCompletions, RevokeBeforePull,
    ::testing::Values(
        RevokeCase{Scheme::kRdmaRead, ptl_elan4::Completion::kDirectPoll},
        RevokeCase{Scheme::kRdmaRead, ptl_elan4::Completion::kSharedCombined},
        RevokeCase{Scheme::kRdmaRead, ptl_elan4::Completion::kSharedSeparate},
        RevokeCase{Scheme::kPipelined, ptl_elan4::Completion::kDirectPoll},
        RevokeCase{Scheme::kPipelined, ptl_elan4::Completion::kSharedCombined},
        RevokeCase{Scheme::kPipelined, ptl_elan4::Completion::kSharedSeparate}),
    revoke_case_name);

TEST(Revoke, WriteSendAbortedBeforeItsCtsFailsTheMatchedReceive) {
  // The receiver matches and sends its CTS; the sender revokes and aborts
  // before reading it. The CTS then finds no send and is answered with an
  // error FIN, which fails the matched receive with kRevoked.
  mpi::Options opts;
  opts.elan4.scheme = Scheme::kRdmaWrite;
  TestBed bed;
  bed.pin_transport = true;
  Status sent = Status::kOk;
  Status received = Status::kOk;
  bed.run_mpi(2, [&](mpi::World& w) {
    auto& c = w.comm();
    sim::Engine& engine = w.net().engine();
    std::vector<std::uint8_t> buf(65536, 0x5A);
    if (c.rank() == 0) {
      engine.sleep(20 * sim::kUs);  // the receive is posted by now
      mpi::Request s = c.isend(buf.data(), buf.size(), dtype::byte_type(), 1, 0);
      engine.sleep(40 * sim::kUs);  // the CTS has arrived, unread
      w.revoke();
      mpi::RecvStatus st;
      s.wait(&st);
      sent = st.status;
      for (int i = 0; i < 40; ++i) {  // read the CTS, answer it
        w.pml().progress();
        engine.sleep(sim::kUs);
      }
    } else {
      received = c.recv(buf.data(), buf.size(), dtype::byte_type(), 0, 0);
    }
  }, opts);
  EXPECT_EQ(sent, Status::kRevoked);
  EXPECT_EQ(received, Status::kRevoked);
}

}  // namespace
}  // namespace oqs
