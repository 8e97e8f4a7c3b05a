// Edge cases across the public API: singleton jobs, degenerate collectives,
// zero-byte traffic, tag extremes, deep communicator nesting, malformed
// frames.
#include <gtest/gtest-spi.h>
#include <gtest/gtest.h>

#include <cstring>

#include "testbed.h"

namespace oqs {
namespace {

using test::TestBed;

// Rank 0 posts two malformed frames straight into rank 1's Elan4 receive
// queue, then both ranks barrier (which rank 1 can only leave after
// handling them): a runt shorter than a match header, and a whole header
// of an unknown kind. The second is addressed as if from rank 1 itself,
// since self-addressed frames skip the reliability gate.
void inject_bad_frames(TestBed& bed) {
  bed.pin_transport = true;
  elan4::Vpid vpid = elan4::kInvalidVpid;
  int queue = -1;
  bed.run_mpi(2, [&](mpi::World& w) {
    auto& c = w.comm();
    if (c.rank() == 1) {
      const std::vector<std::uint8_t> blob = w.elan4_ptl()->contact();
      std::size_t off = 0;
      vpid = rte::get_pod<elan4::Vpid>(blob, off);
      queue = rte::get_pod<std::int32_t>(blob, off);
    }
    c.barrier();
    if (c.rank() == 0) {
      elan4::Elan4Device& dev = w.elan4_ptl()->device();
      const std::vector<std::uint8_t> runt(8, 0x5A);
      dev.post_qdma(vpid, queue, runt);
      pml::MatchHeader hdr;
      hdr.kind = static_cast<pml::FragKind>(0x7F);
      hdr.src_gid = c.gid_of(1);
      hdr.dst_gid = c.gid_of(1);
      std::vector<std::uint8_t> frame(sizeof(hdr));
      std::memcpy(frame.data(), &hdr, sizeof(hdr));
      dev.post_qdma(vpid, queue, frame);
    }
    c.barrier();
  });
}

TEST(Edge, MalformedFramesAreCountedAndDropped) {
  obs::Counter& runts = obs::metrics().counter("ptl.frames.runt_dropped");
  obs::Counter& unknown = obs::metrics().counter("ptl.frames.unknown_kind");
  const std::uint64_t runts_before = runts.value();
  const std::uint64_t unknown_before = unknown.value();
  TestBed bed;
  bed.allow_bad_frames = true;
  inject_bad_frames(bed);
  EXPECT_EQ(runts.value() - runts_before, 1u);
  EXPECT_EQ(unknown.value() - unknown_before, 1u);
}

TEST(Edge, TestBedFailsATestThatSawMalformedFrames) {
  EXPECT_NONFATAL_FAILURE(
      {
        TestBed bed;
        inject_bad_frames(bed);
      },
      "malformed frames arrived");
}

TEST(Edge, SingletonWorldCollectivesAreNoops) {
  TestBed bed;
  bed.run_mpi(1, [&](mpi::World& w) {
    auto& c = w.comm();
    EXPECT_EQ(c.size(), 1);
    c.barrier();
    std::uint32_t v = 5;
    c.bcast(&v, 4, dtype::byte_type(), 0);
    EXPECT_EQ(v, 5u);
    double x = 2.5;
    double sum = 0;
    c.allreduce_sum(&x, &sum, 1);
    EXPECT_DOUBLE_EQ(sum, 2.5);
    std::uint32_t g = 0;
    c.gather(&v, 4, &g, 0);
    EXPECT_EQ(g, 5u);
    c.alltoall(&v, 4, &g);
    EXPECT_EQ(g, 5u);
  });
}

TEST(Edge, SelfSendRecvCompletes) {
  TestBed bed;
  bed.run_mpi(2, [&](mpi::World& w) {
    auto& c = w.comm();
    std::uint32_t out = 42 + static_cast<std::uint32_t>(c.rank());
    std::uint32_t in = 0;
    mpi::Request r = c.irecv(&in, 4, dtype::byte_type(), c.rank(), 9);
    c.send(&out, 4, dtype::byte_type(), c.rank(), 9);
    r.wait();
    EXPECT_EQ(in, out);
    c.barrier();
  });
}

TEST(Edge, ZeroByteMessagesMatchAndCount) {
  TestBed bed;
  bed.run_mpi(2, [&](mpi::World& w) {
    auto& c = w.comm();
    if (c.rank() == 0) {
      for (int i = 0; i < 10; ++i)
        c.send(nullptr, 0, dtype::byte_type(), 1, i);
    } else {
      // Receive out of order by tag; every zero-byte message matches.
      for (int i = 9; i >= 0; --i) {
        mpi::RecvStatus st;
        c.recv(nullptr, 0, dtype::byte_type(), 0, i, &st);
        EXPECT_EQ(st.tag, i);
        EXPECT_EQ(st.bytes, 0u);
      }
    }
    c.barrier();
  });
}

TEST(Edge, LargeTagValues) {
  TestBed bed;
  bed.run_mpi(2, [&](mpi::World& w) {
    auto& c = w.comm();
    const int big_tag = 0x3FFFFFFF;  // below the collective-reserved space
    std::uint32_t v = 7;
    if (c.rank() == 0)
      c.send(&v, 4, dtype::byte_type(), 1, big_tag);
    else {
      std::uint32_t got = 0;
      mpi::RecvStatus st;
      c.recv(&got, 4, dtype::byte_type(), 0, big_tag, &st);
      EXPECT_EQ(got, 7u);
      EXPECT_EQ(st.tag, big_tag);
    }
    c.barrier();
  });
}

TEST(Edge, NestedSplitsAndDups) {
  TestBed bed;
  bed.run_mpi(8, [&](mpi::World& w) {
    auto& c = w.comm();
    mpi::Communicator half = c.split(c.rank() / 4, c.rank());
    mpi::Communicator quarter = half.split(half.rank() / 2, half.rank());
    mpi::Communicator qd = quarter.dup();
    EXPECT_EQ(quarter.size(), 2);
    // All three levels carry independent traffic simultaneously.
    std::uint32_t a = static_cast<std::uint32_t>(c.rank());
    std::uint32_t b = 0;
    qd.sendrecv(&a, 4, 1 - qd.rank(), 0, &b, 4, 1 - qd.rank(), 0,
                dtype::byte_type());
    // The pair partner within the quarter is rank^1 in world terms.
    EXPECT_EQ(b, static_cast<std::uint32_t>(c.rank() ^ 1));
    double x = 1;
    double sum = 0;
    half.allreduce_sum(&x, &sum, 1);
    EXPECT_DOUBLE_EQ(sum, 4.0);
    c.barrier();
  });
}

TEST(Edge, ManySmallCommunicatorsDoNotCollide) {
  TestBed bed;
  bed.run_mpi(4, [&](mpi::World& w) {
    auto& c = w.comm();
    std::vector<mpi::Communicator> comms;
    for (int i = 0; i < 10; ++i) comms.push_back(c.dup());
    // Fire the same (src, tag) on every communicator; each must match its own.
    std::vector<mpi::Request> reqs;
    std::vector<std::uint32_t> in(10, 0);
    std::vector<std::uint32_t> out(10);
    const int peer = c.rank() ^ 1;
    for (int i = 0; i < 10; ++i) {
      out[static_cast<std::size_t>(i)] =
          static_cast<std::uint32_t>(1000 * i + c.rank());
      reqs.push_back(comms[static_cast<std::size_t>(i)].irecv(
          &in[static_cast<std::size_t>(i)], 4, dtype::byte_type(), peer, 3));
    }
    for (int i = 9; i >= 0; --i)  // send in reverse communicator order
      reqs.push_back(comms[static_cast<std::size_t>(i)].isend(
          &out[static_cast<std::size_t>(i)], 4, dtype::byte_type(), peer, 3));
    mpi::wait_all(reqs);
    for (int i = 0; i < 10; ++i)
      EXPECT_EQ(in[static_cast<std::size_t>(i)],
                static_cast<std::uint32_t>(1000 * i + peer));
    c.barrier();
  });
}

TEST(Edge, InterleavedWildcardAndDirectedRecvs) {
  TestBed bed;
  bed.run_mpi(3, [&](mpi::World& w) {
    auto& c = w.comm();
    if (c.rank() != 0) {
      std::uint32_t v = static_cast<std::uint32_t>(c.rank() * 10);
      c.send(&v, 4, dtype::byte_type(), 0, 1);
      c.send(&v, 4, dtype::byte_type(), 0, 2);
    } else {
      // A directed recv must not steal a wildcard's message and vice versa.
      std::uint32_t from2 = 0;
      c.recv(&from2, 4, dtype::byte_type(), 2, 1);
      EXPECT_EQ(from2, 20u);
      std::uint32_t any = 0;
      mpi::RecvStatus st;
      c.recv(&any, 4, dtype::byte_type(), mpi::kAnySource, 1, &st);
      EXPECT_EQ(st.source, 1);
      EXPECT_EQ(any, 10u);
      for (int i = 0; i < 2; ++i) {
        std::uint32_t x = 0;
        c.recv(&x, 4, dtype::byte_type(), mpi::kAnySource, 2);
      }
    }
    c.barrier();
  });
}

}  // namespace
}  // namespace oqs
