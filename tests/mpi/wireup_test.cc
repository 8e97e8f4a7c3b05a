// Lazy wire-up: a process wires a peer on first contact (a send to it, a
// frame from it), so a PTL endpoint exists only for a peer it exchanged a
// frame with, and finalize says goodbye to those alone.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ptl/elan4/ptl_elan4.h"
#include "testbed.h"

namespace oqs {
namespace {

using test::TestBed;

bool wired_to(mpi::World& w, int gid) {
  for (std::size_t i = 0; i < w.pml().num_ptls(); ++i)
    if (w.pml().ptl(i).endpoint(gid) != nullptr) return true;
  return false;
}

mpi::Options two_reliable_rails() {
  mpi::Options o;
  o.elan4.rails = 2;
  o.elan4.reliability = true;
  return o;
}

TEST(Wireup, RingWiresOnlyNeighbours) {
  TestBed bed(8);
  int checked = 0;
  bed.run_mpi(8, [&](mpi::World& w) {
    auto& c = w.comm();
    const int n = c.size();
    const int next = (c.rank() + 1) % n;
    const int prev = (c.rank() + n - 1) % n;
    std::int32_t out = c.rank();
    std::int32_t in = -1;
    auto s = c.isend(&out, sizeof(out), dtype::byte_type(), next, 0);
    auto r = c.irecv(&in, sizeof(in), dtype::byte_type(), prev, 0);
    s.wait();
    r.wait();
    EXPECT_EQ(in, prev);
    // No barrier before the check: its messages would contact more peers.
    for (int rank = 0; rank < n; ++rank) {
      const bool contacted = rank == c.rank() || rank == next || rank == prev;
      for (std::size_t i = 0; i < w.pml().num_ptls(); ++i)
        EXPECT_EQ(w.pml().ptl(i).endpoint(c.gid_of(rank)) != nullptr, contacted)
            << "rank " << c.rank() << " ptl " << w.pml().ptl(i).name()
            << " peer " << rank;
    }
    ++checked;
  });
  EXPECT_EQ(checked, 8);
}

TEST(Wireup, FirstFrameFromStrangerIsAdmittedOnTwoRails) {
  // The receiver wires the sender when its first frame arrives, before the
  // reliability gate, so that frame is admitted at once: a fault-free run
  // retransmits nothing.
  TestBed bed(8, /*rails=*/2);
  bed.pin_transport = true;
  std::uint64_t retransmissions = 0;
  std::uint64_t frames_dropped = 0;
  int done = 0;
  bed.run_mpi(2, [&](mpi::World& w) {
    auto& c = w.comm();
    const int peer = 1 - c.rank();
    EXPECT_FALSE(wired_to(w, c.gid_of(peer)));
    std::vector<std::uint8_t> small(100);
    std::vector<std::uint8_t> big(200000);
    if (c.rank() == 0) {
      for (std::size_t i = 0; i < big.size(); ++i)
        big[i] = static_cast<std::uint8_t>(i * 13);
      small.assign(small.size(), 0x5A);
      c.send(small.data(), small.size(), dtype::byte_type(), 1, 0);
      c.send(big.data(), big.size(), dtype::byte_type(), 1, 1);
    } else {
      c.recv(small.data(), small.size(), dtype::byte_type(), 0, 0);
      c.recv(big.data(), big.size(), dtype::byte_type(), 0, 1);
      EXPECT_EQ(small, std::vector<std::uint8_t>(small.size(), 0x5A));
      for (std::size_t i = 0; i < big.size(); i += 97)
        ASSERT_EQ(big[i], static_cast<std::uint8_t>(i * 13)) << "byte " << i;
    }
    c.barrier();
    for (int rail = 0; rail < 2; ++rail) {
      retransmissions += w.elan4_rail_ptl(rail)->retransmissions();
      frames_dropped += w.elan4_rail_ptl(rail)->frames_dropped();
    }
    ++done;
  }, two_reliable_rails());
  EXPECT_EQ(done, 2);
  EXPECT_EQ(retransmissions, 0u);
  EXPECT_EQ(frames_dropped, 0u);
}

TEST(Wireup, ContactOnRailOneKeepsRailZeroStream) {
  // Rank 1's rail 1 loses its connection to rank 0, and rank 0's rail 0 its
  // connection to rank 1 (PTL-local peer_failed), so rank 0's next message
  // rides rail 1 and arrives there as a new contact. Wiring rank 0 again
  // must leave rank 1's rail 0, still live, with the stream and sequence
  // state it had.
  TestBed bed(8, /*rails=*/2);
  bed.pin_transport = true;
  bool received = false;
  bed.run_mpi(2, [&](mpi::World& w) {
    auto& c = w.comm();
    sim::Engine& engine = w.net().engine();
    ptl_elan4::PtlElan4* rail0 = w.elan4_rail_ptl(0);
    ptl_elan4::PtlElan4* rail1 = w.elan4_rail_ptl(1);
    const int peer = c.gid_of(1 - c.rank());
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      if (c.rank() == 0) {
        v = static_cast<std::uint32_t>(i);
        c.send(&v, sizeof(v), dtype::byte_type(), 1, i);
        c.recv(&v, sizeof(v), dtype::byte_type(), 1, i);
      } else {
        c.recv(&v, sizeof(v), dtype::byte_type(), 0, i);
        c.send(&v, sizeof(v), dtype::byte_type(), 0, i);
      }
    }
    // Every frame is acknowledged before a stream goes away.
    while (rail0->outstanding_frames(peer) > 0) {
      w.pml().progress();
      engine.sleep(sim::kUs);
    }
    w.env().rte->registry().barrier("rail-loss", 2);

    auto* ep0 = static_cast<ptl_elan4::Elan4Endpoint*>(rail0->endpoint(peer));
    ASSERT_NE(ep0, nullptr);
    const ptl::ReliableStream* stream = ep0->stream.get();
    const std::uint16_t rx_expected = stream->rx_expected();
    EXPECT_GT(rx_expected, 1u) << "rail 0 carried no sequenced frame";
    if (c.rank() == 0) {
      rail0->peer_failed(peer);
      v = 77;
      c.send(&v, sizeof(v), dtype::byte_type(), 1, 9);
      return;
    }
    rail1->peer_failed(peer);
    ASSERT_FALSE(rail1->reaches(peer));
    c.recv(&v, sizeof(v), dtype::byte_type(), 0, 9);
    received = true;
    EXPECT_EQ(v, 77u);
    EXPECT_TRUE(rail1->reaches(peer));
    EXPECT_EQ(rail0->endpoint(peer), ep0);
    EXPECT_EQ(ep0->stream.get(), stream);
    EXPECT_EQ(stream->rx_expected(), rx_expected);
    EXPECT_EQ(stream->window_in_use(), 0u);
  }, two_reliable_rails());
  EXPECT_TRUE(received);
}

TEST(Wireup, InitEndsOneRegistryFetchAfterTheBarrier) {
  // The modex fetches the whole job's contact records at once: every rank
  // leaves World construction one management-net round trip, plus the
  // records' bytes at oob_mbps, after the init barrier, whatever the size
  // of the job.
  for (int n : {2, 8, 32}) {
    TestBed bed(16);
    std::string job;
    std::vector<sim::Time> ends;
    bed.run_mpi(n, [&](mpi::World& w) {
      ends.push_back(w.net().engine().now());
      job = w.env().job;
    });
    ASSERT_EQ(static_cast<int>(ends.size()), n);
    rte::Registry& reg = bed.rt->registry();
    const std::optional<sim::Time> released =
        reg.barrier_released_at(job + "/init");
    ASSERT_TRUE(released.has_value());
    std::uint64_t bytes = 0;
    for (int g = 0; g < n; ++g)
      bytes += reg.peek(job + "/proc/" + std::to_string(g)).size();
    const sim::Time fetch = 2 * bed.params.oob_latency_ns +
                            ModelParams::xfer_ns(bytes, bed.params.oob_mbps);
    for (sim::Time t : ends) EXPECT_EQ(t, *released + fetch) << n << " ranks";
  }
}

TEST(Wireup, UncontactedRankReachesMigrant) {
  // Rank 0 contacts no one before rank 2 moves. Its first send to rank 1
  // reads rank 1's contact from its modex fetch, for free; rank 2
  // republished since, so the first send to it costs a registry lookup
  // (one management-net round trip) and reaches the new context.
  TestBed bed;
  const sim::Time lookup = 2 * bed.params.oob_latency_ns;
  int done = 0;
  bed.run_mpi(3, [&](mpi::World& w) {
    auto& c = w.comm();
    sim::Engine& engine = w.net().engine();
    std::uint32_t v = 0;
    if (c.rank() == 1) {
      v = 1;
      c.send(&v, sizeof(v), dtype::byte_type(), 2, 0);
    } else if (c.rank() == 2) {
      c.recv(&v, sizeof(v), dtype::byte_type(), 1, 0);
      w.migrate(7);
    }
    if (c.rank() != 2) engine.sleep(2 * sim::kMs);  // past the move

    if (c.rank() == 0) {
      EXPECT_FALSE(wired_to(w, c.gid_of(1)));
      EXPECT_FALSE(wired_to(w, c.gid_of(2)));
      v = 41;
      const sim::Time t0 = engine.now();
      c.send(&v, sizeof(v), dtype::byte_type(), 1, 1);
      const sim::Time t1 = engine.now();
      v = 42;
      c.send(&v, sizeof(v), dtype::byte_type(), 2, 1);
      const sim::Time t2 = engine.now();
      EXPECT_LT(t1 - t0, lookup) << "first contact paid a registry lookup";
      EXPECT_GE(t2 - t1, lookup) << "a stale contact was used for free";
    } else if (c.rank() == 1) {
      c.recv(&v, sizeof(v), dtype::byte_type(), 0, 1);
      EXPECT_EQ(v, 41u);
      v = 43;
      c.send(&v, sizeof(v), dtype::byte_type(), 2, 1);
    } else {
      c.recv(&v, sizeof(v), dtype::byte_type(), 0, 1);
      EXPECT_EQ(v, 42u);
      c.recv(&v, sizeof(v), dtype::byte_type(), 1, 1);
      EXPECT_EQ(v, 43u);
    }
    c.barrier();
    ++done;
  });
  EXPECT_EQ(done, 3);
}

}  // namespace
}  // namespace oqs
