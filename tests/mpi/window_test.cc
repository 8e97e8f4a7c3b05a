// MPI-2 one-sided communication over Elan4 RDMA: windows, put, get, fence
// epochs, bounds checking.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>

#include "testbed.h"

namespace oqs {
namespace {

using test::TestBed;

TEST(Window, PutPlacesDataAtTarget) {
  TestBed bed;
  bed.run_mpi(2, [&](mpi::World& w) {
    auto& c = w.comm();
    std::vector<std::uint8_t> exposed(4096, 0);
    mpi::Window win(c, w, exposed.data(), exposed.size());

    if (c.rank() == 0) {
      std::vector<std::uint8_t> payload(1000);
      std::iota(payload.begin(), payload.end(), 1);
      EXPECT_EQ(win.put(1, payload.data(), payload.size(), /*offset=*/100),
                Status::kOk);
      EXPECT_EQ(win.fence(), Status::kOk);
    } else {
      EXPECT_EQ(win.fence(), Status::kOk);
      for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(exposed[static_cast<std::size_t>(100 + i)],
                  static_cast<std::uint8_t>(i + 1));
      EXPECT_EQ(exposed[99], 0);
      EXPECT_EQ(exposed[1100], 0);
    }
    EXPECT_EQ(win.fence(), Status::kOk);
  });
}

TEST(Window, GetPullsDataFromTarget) {
  TestBed bed;
  bed.run_mpi(2, [&](mpi::World& w) {
    auto& c = w.comm();
    std::vector<std::uint8_t> exposed(2048, 0);
    if (c.rank() == 1)
      for (std::size_t i = 0; i < exposed.size(); ++i)
        exposed[i] = static_cast<std::uint8_t>(i * 3);
    mpi::Window win(c, w, exposed.data(), exposed.size());

    if (c.rank() == 0) {
      std::vector<std::uint8_t> local(500, 0);
      EXPECT_EQ(win.get(1, local.data(), local.size(), /*offset=*/32), Status::kOk);
      EXPECT_EQ(win.fence(), Status::kOk);
      for (int i = 0; i < 500; ++i)
        ASSERT_EQ(local[static_cast<std::size_t>(i)],
                  static_cast<std::uint8_t>((32 + i) * 3));
    } else {
      EXPECT_EQ(win.fence(), Status::kOk);
    }
    EXPECT_EQ(win.fence(), Status::kOk);
  });
}

TEST(Window, FenceEpochsOrderAccesses) {
  // Classic BSP pattern: epoch 1 everyone puts to the right neighbour;
  // epoch 2 everyone reads what landed locally and pushes it on.
  TestBed bed;
  bed.run_mpi(4, [&](mpi::World& w) {
    auto& c = w.comm();
    const int n = c.size();
    std::uint64_t cell = 1000 + static_cast<std::uint64_t>(c.rank());
    mpi::Window win(c, w, &cell, sizeof(cell));

    for (int round = 0; round < n; ++round) {
      std::uint64_t moving = cell;
      win.put((c.rank() + 1) % n, &moving, sizeof(moving), 0);
      EXPECT_EQ(win.fence(), Status::kOk);
    }
    // After n rounds each value returned home.
    EXPECT_EQ(cell, 1000 + static_cast<std::uint64_t>(c.rank()));
    c.barrier();
  });
}

TEST(Window, ManyOutstandingOpsDrainAtFence) {
  TestBed bed;
  bed.run_mpi(2, [&](mpi::World& w) {
    auto& c = w.comm();
    std::vector<std::uint8_t> exposed(64 * 1024, 0);
    mpi::Window win(c, w, exposed.data(), exposed.size());
    if (c.rank() == 0) {
      std::vector<std::vector<std::uint8_t>> chunks;
      for (int i = 0; i < 16; ++i) {
        chunks.emplace_back(4096, static_cast<std::uint8_t>(i + 1));
        win.put(1, chunks.back().data(), 4096,
                static_cast<std::size_t>(i) * 4096);
      }
      EXPECT_EQ(win.pending(), 16u);
      EXPECT_EQ(win.fence(), Status::kOk);
      EXPECT_EQ(win.pending(), 0u);
    } else {
      EXPECT_EQ(win.fence(), Status::kOk);
      for (int i = 0; i < 16; ++i)
        ASSERT_EQ(exposed[static_cast<std::size_t>(i) * 4096 + 7],
                  static_cast<std::uint8_t>(i + 1));
    }
    EXPECT_EQ(win.fence(), Status::kOk);
  });
}

TEST(Window, BoundsAreChecked) {
  TestBed bed;
  bed.run_mpi(2, [&](mpi::World& w) {
    auto& c = w.comm();
    std::vector<std::uint8_t> exposed(256, 0);
    mpi::Window win(c, w, exposed.data(), exposed.size());
    std::uint8_t x = 1;
    EXPECT_EQ(win.put(1, &x, 1, 256), Status::kBadParam);   // one past end
    EXPECT_EQ(win.put(5, &x, 1, 0), Status::kBadParam);     // bad rank
    EXPECT_EQ(win.get(1, &x, 300, 0), Status::kBadParam);   // too long
    EXPECT_EQ(win.put(1, &x, 1, 255), Status::kOk);         // last byte ok
    EXPECT_EQ(win.fence(), Status::kOk);
    EXPECT_EQ(win.fence(), Status::kOk);
  });
}

TEST(Window, SelfPutWorksThroughLoopback) {
  TestBed bed;
  bed.run_mpi(2, [&](mpi::World& w) {
    auto& c = w.comm();
    std::vector<std::uint8_t> exposed(128, 0);
    mpi::Window win(c, w, exposed.data(), exposed.size());
    std::uint8_t v = 0xEE;
    win.put(c.rank(), &v, 1, static_cast<std::size_t>(c.rank()));
    EXPECT_EQ(win.fence(), Status::kOk);
    EXPECT_EQ(exposed[static_cast<std::size_t>(c.rank())], 0xEE);
    EXPECT_EQ(win.fence(), Status::kOk);
  });
}

TEST(Window, PutToADestroyedWindowFaultsTheFence) {
  // The target destroys its window, unmapping the region, before the
  // origin's put lands: the put faults at the target, and the origin's fence
  // reports it instead of aborting, still closing the epoch with the
  // barrier the target joins.
  TestBed bed;
  bed.run_mpi(2, [&](mpi::World& w) {
    auto& c = w.comm();
    std::vector<std::uint8_t> exposed(4096, 0);
    auto win = std::make_unique<mpi::Window>(c, w, exposed.data(),
                                             exposed.size());
    if (c.rank() == 0) {
      std::vector<std::uint8_t> payload(1024, 0x77);
      EXPECT_EQ(win->put(1, payload.data(), payload.size(), 0), Status::kOk);
      EXPECT_EQ(win->fence(), Status::kFault);
      EXPECT_EQ(win->pending(), 0u);
      // The next epoch starts clean.
      EXPECT_EQ(win->fence(), Status::kOk);
    } else {
      win.reset();
      c.barrier();  // the origin's faulted fence
      c.barrier();  // and its clean one
      EXPECT_EQ(exposed[0], 0) << "a faulted put places nothing";
    }
  });
}

}  // namespace
}  // namespace oqs
