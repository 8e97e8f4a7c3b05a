// Non-contiguous datatypes end-to-end: eager, rendezvous (staging through
// E4-addressable buffers) under the fragment schedule and both paper RDMA
// schemes, type mismatch between sides.
#include <gtest/gtest.h>

#include <numeric>

#include "testbed.h"

namespace oqs {
namespace {

using test::TestBed;

TEST(DtypeTransfer, VectorColumnExchangeEager) {
  // Send a "column" of a 16x16 byte matrix (stride 16, blocklen 1).
  TestBed bed;
  bed.run_mpi(2, [&](mpi::World& w) {
    auto& c = w.comm();
    auto col = dtype::Datatype::vec(16, 1, 16, dtype::byte_type());
    std::vector<std::uint8_t> m(256);
    if (c.rank() == 0) {
      std::iota(m.begin(), m.end(), 0);
      c.send(m.data() + 3, 1, col, 1, 0);  // column 3
    } else {
      std::fill(m.begin(), m.end(), 0xFF);
      c.recv(m.data() + 5, 1, col, 0, 0);  // into column 5
      for (int row = 0; row < 16; ++row) {
        EXPECT_EQ(m[static_cast<std::size_t>(row * 16 + 5)],
                  static_cast<std::uint8_t>(row * 16 + 3));
        EXPECT_EQ(m[static_cast<std::size_t>(row * 16 + 6)], 0xFF);
      }
    }
  });
}

class DtypeRdvSchemes : public ::testing::TestWithParam<ptl_elan4::Scheme> {};

TEST_P(DtypeRdvSchemes, LargeVectorStagesThroughRdma) {
  // 4000 blocks of 8 doubles with holes: ~250KB of payload, forcing the
  // rendezvous path with pack/unpack staging on both sides.
  mpi::Options opts;
  opts.elan4.scheme = GetParam();
  TestBed bed;
  const test::RdvCounts before;
  bed.run_mpi(2, [&](mpi::World& w) {
    auto& c = w.comm();
    auto t = dtype::Datatype::vec(4000, 8, 10, dtype::double_type());
    const std::size_t span = t->extent() / sizeof(double) + 8;
    std::vector<double> mem(span, -1.0);
    if (c.rank() == 0) {
      for (std::size_t i = 0; i < span; ++i) mem[i] = static_cast<double>(i);
      c.send(mem.data(), 1, t, 1, 0);
    } else {
      c.recv(mem.data(), 1, t, 0, 0);
      // Block k covers doubles [k*10, k*10+8); holes stay -1.
      for (std::size_t k = 0; k < 4000; ++k) {
        for (std::size_t j = 0; j < 8; ++j)
          ASSERT_EQ(mem[k * 10 + j], static_cast<double>(k * 10 + j));
        ASSERT_EQ(mem[k * 10 + 8], -1.0);
        ASSERT_EQ(mem[k * 10 + 9], -1.0);
      }
    }
    c.barrier();
  }, opts);
  test::expect_rendezvous_path(GetParam(), before);
}

INSTANTIATE_TEST_SUITE_P(Schemes, DtypeRdvSchemes,
                         ::testing::Values(ptl_elan4::Scheme::kPipelined,
                                           ptl_elan4::Scheme::kRdmaRead,
                                           ptl_elan4::Scheme::kRdmaWrite));

TEST(DtypeTransfer, ContiguousSenderNoncontiguousReceiver) {
  TestBed bed;
  bed.run_mpi(2, [&](mpi::World& w) {
    auto& c = w.comm();
    const std::size_t n = 6000;  // bytes of payload > eager limit
    if (c.rank() == 0) {
      std::vector<std::uint8_t> flat(n);
      std::iota(flat.begin(), flat.end(), 0);
      c.send(flat.data(), n, dtype::byte_type(), 1, 0);
    } else {
      auto t = dtype::Datatype::vec(n / 2, 2, 3, dtype::byte_type());
      std::vector<std::uint8_t> mem(t->extent() + 1, 0xEE);
      c.recv(mem.data(), 1, t, 0, 0);
      std::uint8_t expect = 0;
      for (std::size_t k = 0; k < n / 2; ++k) {
        ASSERT_EQ(mem[k * 3 + 0], expect++);
        ASSERT_EQ(mem[k * 3 + 1], expect++);
        if (k + 1 < n / 2) {
          ASSERT_EQ(mem[k * 3 + 2], 0xEE);
        }
      }
    }
    c.barrier();
  });
}

TEST(DtypeTransfer, StructOfIntAndDoubles) {
  struct Particle {
    std::int32_t id;
    std::int32_t pad;
    double pos[3];
  };
  static_assert(sizeof(Particle) == 32);
  auto t = dtype::Datatype::structure({{0, 1, dtype::int_type()},
                                       {8, 3, dtype::double_type()}});
  ASSERT_EQ(t->size(), 28u);

  TestBed bed;
  bed.run_mpi(2, [&](mpi::World& w) {
    auto& c = w.comm();
    constexpr std::size_t kN = 500;  // 14KB payload -> rendezvous
    // Extent is 32 bytes... matches sizeof(Particle) given the layout.
    std::vector<Particle> ps(kN);
    if (c.rank() == 0) {
      for (std::size_t i = 0; i < kN; ++i) {
        ps[i].id = static_cast<std::int32_t>(i);
        ps[i].pad = -7;
        for (int d = 0; d < 3; ++d)
          ps[i].pos[d] = static_cast<double>(i) + d * 0.25;
      }
      c.send(ps.data(), kN, t, 1, 0);
    } else {
      for (auto& pp : ps) pp.pad = 123;
      c.recv(ps.data(), kN, t, 0, 0);
      for (std::size_t i = 0; i < kN; ++i) {
        EXPECT_EQ(ps[i].id, static_cast<std::int32_t>(i));
        EXPECT_EQ(ps[i].pad, 123);  // hole untouched
        for (int d = 0; d < 3; ++d)
          EXPECT_EQ(ps[i].pos[d], static_cast<double>(i) + d * 0.25);
      }
    }
    c.barrier();
  });
}

}  // namespace
}  // namespace oqs
