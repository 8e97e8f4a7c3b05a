// Datatype engine: constructors, pack/unpack roundtrips at arbitrary
// fragment boundaries, property sweeps over random nested layouts.
#include "dtype/datatype.h"

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>

#include "sim/rng.h"

namespace oqs::dtype {
namespace {

TEST(Datatype, BuiltinsAreContiguous) {
  EXPECT_EQ(byte_type()->size(), 1u);
  EXPECT_EQ(int_type()->size(), 4u);
  EXPECT_EQ(double_type()->size(), 8u);
  EXPECT_TRUE(int_type()->is_contiguous());
}

TEST(Datatype, ContiguousComposes) {
  auto t = Datatype::contiguous(10, int_type());
  EXPECT_EQ(t->size(), 40u);
  EXPECT_EQ(t->extent(), 40u);
  EXPECT_TRUE(t->is_contiguous());
  EXPECT_EQ(t->segments().size(), 1u);  // coalesced
}

TEST(Datatype, VectorHasHoles) {
  // 3 blocks of 2 ints, stride 4 ints.
  auto t = Datatype::vec(3, 2, 4, int_type());
  EXPECT_EQ(t->size(), 24u);
  EXPECT_EQ(t->extent(), (2 * 4 + 2) * 4u);
  EXPECT_FALSE(t->is_contiguous());
  EXPECT_EQ(t->segments().size(), 3u);
}

TEST(Datatype, VectorWithStrideEqualBlockIsContiguous) {
  auto t = Datatype::vec(5, 3, 3, int_type());
  EXPECT_TRUE(t->is_contiguous());
  EXPECT_EQ(t->size(), 60u);
}

TEST(Datatype, IndexedSelectsBlocks) {
  auto t = Datatype::indexed({{0, 2}, {5, 1}, {9, 3}}, byte_type());
  EXPECT_EQ(t->size(), 6u);
  EXPECT_EQ(t->extent(), 12u);
  EXPECT_EQ(t->segments().size(), 3u);
}

TEST(Datatype, StructMixesTypes) {
  // struct { int32 a; pad; double b[2]; } with explicit offsets.
  auto t = Datatype::structure({{0, 1, int_type()}, {8, 2, double_type()}});
  EXPECT_EQ(t->size(), 20u);
  EXPECT_EQ(t->extent(), 24u);
}

TEST(Convertor, PackUnpacksContiguous) {
  std::vector<int> src(100);
  std::iota(src.begin(), src.end(), 0);
  std::vector<int> dst(100, -1);
  auto t = int_type();
  Convertor cin(t, src.data(), 100);
  std::vector<std::uint8_t> wire(cin.total_bytes());
  EXPECT_EQ(cin.pack(wire.data(), wire.size()), 400u);
  EXPECT_TRUE(cin.finished());
  Convertor cout(t, dst.data(), 100);
  EXPECT_EQ(cout.unpack(wire.data(), wire.size()), 400u);
  EXPECT_EQ(src, dst);
}

TEST(Convertor, GathersVectorHoles) {
  // Memory: 0 1 2 3 4 5 6 7 8 9 ...; vector picks 2 of every 4.
  std::vector<std::uint8_t> mem(32);
  std::iota(mem.begin(), mem.end(), 0);
  auto t = Datatype::vec(3, 2, 4, byte_type());
  Convertor c(t, mem.data(), 1);
  std::vector<std::uint8_t> wire(t->size());
  c.pack(wire.data(), wire.size());
  EXPECT_EQ(wire, (std::vector<std::uint8_t>{0, 1, 4, 5, 8, 9}));
}

TEST(Convertor, ScattersOnUnpack) {
  auto t = Datatype::vec(2, 1, 3, byte_type());
  std::vector<std::uint8_t> mem(6, 0xFF);
  std::vector<std::uint8_t> wire{0xAA, 0xBB};
  Convertor c(t, mem.data(), 1);
  c.unpack(wire.data(), wire.size());
  EXPECT_EQ(mem, (std::vector<std::uint8_t>{0xAA, 0xFF, 0xFF, 0xBB, 0xFF, 0xFF}));
}

TEST(Convertor, ResumableAtArbitraryBoundaries) {
  // Pack in odd-sized pieces; the stream must match a single-shot pack.
  auto t = Datatype::vec(7, 3, 5, int_type());
  // Two elements: the second starts one extent after the first.
  std::vector<int> mem(2 * t->extent() / sizeof(int), 0);
  std::iota(mem.begin(), mem.end(), 100);

  Convertor whole(t, mem.data(), 2);
  std::vector<std::uint8_t> ref(whole.total_bytes());
  whole.pack(ref.data(), ref.size());

  Convertor pieces(t, mem.data(), 2);
  std::vector<std::uint8_t> got(pieces.total_bytes());
  std::size_t off = 0;
  const std::size_t cuts[] = {1, 3, 7, 13, 64, 5, 2, 1000000};
  std::size_t ci = 0;
  while (!pieces.finished()) {
    off += pieces.pack(got.data() + off, cuts[ci % 8]);
    ++ci;
  }
  EXPECT_EQ(off, ref.size());
  EXPECT_EQ(got, ref);
}

TEST(Convertor, RewindRestartsTheStream) {
  std::vector<std::uint8_t> mem(16);
  std::iota(mem.begin(), mem.end(), 0);
  auto t = Datatype::contiguous(16, byte_type());
  Convertor c(t, mem.data(), 1);
  std::vector<std::uint8_t> a(16);
  std::vector<std::uint8_t> b(16);
  c.pack(a.data(), 16);
  c.rewind();
  c.pack(b.data(), 16);
  EXPECT_EQ(a, b);
}

TEST(Convertor, ZeroCountIsEmpty) {
  auto t = int_type();
  int dummy = 0;
  Convertor c(t, &dummy, 0);
  EXPECT_EQ(c.total_bytes(), 0u);
  EXPECT_TRUE(c.finished());
}

// Property sweep: random nested datatypes, pack->unpack into a second
// buffer must reproduce exactly the bytes the type selects.
class DatatypeProperty : public ::testing::TestWithParam<int> {};

DatatypePtr random_type(sim::Rng& rng, int depth) {
  if (depth == 0) {
    switch (rng.uniform(0, 2)) {
      case 0: return byte_type();
      case 1: return int_type();
      default: return double_type();
    }
  }
  DatatypePtr inner = random_type(rng, depth - 1);
  switch (rng.uniform(0, 2)) {
    case 0:
      return Datatype::contiguous(rng.uniform(1, 4), inner);
    case 1: {
      const std::size_t blocklen = rng.uniform(1, 3);
      return Datatype::vec(rng.uniform(1, 4), blocklen,
                           blocklen + rng.uniform(0, 3), inner);
    }
    default: {
      std::vector<std::pair<std::size_t, std::size_t>> blocks;
      std::size_t disp = 0;
      const std::size_t nb = rng.uniform(1, 3);
      for (std::size_t i = 0; i < nb; ++i) {
        const std::size_t len = rng.uniform(1, 3);
        blocks.emplace_back(disp, len);
        disp += len + rng.uniform(0, 2);
      }
      return Datatype::indexed(blocks, inner);
    }
  }
}

TEST_P(DatatypeProperty, PackUnpackRoundtripsRandomNesting) {
  sim::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919);
  for (int iter = 0; iter < 20; ++iter) {
    DatatypePtr t = random_type(rng, static_cast<int>(rng.uniform(1, 3)));
    const std::size_t count = rng.uniform(1, 5);
    const std::size_t span = t->extent() * count + 16;

    std::vector<std::uint8_t> src(span);
    rng.fill(src.data(), src.size());
    std::vector<std::uint8_t> dst(span, 0xEE);

    Convertor cs(t, src.data(), count);
    std::vector<std::uint8_t> wire(cs.total_bytes());
    // Pack in random pieces.
    std::size_t off = 0;
    while (!cs.finished())
      off += cs.pack(wire.data() + off, rng.uniform(1, 64));
    ASSERT_EQ(off, wire.size());

    Convertor cd(t, dst.data(), count);
    off = 0;
    while (!cd.finished())
      off += cd.unpack(wire.data() + off, rng.uniform(1, 64));

    // Every byte the type covers must match; every hole must be untouched.
    std::vector<bool> covered(span, false);
    for (std::size_t e = 0; e < count; ++e)
      for (const auto& seg : t->segments())
        for (std::size_t b = 0; b < seg.length; ++b)
          covered[e * t->extent() + seg.offset + b] = true;
    for (std::size_t i = 0; i < span; ++i) {
      if (covered[i])
        ASSERT_EQ(dst[i], src[i]) << "byte " << i;
      else
        ASSERT_EQ(dst[i], 0xEE) << "hole " << i << " was written";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DatatypeProperty, ::testing::Range(1, 9));

}  // namespace
}  // namespace oqs::dtype
