// CRC32C known-answer and property tests, and conformance of the kernel
// crc32c dispatches to (SSE4.2 where the CPU has it) with the table-driven
// reference.
#include "base/checksum.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "sim/rng.h"

namespace oqs {
namespace {

TEST(Crc32c, KnownAnswers) {
  // RFC 3720 test vectors for CRC32C, through both kernels.
  for (auto* kernel : {&crc32c, &crc32c_reference}) {
    std::vector<std::uint8_t> zeros(32, 0);
    EXPECT_EQ(kernel(zeros.data(), zeros.size(), 0), 0x8A9136AAu);
    std::vector<std::uint8_t> ones(32, 0xFF);
    EXPECT_EQ(kernel(ones.data(), ones.size(), 0), 0x62A8AB43u);
    std::vector<std::uint8_t> inc(32);
    for (int i = 0; i < 32; ++i) inc[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i);
    EXPECT_EQ(kernel(inc.data(), inc.size(), 0), 0x46DD794Eu);
  }
}

TEST(Crc32c, MatchesReferenceAtEveryLengthAndAlignment) {
  // Every tail length and every misalignment of the 8-byte steps, from
  // random seeds, plus a few long buffers.
  sim::Rng rng(20260417);
  constexpr std::size_t kMaxLen = (64 << 10) + 7;
  std::vector<std::uint8_t> buf(kMaxLen + 7);
  rng.fill(buf.data(), buf.size());
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 300; ++n) lengths.push_back(n);
  lengths.insert(lengths.end(), {2048, 16 << 10, kMaxLen});
  for (const std::size_t n : lengths) {
    for (std::size_t off = 0; off < 8; ++off) {
      const auto seed = static_cast<std::uint32_t>(rng.next_u64());
      ASSERT_EQ(crc32c(buf.data() + off, n, seed),
                crc32c_reference(buf.data() + off, n, seed))
          << "len " << n << " offset " << off << " seed " << seed;
    }
  }
}

TEST(Crc32c, EmptyInput) {
  EXPECT_EQ(crc32c(nullptr, 0), 0u);
}

TEST(Crc32c, SingleBitFlipChangesChecksum) {
  sim::Rng rng(1234);
  std::vector<std::uint8_t> buf(512);
  rng.fill(buf.data(), buf.size());
  const std::uint32_t base = crc32c(buf.data(), buf.size());
  for (int trial = 0; trial < 64; ++trial) {
    const std::size_t byte = rng.uniform(0, buf.size() - 1);
    const int bit = static_cast<int>(rng.uniform(0, 7));
    buf[byte] ^= static_cast<std::uint8_t>(1 << bit);
    EXPECT_NE(crc32c(buf.data(), buf.size()), base);
    buf[byte] ^= static_cast<std::uint8_t>(1 << bit);  // restore
  }
  EXPECT_EQ(crc32c(buf.data(), buf.size()), base);
}

TEST(Crc32c, SeedChainsIncrementalUse) {
  std::vector<std::uint8_t> buf(100);
  for (std::size_t i = 0; i < buf.size(); ++i) buf[i] = static_cast<std::uint8_t>(i);
  const std::uint32_t whole = crc32c(buf.data(), buf.size());
  const std::uint32_t first = crc32c(buf.data(), 40);
  const std::uint32_t chained = crc32c(buf.data() + 40, 60, first);
  EXPECT_EQ(chained, whole);

  // The same at random split points, seeds and start offsets, wherever the
  // split falls relative to the kernel's 8-byte steps.
  sim::Rng rng(7919);
  std::vector<std::uint8_t> big(4096 + 13);
  rng.fill(big.data(), big.size());
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t off = rng.uniform(0, 7);
    const std::size_t len = rng.uniform(0, big.size() - off);
    const std::size_t split = rng.uniform(0, len);
    const auto seed = static_cast<std::uint32_t>(rng.next_u64());
    const std::uint8_t* p = big.data() + off;
    EXPECT_EQ(crc32c(p + split, len - split, crc32c(p, split, seed)),
              crc32c_reference(p, len, seed))
        << "len " << len << " split " << split << " offset " << off;
  }
}

}  // namespace
}  // namespace oqs
