#include "base/checksum.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace oqs {

namespace {
constexpr std::uint32_t kPoly = 0x82f63b78u;  // reflected CRC32C

std::array<std::uint32_t, 256> make_table() {
  std::array<std::uint32_t, 256> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int k = 0; k < 8; ++k) crc = (crc >> 1) ^ ((crc & 1u) ? kPoly : 0u);
    t[i] = crc;
  }
  return t;
}

using Kernel = std::uint32_t (*)(const void*, std::size_t, std::uint32_t);

#if defined(__x86_64__)
// The instruction computes the same reflected Castagnoli polynomial as the
// table. The ISA is enabled on this one function rather than by a build
// flag, so no other code is compiled for SSE4.2 (see DESIGN.md).
__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(
    const void* data, std::size_t len, std::uint32_t seed) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint64_t crc = ~seed;
  for (; len >= 8; p += 8, len -= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);  // buffers may be unaligned
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = static_cast<std::uint32_t>(crc);
  for (; len > 0; ++p, --len) crc32 = _mm_crc32_u8(crc32, *p);
  return ~crc32;
}
#endif

Kernel pick_kernel() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return crc32c_sse42;
#endif
  return crc32c_reference;
}
}  // namespace

std::uint32_t crc32c_reference(const void* data, std::size_t len,
                               std::uint32_t seed) {
  static const std::array<std::uint32_t, 256> table = make_table();
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t crc = ~seed;
  for (std::size_t i = 0; i < len; ++i) crc = (crc >> 8) ^ table[(crc ^ p[i]) & 0xffu];
  return ~crc;
}

std::uint32_t crc32c(const void* data, std::size_t len, std::uint32_t seed) {
  static const Kernel kernel = pick_kernel();
  return kernel(data, len, seed);
}

}  // namespace oqs
