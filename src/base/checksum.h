// CRC32C (Castagnoli) checksum.
//
// LA-MPI heritage: Open MPI's end-to-end reliable delivery checksums every
// fragment. We use the same mechanism so corruption-injection tests can
// verify the retransmission path.
//
// crc32c picks its kernel once, from cpuid: the SSE4.2 `crc32` instruction
// where the CPU has it, the table loop otherwise. Both compute the same
// values, so the choice moves only the simulator's wall clock; what a CRC
// costs in simulated time is ModelParams::crc_mbps.
#pragma once

#include <cstddef>
#include <cstdint>

namespace oqs {

std::uint32_t crc32c(const void* data, std::size_t len, std::uint32_t seed = 0);

// The portable table-driven kernel: crc32c's fallback on CPUs without
// SSE4.2, and the reference the hardware kernel is tested against.
std::uint32_t crc32c_reference(const void* data, std::size_t len,
                               std::uint32_t seed = 0);

}  // namespace oqs
