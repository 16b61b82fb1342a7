#pragma once

#include <cstdint>
#include <span>

namespace wow {

/// CRC-32C (Castagnoli, RFC 3720): reflected polynomial 0x82F63B78,
/// initial value and final xor 0xFFFFFFFF.  Chains zlib-style — pass 0
/// to start and the previous result to continue, so
/// `crc32c(crc32c(0, a), b) == crc32c(0, a‖b)`.
///
/// Any error burst of 32 bits or fewer and any 1–3 bit error in a frame
/// of up to 2^31 bits changes the result.  On x86-64 CPUs with SSE4.2
/// the `crc32` instruction computes it (8 bytes per instruction); the
/// choice is made once per process, so the build needs no -march flag.
/// Elsewhere a portable slicing-by-8 table gives the identical value.
[[nodiscard]] std::uint32_t crc32c(std::uint32_t crc,
                                   std::span<const std::uint8_t> bytes);

namespace detail {

/// The portable slicing-by-8 path, exposed so tests can check the
/// hardware path against it on machines that have one.
[[nodiscard]] std::uint32_t crc32c_portable(
    std::uint32_t crc, std::span<const std::uint8_t> bytes);

}  // namespace detail
}  // namespace wow
