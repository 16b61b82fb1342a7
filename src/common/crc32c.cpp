#include "common/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace wow {
namespace {

constexpr std::uint32_t kPoly = 0x82F63B78u;  // reflected Castagnoli

/// kTables[0] is the classic byte-at-a-time table; kTables[k][b] is the
/// CRC of byte b followed by k zero bytes, so eight lookups fold eight
/// input bytes at once.
using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Tables make_tables() {
  Tables t{};
  for (std::uint32_t b = 0; b < 256; ++b) {
    std::uint32_t c = b;
    for (int i = 0; i < 8; ++i) c = (c >> 1) ^ ((c & 1) != 0 ? kPoly : 0);
    t[0][b] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t b = 0; b < 256; ++b) {
      std::uint32_t prev = t[k - 1][b];
      t[k][b] = (prev >> 8) ^ t[0][prev & 0xff];
    }
  }
  return t;
}

constexpr Tables kTables = make_tables();

/// Little-endian load, independent of host byte order.
std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

using CrcFn = std::uint32_t (*)(std::uint32_t, std::span<const std::uint8_t>);

#if defined(__x86_64__)
__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(
    std::uint32_t crc, std::span<const std::uint8_t> bytes) {
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  std::uint64_t c = ~crc;
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, 8);
    c = _mm_crc32_u64(c, word);
  }
  auto c32 = static_cast<std::uint32_t>(c);
  for (; n > 0; ++p, --n) c32 = _mm_crc32_u8(c32, *p);
  return ~c32;
}
#endif

CrcFn pick() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return &crc32c_sse42;
#endif
  return &detail::crc32c_portable;
}

}  // namespace

std::uint32_t crc32c(std::uint32_t crc, std::span<const std::uint8_t> bytes) {
  static const CrcFn impl = pick();
  return impl(crc, bytes);
}

namespace detail {

std::uint32_t crc32c_portable(std::uint32_t crc,
                              std::span<const std::uint8_t> bytes) {
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  std::uint32_t c = ~crc;
  for (; n >= 8; p += 8, n -= 8) {
    std::uint32_t lo = c ^ load_le32(p);
    std::uint32_t hi = load_le32(p + 4);
    c = kTables[7][lo & 0xff] ^ kTables[6][(lo >> 8) & 0xff] ^
        kTables[5][(lo >> 16) & 0xff] ^ kTables[4][lo >> 24] ^
        kTables[3][hi & 0xff] ^ kTables[2][(hi >> 8) & 0xff] ^
        kTables[1][(hi >> 16) & 0xff] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = (c >> 8) ^ kTables[0][(c ^ *p) & 0xff];
  return ~c;
}

}  // namespace detail
}  // namespace wow
