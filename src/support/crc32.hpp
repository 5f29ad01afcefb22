#pragma once

// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320, init and xorout
// 0xFFFFFFFF): the checksum zlib computes, and the one FLUXFPC1 stores in
// its header.
//
// Slicing-by-8: table k maps a byte to its CRC contribution k positions
// ahead of the running remainder, so one step folds eight input bytes
// with eight lookups instead of eight dependent ones. Table 0 is the
// classic byte-at-a-time table; inputs shorter than eight bytes, and the
// tail of longer ones, go through it alone. Portable C++ (no intrinsics);
// the eight-byte step reads its words little-endian through support::get,
// which bytes.hpp pins to the host order.

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "support/bytes.hpp"

namespace fluxfp::support {

namespace detail {

using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Crc32Tables make_crc32_tables() {
  Crc32Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

inline constexpr Crc32Tables kCrc32Tables = make_crc32_tables();

}  // namespace detail

inline std::uint32_t crc32(std::string_view data) {
  const auto& t = detail::kCrc32Tables;
  std::uint32_t c = 0xFFFFFFFFu;
  const char* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = get<std::uint32_t>(p) ^ c;
    const std::uint32_t hi = get<std::uint32_t>(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    c = t[0][(c ^ static_cast<unsigned char>(*p)) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace fluxfp::support
