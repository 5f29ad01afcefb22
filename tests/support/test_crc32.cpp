// The FLUXFPC1 checksum (support/crc32.hpp): known answers of CRC-32/IEEE,
// and equality of the slicing-by-8 loop with a byte-at-a-time reference
// at every length and alignment where the eight-byte step and the tail
// meet, plus one large seeded buffer. Named Checkpoint* so the sanitizer
// soak steps repeat them.

#include "support/crc32.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <string_view>

namespace fluxfp::support {
namespace {

/// The textbook bitwise CRC-32: no tables at all.
std::uint32_t crc32_bitwise(std::string_view data) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (const char ch : data) {
    c ^= static_cast<unsigned char>(ch);
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
  }
  return c ^ 0xFFFFFFFFu;
}

std::string seeded_bytes(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::string out(n, '\0');
  for (char& c : out) {
    c = static_cast<char>(rng() & 0xFFu);
  }
  return out;
}

TEST(CheckpointCrc, KnownAnswers) {
  EXPECT_EQ(crc32(""), 0u);
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32("The quick brown fox jumps over the lazy dog"),
            0x414FA339u);
  EXPECT_EQ(crc32(std::string(32, '\0')), 0x190A55ADu);
}

TEST(CheckpointCrc, MatchesBytewiseAtEveryLengthAndOffset) {
  const std::string buf = seeded_bytes(64 + 8, 1);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 64; ++len) {
      const std::string_view v(buf.data() + offset, len);
      ASSERT_EQ(crc32(v), crc32_bitwise(v))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(CheckpointCrc, MatchesBytewiseOnOneMiB) {
  const std::string buf = seeded_bytes(std::size_t{1} << 20, 2);
  EXPECT_EQ(crc32(buf), crc32_bitwise(buf));
  // Odd start and length: the tail and the unaligned step together.
  const std::string_view inner(buf.data() + 3, buf.size() - 8);
  EXPECT_EQ(crc32(inner), crc32_bitwise(inner));
}

}  // namespace
}  // namespace fluxfp::support
