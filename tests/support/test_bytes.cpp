// The shared byte codec (support/bytes.hpp) on its own: little-endian
// field layout, bit-exact f64 round-trips, writer patching, and the
// reader's bounds checks, first-failure offsets and error text.

#include "support/bytes.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <set>
#include <string>

namespace fluxfp::support {
namespace {

TEST(Bytes, FieldsAreLittleEndian) {
  char b[8];
  put<std::uint32_t>(b, 0x01020304u);
  EXPECT_EQ(std::string(b, 4), std::string("\x04\x03\x02\x01", 4));
  put<std::uint16_t>(b, 0xA1B2u);
  EXPECT_EQ(std::string(b, 2), std::string("\xB2\xA1", 2));
  put<std::uint64_t>(b, 0x0102030405060708ull);
  EXPECT_EQ(std::string(b, 8),
            std::string("\x08\x07\x06\x05\x04\x03\x02\x01", 8));
  EXPECT_EQ(get<std::uint64_t>(b), 0x0102030405060708ull);
  put<double>(b, 1.0);  // IEEE 754 binary64: sign/exponent in the last byte
  EXPECT_EQ(std::string(b, 8), std::string("\0\0\0\0\0\0\xF0\x3F", 8));
}

TEST(Bytes, DoublesRoundTripBitExactly) {
  const std::uint64_t payload_nan = 0x7FF8DEADBEEF0001ull;
  double nan;
  std::memcpy(&nan, &payload_nan, sizeof(nan));
  for (const double v : {nan, -0.0, std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::denorm_min()}) {
    ByteWriter w;
    w.f64(v);
    const std::string bytes = w.take();
    ByteReader r(bytes, "FXN1");
    double out = 0.0;
    ASSERT_TRUE(r.f64(out));
    EXPECT_EQ(std::memcmp(&out, &v, sizeof(v)), 0);
    EXPECT_TRUE(r.done());
  }
}

TEST(Bytes, WriterAppendsInOrderAndPatchesInPlace) {
  ByteWriter w;
  w.u8(0xAB);
  w.u32(0);  // placeholder
  w.u16(7);
  w.bytes("xy");
  put<std::uint32_t>(w.at(1), 0xDDCCBBAAu);
  EXPECT_EQ(w.size(), 9u);
  EXPECT_EQ(w.take(), std::string("\xAB\xAA\xBB\xCC\xDD\x07\x00xy", 9));
}

TEST(Bytes, ShortReadFailsAtItsOffsetAndStaysFailed) {
  ByteWriter w;
  w.u32(5);
  w.u8(1);
  const std::string bytes = w.take();
  ByteReader r(bytes, "FLUXFPC1", 24);
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  ASSERT_TRUE(r.u32(a));
  EXPECT_EQ(a, 5u);
  EXPECT_FALSE(r.u32(b));
  ASSERT_TRUE(r.error().has_value());
  EXPECT_EQ(r.error()->format, "FLUXFPC1");
  EXPECT_EQ(r.error()->kind, DecodeError::Kind::kMalformedPayload);
  EXPECT_EQ(r.error()->offset, 24u + 4u);  // base + where the read began
  EXPECT_EQ(r.error()->reason, "payload ends inside u32 (1 of 4 bytes left)");
  std::uint8_t c = 0;
  EXPECT_FALSE(r.u8(c));  // the byte is there, but the reader has failed
  EXPECT_EQ(r.pos(), 4u);
  EXPECT_FALSE(r.done());
  EXPECT_EQ(r.error()->offset, 28u);
  EXPECT_EQ(r.finish()->reason, "payload ends inside u32 (1 of 4 bytes left)");
}

TEST(Bytes, LyingCountsAndLengthsFailBeforeAnyCopy) {
  ByteWriter w;
  w.u64(~std::uint64_t{0});
  w.bytes("abcdefgh");
  const std::string bytes = w.take();
  {
    ByteReader r(bytes, "FLUXFPC1");
    std::uint64_t n = 0;
    EXPECT_FALSE(r.count(n, 1));
    EXPECT_EQ(r.error()->offset, 8u);
  }
  {
    ByteReader r(bytes, "FLUXFPC1");
    std::uint64_t n = 0;
    std::string s;
    ASSERT_TRUE(r.u64(n));
    EXPECT_FALSE(r.str(s, n, "text"));
    EXPECT_TRUE(s.empty());
    EXPECT_NE(r.error()->reason.find("text"), std::string::npos);
  }
  {
    ByteReader r(bytes, "FXN1");
    std::uint64_t n = 0;
    EXPECT_TRUE(r.count(n, 0));  // zero-size elements: no bound to check
    EXPECT_FALSE(r.done());
    EXPECT_EQ(r.error()->reason, "8 trailing payload bytes");
  }
}

TEST(Bytes, ErrorTextCarriesOffsetKindAndReason) {
  const DecodeError err{"FXN1", DecodeError::Kind::kOversized, 8,
                        "declared payload 4294967295 bytes exceeds limit"};
  EXPECT_EQ(err.to_string(),
            "offset 8: oversized frame — declared payload 4294967295 bytes "
            "exceeds limit");
  std::set<std::string> names;
  for (int k = 0; k <= static_cast<int>(DecodeError::Kind::kBadStream); ++k) {
    names.insert(kind_name(static_cast<DecodeError::Kind>(k)));
  }
  EXPECT_EQ(names.size(),
            static_cast<std::size_t>(DecodeError::Kind::kBadStream) + 1);
}

}  // namespace
}  // namespace fluxfp::support
