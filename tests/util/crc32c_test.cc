#include "src/util/crc32c.h"

#include <cstring>
#include <string>
#include <vector>

#include "src/util/random.h"

#include <gtest/gtest.h>

namespace lsmssd::crc32c {
namespace {

uint32_t ValueOf(const std::string& s) {
  return Value(reinterpret_cast<const uint8_t*>(s.data()), s.size());
}

TEST(Crc32cTest, StandardTestVector) {
  // The canonical CRC-32C check value ("123456789" -> 0xE3069283).
  EXPECT_EQ(ValueOf("123456789"), 0xE3069283u);
}

TEST(Crc32cTest, KnownVectors) {
  // RFC 3720 appendix B.4 vectors.
  std::vector<uint8_t> zeros(32, 0x00);
  EXPECT_EQ(Value(zeros.data(), zeros.size()), 0x8A9136AAu);
  std::vector<uint8_t> ones(32, 0xFF);
  EXPECT_EQ(Value(ones.data(), ones.size()), 0x62A8AB43u);
  std::vector<uint8_t> incr(32);
  for (size_t i = 0; i < incr.size(); ++i) incr[i] = static_cast<uint8_t>(i);
  EXPECT_EQ(Value(incr.data(), incr.size()), 0x46DD794Eu);
}

TEST(Crc32cTest, EmptyInputIsZero) { EXPECT_EQ(Value(nullptr, 0), 0u); }

TEST(Crc32cTest, ExtendComposes) {
  const std::string whole = "hello, block device world";
  for (size_t split = 0; split <= whole.size(); ++split) {
    const uint32_t head =
        Value(reinterpret_cast<const uint8_t*>(whole.data()), split);
    const uint32_t both = Extend(
        head, reinterpret_cast<const uint8_t*>(whole.data()) + split,
        whole.size() - split);
    EXPECT_EQ(both, ValueOf(whole)) << "split at " << split;
  }
}

TEST(Crc32cTest, DistinguishesSingleBitFlips) {
  // Any single-bit flip in a block-sized buffer must change the CRC
  // (guaranteed by the polynomial's Hamming distance for these lengths).
  std::vector<uint8_t> buf(4096, 0x5A);
  const uint32_t base = Value(buf.data(), buf.size());
  for (size_t bit = 0; bit < buf.size() * 8; bit += 397) {
    buf[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    EXPECT_NE(Value(buf.data(), buf.size()), base) << "bit " << bit;
    buf[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
  }
}

TEST(Crc32cTest, UnalignedStartsAgree) {
  // The hardware path aligns to 8 bytes first; results must not depend on
  // the buffer's alignment.
  std::vector<uint8_t> backing(64 + 15, 0);
  for (size_t i = 0; i < backing.size(); ++i) {
    backing[i] = static_cast<uint8_t>(i * 131 + 7);
  }
  const uint32_t want = Value(backing.data() + 0, 64);
  for (size_t off = 1; off < 8; ++off) {
    std::memmove(backing.data() + off, backing.data(), 64);
    EXPECT_EQ(Value(backing.data() + off, 64), want) << "offset " << off;
    std::memmove(backing.data(), backing.data() + off, 64);
  }
}

TEST(Crc32cTest, KnownVectorsOnBothPaths) {
  const std::string check = "123456789";
  const auto* p = reinterpret_cast<const uint8_t*>(check.data());
  EXPECT_EQ(ExtendPortable(0, p, check.size()), 0xE3069283u);
  EXPECT_EQ(ExtendHardware(0, p, check.size()), 0xE3069283u);
  std::vector<uint8_t> incr(32);
  for (size_t i = 0; i < incr.size(); ++i) incr[i] = static_cast<uint8_t>(i);
  EXPECT_EQ(ExtendPortable(0, incr.data(), incr.size()), 0x46DD794Eu);
  EXPECT_EQ(ExtendHardware(0, incr.data(), incr.size()), 0x46DD794Eu);
}

TEST(Crc32cTest, HardwareAndPortablePathsAgree) {
  // Every length 0..4096 at each of the 8 start misalignments, over seeded
  // random bytes and a seeded random starting CRC.
  if (!HasHardwareSupport()) {
    GTEST_SKIP() << "CPU lacks SSE4.2: ExtendHardware is the portable path";
  }
  constexpr size_t kMaxLen = 4096;
  Random rng(2024);
  std::vector<uint8_t> backing(kMaxLen + 16);
  for (uint8_t& b : backing) b = static_cast<uint8_t>(rng.Next());
  // Align the base so that `off` really is the misalignment.
  uint8_t* base = backing.data();
  base += (8 - reinterpret_cast<uintptr_t>(base) % 8) % 8;
  size_t mismatches = 0;
  for (size_t off = 0; off < 8; ++off) {
    for (size_t len = 0; len <= kMaxLen; ++len) {
      const uint32_t seed = static_cast<uint32_t>(rng.Next());
      if (ExtendHardware(seed, base + off, len) !=
          ExtendPortable(seed, base + off, len)) {
        ADD_FAILURE() << "offset " << off << " length " << len;
        if (++mismatches > 10) return;
      }
    }
  }
  EXPECT_EQ(Extend(0, base, kMaxLen), ExtendPortable(0, base, kMaxLen));
}

}  // namespace
}  // namespace lsmssd::crc32c
