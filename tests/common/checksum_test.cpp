// Oracle tests for crc32() and Crc32Fold: the published CRC-32/ISO-HDLC
// check value and a table-free bitwise reference written here, so a bug in
// the tables or their loops is caught by code that shares nothing with
// them.
#include "common/checksum.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <random>
#include <vector>

namespace twl {
namespace {

/// Reflected CRC-32, polynomial 0xEDB88320, one bit at a time; `seed`
/// continues an earlier checksum.
std::uint32_t bitwise_crc32(const std::uint8_t* data, std::size_t size,
                            std::uint32_t seed = 0) {
  std::uint32_t c = ~seed;
  for (std::size_t i = 0; i < size; ++i) {
    c ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
    }
  }
  return ~c;
}

/// Deterministic, non-repeating test bytes.
std::vector<std::uint8_t> test_bytes(std::size_t n) {
  std::vector<std::uint8_t> bytes(n);
  std::uint32_t x = 0x9E3779B9u;
  for (std::uint8_t& b : bytes) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<std::uint8_t>(x >> 24);
  }
  return bytes;
}

TEST(Crc32, CheckValue) {
  const char* check = "123456789";
  EXPECT_EQ(crc32(check, std::strlen(check)), 0xCBF43926u);
  EXPECT_EQ(bitwise_crc32(reinterpret_cast<const std::uint8_t*>(check),
                          std::strlen(check)),
            0xCBF43926u);
}

TEST(Crc32, EmptyInputIsZero) {
  const std::uint8_t byte = 0xAB;
  EXPECT_EQ(crc32(&byte, 0), 0u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
}

TEST(Crc32, SeededContinuationEqualsOneShotAtEverySplit) {
  const std::vector<std::uint8_t> bytes = test_bytes(97);
  const std::uint32_t whole = crc32(bytes.data(), bytes.size());
  for (std::size_t split = 0; split <= bytes.size(); ++split) {
    const std::uint32_t head = crc32(bytes.data(), split);
    EXPECT_EQ(crc32(bytes.data() + split, bytes.size() - split, head), whole)
        << "split " << split;
  }
}

TEST(Crc32, AgreesWithBitwiseReference) {
  const std::vector<std::uint8_t> bytes = test_bytes(300 + 7);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 300; ++len) {
      ASSERT_EQ(crc32(bytes.data() + offset, len),
                bitwise_crc32(bytes.data() + offset, len))
          << "offset " << offset << " length " << len;
    }
  }
}

/// Folds `count` seeded random values of random width (1, 4 or 8 bytes)
/// into `fold` and appends their little-endian bytes to `bytes`.
void fold_random_values(std::mt19937_64& rng, std::size_t count,
                        Crc32Fold& fold, std::vector<std::uint8_t>& bytes) {
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t v = rng();
    std::size_t width = 8;
    switch (rng() % 3) {
      case 0:
        fold.u8(static_cast<std::uint8_t>(v));
        width = 1;
        break;
      case 1:
        fold.u32(static_cast<std::uint32_t>(v));
        width = 4;
        break;
      default:
        fold.u64(v);
        break;
    }
    for (std::size_t b = 0; b < width; ++b) {
      bytes.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
    }
  }
}

TEST(Crc32Fold, CheckValue) {
  // "123456789": the first eight bytes as one little-endian u64.
  Crc32Fold wide;
  wide.u64(0x3837363534333231ULL);
  wide.u8('9');
  EXPECT_EQ(wide.value(), 0xCBF43926u);
  Crc32Fold narrow;
  narrow.u32(0x34333231u);
  narrow.u32(0x38373635u);
  narrow.u8('9');
  EXPECT_EQ(narrow.value(), 0xCBF43926u);
  EXPECT_EQ(Crc32Fold().value(), 0u);
  EXPECT_EQ(Crc32Fold(0x12345678u).value(), 0x12345678u);
}

TEST(Crc32Fold, RandomValuesAgreeWithBitwiseReference) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    std::mt19937_64 rng(seed);
    Crc32Fold fold;
    std::vector<std::uint8_t> bytes;
    fold_random_values(rng, rng() % 48, fold, bytes);
    ASSERT_EQ(fold.value(), bitwise_crc32(bytes.data(), bytes.size()))
        << "seed " << seed << ", " << bytes.size() << " bytes";
  }
}

TEST(Crc32Fold, ContinuesFromASeed) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    std::mt19937_64 rng(seed);
    std::vector<std::uint8_t> head(rng() % 24);
    for (std::uint8_t& b : head) b = static_cast<std::uint8_t>(rng());
    const std::uint32_t head_crc = bitwise_crc32(head.data(), head.size());

    Crc32Fold fold(head_crc);
    std::vector<std::uint8_t> tail;
    fold_random_values(rng, rng() % 24, fold, tail);
    ASSERT_EQ(fold.value(),
              bitwise_crc32(tail.data(), tail.size(), head_crc))
        << "seed " << seed;
    std::vector<std::uint8_t> whole = head;
    whole.insert(whole.end(), tail.begin(), tail.end());
    ASSERT_EQ(fold.value(), bitwise_crc32(whole.data(), whole.size()))
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace twl
