// Oracle tests for crc32(): the published CRC-32/ISO-HDLC check value and
// a table-free bitwise reference written here, so a bug in the table or
// its loop is caught by code that shares nothing with it.
#include "common/checksum.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

namespace twl {
namespace {

/// Reflected CRC-32, polynomial 0xEDB88320, one bit at a time.
std::uint32_t bitwise_crc32(const std::uint8_t* data, std::size_t size) {
  std::uint32_t c = 0xFFFFFFFFu;
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

}  // namespace
}  // namespace twl
