// CRC-32 (ISO-HDLC polynomial, reflected) for persistent metadata.
//
// The recovery subsystem stores wear-leveling state in PCM: snapshot blobs
// and write-ahead journal records. Both are validated with this checksum so
// that a torn write (power failure mid-append) or a corrupted region is
// detected instead of silently replayed into the address mapping.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace twl {

/// Incremental CRC-32: pass the previous return value as `seed` to extend
/// a running checksum. Start from 0.
[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t size,
                                  std::uint32_t seed = 0);

namespace crc32_detail {

using Table = std::array<std::uint32_t, 256>;

/// Slicing tables: row 0 is the bytewise table crc32() walks; row k
/// advances a byte followed by k zero bytes, so k+1 independent lookups
/// fold k+1 bytes at once.
constexpr std::array<Table, 8> make_tables() {
  std::array<Table, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

inline constexpr std::array<Table, 8> kTables = make_tables();

}  // namespace crc32_detail

/// CRC-32 folded from values in registers instead of bytes in memory:
/// folding a u32 gives the same checksum as crc32() over its four
/// little-endian bytes, a u64 over its eight. An encoder that stores a
/// value and feeds it here never loads back the bytes it just stored.
class Crc32Fold {
 public:
  /// Continues from `seed`, a previous crc32() or value(); 0 starts fresh.
  constexpr explicit Crc32Fold(std::uint32_t seed = 0) : c_(~seed) {}

  constexpr void u8(std::uint8_t v) {
    c_ = crc32_detail::kTables[0][(c_ ^ v) & 0xFFu] ^ (c_ >> 8);
  }

  constexpr void u32(std::uint32_t v) {
    const auto& t = crc32_detail::kTables;
    const std::uint32_t x = c_ ^ v;
    c_ = t[3][x & 0xFFu] ^ t[2][(x >> 8) & 0xFFu] ^
         t[1][(x >> 16) & 0xFFu] ^ t[0][x >> 24];
  }

  constexpr void u64(std::uint64_t v) {
    const auto& t = crc32_detail::kTables;
    const std::uint32_t lo = c_ ^ static_cast<std::uint32_t>(v);
    const auto hi = static_cast<std::uint32_t>(v >> 32);
    c_ = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
         t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
         t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }

  /// The checksum of everything folded so far (crc32()'s return value).
  [[nodiscard]] constexpr std::uint32_t value() const { return ~c_; }

 private:
  std::uint32_t c_;
};

}  // namespace twl
