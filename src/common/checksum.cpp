#include "common/checksum.h"

namespace twl {

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed) {
  const auto& table = crc32_detail::kTables[0];
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    c = table[(c ^ bytes[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace twl
