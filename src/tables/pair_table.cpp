#include "tables/pair_table.h"

#include <cassert>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "common/rng.h"

namespace twl {

PairTable::PairTable(const EnduranceMap& map, PairingPolicy policy,
                     std::uint64_t seed)
    : partner_(map.pages(), kInvalidPage), policy_(policy) {
  const std::uint64_t n = map.pages();
  // Thrown (not asserted) so release builds fail loudly instead of
  // writing out of bounds — an odd pool is easy to hit via spare-pool
  // truncation.
  if (n < 2 || n % 2 != 0) {
    throw std::invalid_argument(
        "PairTable: pairing requires an even page count >= 2, got " +
        std::to_string(n));
  }
  switch (policy) {
    case PairingPolicy::kAdjacent:
      for (std::uint32_t i = 0; i < n; i += 2) {
        partner_[i] = i + 1;
        partner_[i + 1] = i;
      }
      break;
    case PairingPolicy::kStrongWeak: {
      // Sort by endurance and bond rank k with rank N+1-k: the strongest
      // page gets the weakest partner (Section 4.3).
      const auto order = map.sorted_by_endurance();
      for (std::uint64_t k = 0; k < n / 2; ++k) {
        const std::uint32_t weak = order[k].value();
        const std::uint32_t strong = order[n - 1 - k].value();
        partner_[weak] = strong;
        partner_[strong] = weak;
      }
      break;
    }
    case PairingPolicy::kRandom: {
      std::vector<std::uint32_t> perm(n);
      std::iota(perm.begin(), perm.end(), 0u);
      XorShift64Star rng(seed ^ 0x5747'7061'6972ULL);
      for (std::uint64_t i = n - 1; i > 0; --i) {
        const std::uint64_t j = rng.next_below(i + 1);
        std::swap(perm[i], perm[j]);
      }
      for (std::uint64_t i = 0; i < n; i += 2) {
        partner_[perm[i]] = perm[i + 1];
        partner_[perm[i + 1]] = perm[i];
      }
      break;
    }
  }
}

PairTable::PairTable(std::vector<std::uint32_t> partner)
    : partner_(std::move(partner)) {
  assert(is_perfect_matching());
}

bool PairTable::is_perfect_matching() const {
  for (std::uint32_t i = 0; i < partner_.size(); ++i) {
    const std::uint32_t p = partner_[i];
    if (p == i || p >= partner_.size()) return false;
    if (partner_[p] != i) return false;
  }
  return true;
}

}  // namespace twl
