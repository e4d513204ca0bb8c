// Strong-weak pair table (SWPT).
//
// Records the toss-up partner of every *physical* page as a perfect
// matching fixed at initialization.
//
// Interpretation note: Figure 5 of the paper draws the SWPT indexed by
// logical address. A logical-space matching, however, erodes to a random
// matching as inter-pair swaps permute the remapping table underneath it —
// which would make strong-weak pairing indistinguishable from adjacent or
// random pairing, contradicting the paper's reported +21.7% SWP gain
// (Figure 6). Binding the matching to physical pages keeps pairs
// endurance-matched for the device's whole life, which is the only
// reading under which SWP does what Section 4.3 claims; at initialization
// (identity remapping) the two readings coincide. See EXPERIMENTS.md.
//
// Three construction policies (Section 4.3 + Figure 6's ablation):
//  * adjacent    — pair physical neighbours (TWL_ap, the naive scheme)
//  * strong-weak — sort pages by endurance, pair rank k with rank N+1-k
//  * random      — random perfect matching (extra ablation point)
#pragma once

#include <cstdint>
#include <vector>

#include "common/config.h"
#include "common/types.h"
#include "pcm/endurance.h"

namespace twl {

class PairTable {
 public:
  /// Builds the matching over `map.pages()` pages (must be even) according
  /// to `policy`.
  PairTable(const EnduranceMap& map, PairingPolicy policy,
            std::uint64_t seed = 0);

  /// Explicit matching (tests). partner[partner[x]] == x must hold.
  explicit PairTable(std::vector<std::uint32_t> partner);

  [[nodiscard]] PhysicalPageAddr partner(PhysicalPageAddr pa) const {
    return PhysicalPageAddr(partner_[pa.value()]);
  }

  [[nodiscard]] std::uint64_t pages() const { return partner_.size(); }
  [[nodiscard]] PairingPolicy policy() const { return policy_; }

  /// Involution check: every page's partner's partner is itself, and no
  /// page is its own partner.
  [[nodiscard]] bool is_perfect_matching() const;

 private:
  std::vector<std::uint32_t> partner_;
  PairingPolicy policy_ = PairingPolicy::kAdjacent;
};

}  // namespace twl
