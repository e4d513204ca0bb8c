#include "wl/factory.h"

#include <algorithm>
#include <cctype>
#include <optional>
#include <stdexcept>
#include <vector>

#include "common/names.h"
#include "wl/attack_guard.h"
#include "wl/bloom_wl.h"
#include "wl/ftl.h"
#include "wl/no_wl.h"
#include "wl/od3p.h"
#include "wl/rbsg.h"
#include "wl/security_refresh.h"
#include "wl/start_gap.h"
#include "wl/tossup_wl.h"
#include "wl/wear_rate_leveling.h"

namespace twl {

std::string to_string(Scheme s) {
  switch (s) {
    case Scheme::kNoWl:
      return "NOWL";
    case Scheme::kStartGap:
      return "StartGap";
    case Scheme::kRbsg:
      return "RBSG";
    case Scheme::kSecurityRefresh:
      return "SR";
    case Scheme::kWearRateLeveling:
      return "WRL";
    case Scheme::kBloomWl:
      return "BWL";
    case Scheme::kTossUpAdjacent:
      return "TWL_ap";
    case Scheme::kTossUpStrongWeak:
      return "TWL_swp";
    case Scheme::kTossUpRandomPair:
      return "TWL_rnd";
    case Scheme::kFtl:
      return "FTL";
  }
  return "unknown";
}

const std::string& valid_scheme_names() {
  static const std::string names =
      "NOWL, none, StartGap, start-gap, RBSG, SR, WRL, BWL, TWL, TWL_ap, "
      "TWL_swp, TWL_rnd, FTL";
  return names;
}

Scheme parse_scheme(const std::string& name) {
  std::string lower(name);
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (lower == "nowl" || lower == "none") return Scheme::kNoWl;
  if (lower == "startgap" || lower == "start-gap") return Scheme::kStartGap;
  if (lower == "rbsg") return Scheme::kRbsg;
  if (lower == "sr") return Scheme::kSecurityRefresh;
  if (lower == "wrl") return Scheme::kWearRateLeveling;
  if (lower == "bwl") return Scheme::kBloomWl;
  if (lower == "twl_ap") return Scheme::kTossUpAdjacent;
  if (lower == "twl" || lower == "twl_swp") return Scheme::kTossUpStrongWeak;
  if (lower == "twl_rnd") return Scheme::kTossUpRandomPair;
  if (lower == "ftl") return Scheme::kFtl;
  throw_unknown_name("wear-leveling scheme", name, valid_scheme_names(),
                     "specs may be prefixed with 'guard:' and/or 'od3p:'");
}

std::vector<Scheme> all_schemes() {
  return {Scheme::kBloomWl,          Scheme::kSecurityRefresh,
          Scheme::kWearRateLeveling, Scheme::kStartGap, Scheme::kRbsg,
          Scheme::kTossUpAdjacent,   Scheme::kTossUpStrongWeak,
          Scheme::kTossUpRandomPair, Scheme::kNoWl};
}

namespace {

/// With a retirement spare pool configured, the scheme only manages the
/// non-spare prefix of the device; the controller's RetirementTable owns
/// the spares. Returns the truncated map (empty optional when no
/// truncation is needed).
std::optional<EnduranceMap> pool_view(const EnduranceMap& endurance,
                                      const Config& config) {
  const std::uint32_t spares = config.fault.spare_pages;
  if (spares == 0 || spares >= endurance.pages()) return std::nullopt;
  const auto& v = endurance.values();
  return EnduranceMap(std::vector<std::uint64_t>(v.begin(), v.end() - spares));
}

}  // namespace

std::unique_ptr<WearLeveler> make_wear_leveler(Scheme scheme,
                                               const EnduranceMap& endurance,
                                               const Config& config) {
  if (auto pool = pool_view(endurance, config)) {
    Config pool_config = config;
    pool_config.fault.spare_pages = 0;
    return make_wear_leveler(scheme, *pool, pool_config);
  }
  switch (scheme) {
    case Scheme::kNoWl:
      return std::make_unique<NoWl>(endurance.pages());
    case Scheme::kStartGap:
      return std::make_unique<StartGap>(endurance.pages(), config.start_gap);
    case Scheme::kRbsg:
      return std::make_unique<RbsgWl>(endurance.pages(), config.rbsg,
                                      config.seed);
    case Scheme::kSecurityRefresh:
      return std::make_unique<SecurityRefresh>(endurance.pages(), config.sr,
                                               config.seed);
    case Scheme::kWearRateLeveling:
      return std::make_unique<WearRateLeveling>(
          endurance, config.wrl, config.endurance.table_bits);
    case Scheme::kBloomWl:
      return std::make_unique<BloomWl>(endurance, config.bwl,
                                       config.endurance.table_bits,
                                       config.seed);
    case Scheme::kTossUpAdjacent:
    case Scheme::kTossUpStrongWeak:
    case Scheme::kTossUpRandomPair: {
      TwlParams params = config.twl;
      params.pairing = scheme == Scheme::kTossUpAdjacent
                           ? PairingPolicy::kAdjacent
                           : (scheme == Scheme::kTossUpRandomPair
                                  ? PairingPolicy::kRandom
                                  : PairingPolicy::kStrongWeak);
      return std::make_unique<TossUpWl>(endurance, params,
                                        config.wl_latencies,
                                        config.endurance.table_bits,
                                        config.seed);
    }
    case Scheme::kFtl:
      if (config.device.backend != DeviceBackend::kNor) {
        throw std::invalid_argument(
            "scheme FTL requires the NOR-flash backend (pass --device nor)");
      }
      return std::make_unique<FtlWl>(endurance.pages(),
                                     config.device.nor.pages_per_block,
                                     config.wl_latencies);
  }
  throw std::invalid_argument("unhandled scheme");
}

std::unique_ptr<WearLeveler> make_wear_leveler_spec(
    const std::string& spec, const EnduranceMap& endurance,
    const Config& config) {
  if (auto pool = pool_view(endurance, config)) {
    Config pool_config = config;
    pool_config.fault.spare_pages = 0;
    return make_wear_leveler_spec(spec, *pool, pool_config);
  }
  std::string lower(spec);
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (lower.rfind("guard:", 0) == 0) {
    return std::make_unique<AttackGuard>(
        make_wear_leveler_spec(spec.substr(6), endurance, config),
        AttackGuardParams{}, config.seed);
  }
  if (lower.rfind("od3p:", 0) == 0) {
    return std::make_unique<Od3pWrapper>(
        make_wear_leveler_spec(spec.substr(5), endurance, config),
        endurance);
  }
  return make_wear_leveler(parse_scheme(spec), endurance, config);
}

}  // namespace twl
