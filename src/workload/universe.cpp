#include "workload/universe.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "crypto/rng.h"

namespace lookaside::workload {

namespace {

// Approximate Alexa TLD mix (share of ranked sites).
struct TldShare {
  const char* tld;
  double share;
};
constexpr TldShare kTldMix[] = {
    {"com", 0.52}, {"net", 0.13}, {"org", 0.10}, {"ru", 0.05},
    {"de", 0.04},  {"jp", 0.03},  {"uk", 0.03},  {"br", 0.02},
    {"info", 0.02}, {"fr", 0.015}, {"it", 0.015}, {"nl", 0.01},
    {"pl", 0.01},  {"in", 0.01},  {"cn", 0.01},  {"edu", 0.01},
};

// DLV adoption skew across TLDs: per-TLD (top-rank rate, tail rate).
//
// The tail deposit density varies by orders of magnitude between TLDs,
// which is what makes Fig. 9's decay log-linear: a DLV-zone region with
// almost no deposits is covered by a handful of NSEC ranges (its queries
// aggregate after the first few hit the cache), while a dense region keeps
// producing fresh ranges until N is large. The suppression crossover for a
// TLD sits near share_tld * N ~ gap count, so spreading gap counts across
// decades spreads crossovers across decades of N.
struct DepositRates {
  double top;
  double tail;
};
DepositRates tld_deposit_rates(const std::string& tld) {
  if (tld == "com") return {0.14, 0.10};          // dense: suppresses last
  if (tld == "net" || tld == "org") return {0.10, 0.010};
  if (tld == "de") return {0.010, 0.0008};
  if (tld == "ru") return {0.008, 0.0004};
  return {0.002, 0.00005};  // minor TLDs: a few ranges cover everything early
}

std::string base36(std::uint64_t value) {
  static constexpr char kDigits[] = "0123456789abcdefghijklmnopqrstuvwxyz";
  if (value == 0) return "0";
  std::string out;
  while (value != 0) {
    out.push_back(kDigits[value % 36]);
    value /= 36;
  }
  return {out.rbegin(), out.rend()};
}

std::optional<std::uint64_t> parse_base36(std::string_view text) {
  std::uint64_t value = 0;
  if (text.empty()) return std::nullopt;
  for (char c : text) {
    int digit;
    if (c >= '0' && c <= '9') digit = c - '0';
    else if (c >= 'a' && c <= 'z') digit = c - 'a' + 10;
    else return std::nullopt;
    value = value * 36 + static_cast<std::uint64_t>(digit);
  }
  return value;
}

constexpr std::string_view kDomainPrefix = "site-";
constexpr std::string_view kProviderPrefix = "hostprov";

}  // namespace

Universe::Universe(UniverseOptions options) : options_(options) {
  double cumulative = 0;
  for (const TldShare& entry : kTldMix) {
    tlds_.emplace_back(entry.tld);
    cumulative += entry.share;
    tld_cumulative_.push_back(cumulative);
  }
  // Normalize the last bucket to 1.0 so every rank lands somewhere.
  tld_cumulative_.back() = 1.0;
}

std::uint64_t Universe::mix(std::uint64_t rank, std::uint64_t salt) const {
  return crypto::derive_seed(options_.seed ^ (salt * 0x9e3779b97f4a7c15ULL),
                             rank);
}

double Universe::unit(std::uint64_t rank, std::uint64_t salt) const {
  return static_cast<double>(mix(rank, salt) >> 11) * 0x1.0p-53;
}

const std::string& Universe::tld_for(std::uint64_t rank) const {
  const double u = unit(rank, 1);
  for (std::size_t i = 0; i < tld_cumulative_.size(); ++i) {
    if (u < tld_cumulative_[i]) return tlds_[i];
  }
  return tlds_.back();
}

dns::Name Universe::domain_at(std::uint64_t rank) const {
  if (rank == 0 || rank > options_.size) {
    throw std::invalid_argument("rank outside universe");
  }
  // Label: "site-<rank36>-<2 hash chars>" — rank recoverable, names vary.
  const std::uint64_t h = mix(rank, 2);
  std::string label(kDomainPrefix);
  label += base36(rank);
  label += '-';
  label += static_cast<char>('a' + h % 26);
  label += static_cast<char>('a' + (h / 26) % 26);
  return dns::Name::parse(label + "." + tld_for(rank));
}

std::optional<std::uint64_t> Universe::rank_of(const dns::Name& name) const {
  if (name.label_count() < 2) return std::nullopt;
  // The SLD label is the second-from-last.
  const std::string_view label = name.label(name.label_count() - 2);
  if (label.substr(0, kDomainPrefix.size()) != kDomainPrefix) {
    return std::nullopt;
  }
  const std::string_view tail = label.substr(kDomainPrefix.size());
  const std::size_t dash = tail.rfind('-');
  if (dash == std::string_view::npos) return std::nullopt;
  const auto rank = parse_base36(tail.substr(0, dash));
  if (!rank.has_value() || *rank == 0 || *rank > options_.size) {
    return std::nullopt;
  }
  // Verify the canonical rank spelling, the checksum characters and the
  // TLD (everything domain_at would write) so foreign names are rejected.
  const std::uint64_t h = mix(*rank, 2);
  const std::string_view checksum = tail.substr(dash + 1);
  if (tail.substr(0, dash) != base36(*rank) || checksum.size() != 2 ||
      checksum[0] != static_cast<char>('a' + h % 26) ||
      checksum[1] != static_cast<char>('a' + (h / 26) % 26) ||
      name.label(name.label_count() - 1) != tld_for(*rank)) {
    return std::nullopt;
  }
  return rank;
}

double Universe::deposit_probability(std::uint64_t rank,
                                     const std::string& tld) const {
  const DepositRates rates = tld_deposit_rates(tld);
  const double top = rates.top * options_.deposit_top_scale;
  const double tail = rates.tail * options_.deposit_tail_scale;
  const std::uint64_t top_band =
      std::min(options_.deposit_top_band, options_.size);
  const std::uint64_t tail_band =
      std::max(options_.deposit_tail_band, top_band + 1);
  double p;
  if (rank <= top_band) {
    p = top;
  } else if (rank >= tail_band) {
    p = tail;
  } else {
    // Log-space interpolation between the bands.
    const double t = (std::log10(static_cast<double>(rank)) -
                      std::log10(static_cast<double>(top_band))) /
                     (std::log10(static_cast<double>(tail_band)) -
                      std::log10(static_cast<double>(top_band)));
    p = top + t * (tail - top);
  }
  return std::clamp(p, 0.0, 1.0);
}

DomainInfo Universe::info(std::uint64_t rank) const {
  return info_named(rank, domain_at(rank));
}

DomainInfo Universe::info_named(std::uint64_t rank, dns::Name name) const {
  DomainInfo out;
  out.rank = rank;
  out.name = std::move(name);
  out.tld = tld_for(rank);

  const double roll = unit(rank, 3);
  const double p_chain = options_.chain_secure_probability;
  const double p_deposit = deposit_probability(rank, out.tld);
  const double p_orphan = options_.orphan_island_probability;
  if (roll < p_chain) {
    out.dnssec_signed = true;
    out.ds_in_parent = true;
  } else if (roll < p_chain + p_deposit) {
    out.dnssec_signed = true;
    out.dlv_deposited = true;  // island with a DLV record
  } else if (roll < p_chain + p_deposit + p_orphan) {
    out.dnssec_signed = true;  // orphan island
  }

  out.glue = unit(rank, 4) < options_.glue_probability;
  out.provider = mix(rank, 5) % std::max<std::uint64_t>(1, options_.provider_count);
  return out;
}

std::optional<DomainInfo> Universe::info_by_name(const dns::Name& name) const {
  const auto rank = rank_of(name);
  if (!rank.has_value()) return std::nullopt;
  // rank_of checked the last two labels; a two-label name is then exactly
  // domain_at(*rank), so it is reused instead of rebuilt.
  if (name.label_count() == 2) return info_named(*rank, name);
  return info(*rank);
}

dns::Name Universe::provider_ns_host(std::uint64_t provider) const {
  return dns::Name::parse("ns1." + std::string(kProviderPrefix) +
                          base36(provider) + ".net");
}

std::optional<std::uint64_t> Universe::provider_of(
    const dns::Name& name) const {
  if (name.label_count() < 2) return std::nullopt;
  const std::string_view label = name.label(name.label_count() - 2);
  if (label.substr(0, kProviderPrefix.size()) != kProviderPrefix) {
    return std::nullopt;
  }
  if (name.label(name.label_count() - 1) != "net") return std::nullopt;
  const auto provider = parse_base36(label.substr(kProviderPrefix.size()));
  if (!provider.has_value() || *provider >= options_.provider_count) {
    return std::nullopt;
  }
  return provider;
}

}  // namespace lookaside::workload
