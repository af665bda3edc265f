// The synthetic Alexa-like domain universe.
//
// Replaces the paper's Alexa top-1M list (the list itself is gone; the
// paper's findings depend on *rates*, not specific names). The universe maps
// a rank (1-based, "popularity") to a deterministic domain name and a
// deployment profile:
//
//   - TLD drawn from a popularity mix approximating Alexa's;
//   - whether the SLD is DNSSEC-signed, and if signed, whether its DS made
//     it into the parent (no DS => island of security, paper §2.3);
//   - whether the owner deposited a DLV record (rank-biased: the paper's
//     §5.3 found ~12% of the top-10k received "No error" while DNSSEC
//     deployment overall was ~3%, so deposits skew popular);
//   - nameserver placement: in-bailiwick (glue served by the TLD) or one of
//     a pool of out-of-bailiwick hosting providers (forces visible A
//     lookups — part of Table 4's A-query mix).
//
// The rank is embedded in the name label so synthetic authorities can
// recover the profile from a query name without any reverse index.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dns/name.h"

namespace lookaside::workload {

/// Universe tuning knobs; defaults reproduce the paper's aggregate rates
/// (see DESIGN.md "Calibrated model constants").
struct UniverseOptions {
  std::uint64_t seed = 42;
  std::uint64_t size = 1'000'000;  // total ranks

  /// P(chained to root | rank) — signed with DS in parent. ~2% flat.
  double chain_secure_probability = 0.02;

  /// Deposit model: each TLD has a "top" rate (applied up to
  /// `deposit_top_band` ranks, driving §5.3's Case-1 utility) and a "tail"
  /// rate (beyond `deposit_tail_band`, driving the DLV zone's NSEC gap
  /// density and hence Fig. 9's decay); the rates log-interpolate in
  /// between. These scales multiply the built-in per-TLD table. Deposited
  /// domains are signed islands (signed, no DS in parent, DS in the DLV
  /// registry).
  double deposit_top_scale = 1.0;
  double deposit_tail_scale = 1.0;
  std::uint64_t deposit_top_band = 10'000;
  std::uint64_t deposit_tail_band = 100'000;

  /// Extra islands that never deposited anywhere (signed, no DS, no DLV).
  double orphan_island_probability = 0.01;

  /// P(nameservers in-bailiwick, glue served by the TLD).
  double glue_probability = 0.40;

  /// Number of distinct out-of-bailiwick hosting providers.
  std::uint64_t provider_count = 2000;
};

/// Everything the simulator needs to know about one domain.
struct DomainInfo {
  std::uint64_t rank = 0;
  dns::Name name;
  std::string tld;
  bool dnssec_signed = false;
  bool ds_in_parent = false;   // chained to root
  bool dlv_deposited = false;  // island with a DLV record
  bool glue = false;           // in-bailiwick nameservers
  std::uint64_t provider = 0;  // meaningful when !glue
};

/// Deterministic rank -> domain mapping.
class Universe {
 public:
  explicit Universe(UniverseOptions options);

  [[nodiscard]] const UniverseOptions& options() const { return options_; }
  [[nodiscard]] std::uint64_t size() const { return options_.size; }

  /// Domain profile at `rank` (1-based; rank must be in [1, size]).
  [[nodiscard]] DomainInfo info(std::uint64_t rank) const;

  /// Just the name at `rank` (cheaper than info()).
  [[nodiscard]] dns::Name domain_at(std::uint64_t rank) const;

  /// Recovers the rank from a universe domain name (or its subdomain);
  /// nullopt if the name was not generated by this universe.
  [[nodiscard]] std::optional<std::uint64_t> rank_of(
      const dns::Name& name) const;

  /// Profile for a universe name; nullopt for foreign names.
  [[nodiscard]] std::optional<DomainInfo> info_by_name(
      const dns::Name& name) const;

  /// Name of an out-of-bailiwick provider nameserver host
  /// ("ns1.hostprov<k>.net").
  [[nodiscard]] dns::Name provider_ns_host(std::uint64_t provider) const;

  /// True when `name` is one of the provider SLDs ("hostprov<k>.net").
  [[nodiscard]] std::optional<std::uint64_t> provider_of(
      const dns::Name& name) const;

  /// The TLD strings the universe uses, most popular first.
  [[nodiscard]] const std::vector<std::string>& tlds() const { return tlds_; }

 private:
  /// info() for a caller that already holds domain_at(rank).
  [[nodiscard]] DomainInfo info_named(std::uint64_t rank, dns::Name name) const;

  [[nodiscard]] std::uint64_t mix(std::uint64_t rank,
                                  std::uint64_t salt) const;
  [[nodiscard]] double unit(std::uint64_t rank, std::uint64_t salt) const;
  [[nodiscard]] const std::string& tld_for(std::uint64_t rank) const;
  [[nodiscard]] double deposit_probability(std::uint64_t rank,
                                           const std::string& tld) const;

  UniverseOptions options_;
  std::vector<std::string> tlds_;
  std::vector<double> tld_cumulative_;
};

}  // namespace lookaside::workload
