// Server directory: maps zone apexes to the endpoints serving them.
//
// This abstracts IP addressing: a real resolver learns nameserver *hosts*
// from referrals and resolves them to addresses; here the referral records
// still flow on the wire (and missing glue still costs visible A/AAAA
// lookups, accounted by the resolver), but the final "connect to the server
// for zone X" step is a directory lookup.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "dns/name.h"
#include "dns/name_map.h"
#include "sim/network.h"

namespace lookaside::server {

/// The endpoints serving one apex in consultation order: a view of the
/// registered list, or the fallback hook's single endpoint held inline. It
/// allocates nothing and stays valid until the apex is re-registered.
class AuthorityList {
 public:
  AuthorityList() = default;
  explicit AuthorityList(std::span<sim::Endpoint* const> registered)
      : registered_(registered) {}
  explicit AuthorityList(sim::Endpoint* fallback) : fallback_(fallback) {}

  [[nodiscard]] sim::Endpoint* const* begin() const {
    return registered_.empty() ? &fallback_ : registered_.data();
  }
  [[nodiscard]] sim::Endpoint* const* end() const { return begin() + size(); }
  [[nodiscard]] std::size_t size() const {
    return registered_.empty() ? (fallback_ != nullptr ? 1 : 0)
                               : registered_.size();
  }
  [[nodiscard]] bool empty() const { return size() == 0; }

 private:
  std::span<sim::Endpoint* const> registered_;
  sim::Endpoint* fallback_ = nullptr;
};

/// Registry of authoritative endpoints by zone apex. A zone may have
/// several endpoints (a primary plus failover replicas, like a real NS
/// set); single-endpoint callers always get the primary.
class ServerDirectory {
 public:
  /// Registers `endpoint` as authoritative for `apex` (replacing any
  /// previous registration, including replicas).
  void register_zone(const dns::Name& apex,
                     std::shared_ptr<sim::Endpoint> endpoint);

  /// Appends a failover replica for `apex` (kept after the primary in
  /// consultation order). The apex must already be registered.
  void add_zone_replica(const dns::Name& apex,
                        std::shared_ptr<sim::Endpoint> endpoint);

  /// Primary endpoint for exactly `apex`, or nullptr. When a fallback is
  /// installed it is consulted for apexes with no explicit registration
  /// (this is how the synthetic million-domain universe serves SLD zones
  /// without materializing a million registrations).
  [[nodiscard]] sim::Endpoint* authority_for_zone(const dns::Name& apex) const;

  /// Every endpoint serving `apex` in consultation order (primary first,
  /// then replicas); falls back to the fallback hook's single endpoint.
  /// Empty when the apex is unknown.
  [[nodiscard]] AuthorityList authorities_for_zone(
      const dns::Name& apex) const;

  /// Installs the fallback hook; it may return nullptr to decline.
  void set_fallback(std::function<sim::Endpoint*(const dns::Name&)> fallback) {
    fallback_ = std::move(fallback);
  }

  /// Endpoint serving the deepest registered zone enclosing `qname`
  /// (at most `max_labels` labels deep); the root must be registered.
  /// Outputs the matched apex through `matched_apex` when non-null.
  [[nodiscard]] sim::Endpoint* deepest_authority(
      const dns::Name& qname, dns::Name* matched_apex = nullptr) const;

  [[nodiscard]] std::size_t zone_count() const { return zones_.size(); }

 private:
  /// One apex's registration: the owning handles, and the same endpoints
  /// as raw pointers for AuthorityList views.
  struct Zone {
    std::vector<std::shared_ptr<sim::Endpoint>> owned;
    std::vector<sim::Endpoint*> endpoints;
  };
  // Apex lookups are exact-name probes (and a suffix walk for
  // deepest_authority), so a hash map on the memoized name hash serves
  // them without canonical-order label compares.
  dns::NameHashMap<Zone> zones_;
  std::function<sim::Endpoint*(const dns::Name&)> fallback_;
};

}  // namespace lookaside::server
