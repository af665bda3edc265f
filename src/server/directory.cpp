#include "server/directory.h"

namespace lookaside::server {

void ServerDirectory::register_zone(const dns::Name& apex,
                                    std::shared_ptr<sim::Endpoint> endpoint) {
  Zone& zone = zones_.get_or_insert(apex);
  zone.endpoints = {endpoint.get()};
  zone.owned = {std::move(endpoint)};
}

void ServerDirectory::add_zone_replica(const dns::Name& apex,
                                       std::shared_ptr<sim::Endpoint> endpoint) {
  Zone* zone = zones_.find(apex);
  if (zone == nullptr) return;  // replicas require a registered primary
  zone->endpoints.push_back(endpoint.get());
  zone->owned.push_back(std::move(endpoint));
}

sim::Endpoint* ServerDirectory::authority_for_zone(
    const dns::Name& apex) const {
  const Zone* zone = zones_.find(apex);
  if (zone != nullptr && !zone->endpoints.empty()) {
    return zone->endpoints.front();
  }
  return fallback_ ? fallback_(apex) : nullptr;
}

AuthorityList ServerDirectory::authorities_for_zone(
    const dns::Name& apex) const {
  if (const Zone* zone = zones_.find(apex)) {
    return AuthorityList(std::span<sim::Endpoint* const>(zone->endpoints));
  }
  return AuthorityList(fallback_ ? fallback_(apex) : nullptr);
}

sim::Endpoint* ServerDirectory::deepest_authority(
    const dns::Name& qname, dns::Name* matched_apex) const {
  // Walk suffixes of qname from deepest to the root.
  dns::Name candidate = qname;
  for (;;) {
    const Zone* zone = zones_.find(candidate);
    if (zone != nullptr && !zone->endpoints.empty()) {
      if (matched_apex != nullptr) *matched_apex = candidate;
      return zone->endpoints.front();
    }
    if (candidate.is_root()) return nullptr;
    candidate = candidate.parent();
  }
}

}  // namespace lookaside::server
