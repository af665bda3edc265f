#include "zone/zone.h"

#include <stdexcept>

namespace lookaside::zone {

Zone::Zone(dns::Name apex, dns::SoaRdata soa, std::uint32_t soa_ttl)
    : apex_(std::move(apex)), soa_(std::move(soa)) {
  add(dns::ResourceRecord::make(apex_, soa_ttl, soa_));
}

Zone::Zone(const Zone& other)
    : apex_(other.apex_), soa_(other.soa_), names_(other.names_) {
  rebuild_index();
}

Zone& Zone::operator=(const Zone& other) {
  if (this != &other) {
    apex_ = other.apex_;
    soa_ = other.soa_;
    names_ = other.names_;
    rebuild_index();
  }
  return *this;
}

void Zone::index_node(Node* node) {
  const std::size_t mask = index_.size() - 1;
  std::size_t i = node->first.hash() & mask;
  while (index_[i] != nullptr) i = (i + 1) & mask;
  index_[i] = node;
}

void Zone::rebuild_index() {
  std::size_t capacity = 16;
  while (capacity < 2 * names_.size()) capacity *= 2;
  index_.assign(capacity, nullptr);
  for (Node& node : names_) index_node(&node);
}

Zone::TypeMap* Zone::types_of(const dns::Name& name) const {
  if (index_.empty()) return nullptr;  // moved-from
  const std::size_t mask = index_.size() - 1;
  for (std::size_t i = name.hash() & mask;; i = (i + 1) & mask) {
    Node* node = index_[i];
    if (node == nullptr) return nullptr;
    if (node->first == name) return &node->second;
  }
}

void Zone::add(dns::ResourceRecord record) {
  if (!record.name.is_subdomain_of(apex_)) {
    throw std::invalid_argument("record " + record.name.to_text() +
                                " outside zone " + apex_.to_text());
  }
  TypeMap* types = types_of(record.name);
  if (types == nullptr) {
    Node* node = &*names_.try_emplace(record.name).first;
    if (2 * names_.size() > index_.size()) {
      rebuild_index();
    } else {
      index_node(node);
    }
    types = &node->second;
  }
  auto [it, inserted] = types->try_emplace(
      record.type, dns::RRset(record.name, record.type));
  it->second.add(std::move(record));
}

const dns::RRset& Zone::soa_rrset() const {
  return *find(apex_, dns::RRType::kSoa);
}

bool Zone::has_name(const dns::Name& name) const {
  return types_of(name) != nullptr;
}

const dns::RRset* Zone::find(const dns::Name& name, dns::RRType type) const {
  const TypeMap* types = types_of(name);
  if (types == nullptr) return nullptr;
  const auto type_it = types->find(type);
  return type_it == types->end() ? nullptr : &type_it->second;
}

LookupResult Zone::lookup(const dns::Name& qname, dns::RRType qtype) const {
  LookupResult result;
  if (!qname.is_subdomain_of(apex_)) {
    result.kind = LookupKind::kNxDomain;
    return result;
  }

  // Check for a zone cut between the apex (exclusive) and qname (inclusive):
  // walk ancestors top-down and stop at the first delegation.
  const std::size_t extra_labels = qname.label_count() - apex_.label_count();
  for (std::size_t depth = 1; depth <= extra_labels; ++depth) {
    // Ancestor with `depth` labels below the apex.
    dns::Name ancestor = qname;
    for (std::size_t strip = extra_labels - depth; strip > 0; --strip) {
      ancestor = ancestor.parent();
    }
    const dns::RRset* ns = find(ancestor, dns::RRType::kNs);
    if (ns != nullptr && !(ancestor == qname && depth == 0)) {
      // Delegation cut — unless the cut owner is the apex (handled above by
      // depth starting at 1). A referral applies even when qname == cut,
      // except when the query asks for DS (the parent is authoritative for
      // DS at the cut).
      if (!(ancestor == qname && qtype == dns::RRType::kDs)) {
        result.kind = LookupKind::kReferral;
        result.rrset = ns;
        result.cut = ancestor;
        result.ds = find(ancestor, dns::RRType::kDs);
        return result;
      }
    }
  }

  const TypeMap* types = types_of(qname);
  if (types == nullptr) {
    result.kind = LookupKind::kNxDomain;
    return result;
  }
  const auto type_it = types->find(qtype);
  if (type_it != types->end()) {
    result.kind = LookupKind::kAnswer;
    result.rrset = &type_it->second;
    return result;
  }
  // CNAME at qname answers any type (the resolver chases it).
  const auto cname_it = types->find(dns::RRType::kCname);
  if (cname_it != types->end() && qtype != dns::RRType::kCname) {
    result.kind = LookupKind::kAnswer;
    result.rrset = &cname_it->second;
    return result;
  }
  result.kind = LookupKind::kNoData;
  return result;
}

const dns::Name& Zone::canonical_predecessor(const dns::Name& qname) const {
  auto it = names_.upper_bound(qname);
  if (it == names_.begin()) return apex_;  // should not happen inside zone
  --it;
  return it->first;
}

const dns::Name& Zone::canonical_successor(const dns::Name& name) const {
  auto it = names_.upper_bound(name);
  if (it == names_.end()) return names_.begin()->first;  // wrap to apex
  return it->first;
}

std::vector<dns::RRType> Zone::types_at(const dns::Name& name) const {
  std::vector<dns::RRType> out;
  const TypeMap* types = types_of(name);
  if (types == nullptr) return out;
  out.reserve(types->size());
  for (const auto& [type, rrset] : *types) out.push_back(type);
  return out;
}

std::vector<dns::Name> Zone::owner_names() const {
  std::vector<dns::Name> out;
  out.reserve(names_.size());
  for (const auto& [name, types] : names_) out.push_back(name);
  return out;
}

}  // namespace lookaside::zone
