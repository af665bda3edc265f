// Authoritative zone data: RRsets keyed by (name, type), with the lookup
// semantics an authoritative server needs (answers, referrals at zone cuts,
// NXDOMAIN/NODATA with NSEC neighbors).
//
// Owner names live in one std::map in RFC 4034 canonical order; only the
// NSEC neighbor queries (canonical_predecessor/successor) and owner_names()
// walk it. Exact-match lookups (find, has_name, lookup, types_at,
// soa_rrset) go through an open-addressed hash index of pointers to the
// map's pointer-stable nodes, keyed by the memoized Name::hash(), so they
// cost one probe instead of a tree descent of canonical compares. The
// index holds no name of its own; copying a zone rebuilds it against the
// copy's nodes (DESIGN.md §4n).
#pragma once

#include <map>
#include <vector>

#include "dns/name.h"
#include "dns/record.h"

namespace lookaside::zone {

/// Lookup outcome categories (pre-DNSSEC; the signed layer adds proofs).
enum class LookupKind {
  kAnswer,    // RRsets for (qname, qtype) or a CNAME at qname
  kReferral,  // delegation NS found below the apex
  kNoData,    // qname exists, qtype does not
  kNxDomain,  // qname does not exist
};

/// Result of Zone::lookup.
struct LookupResult {
  LookupKind kind = LookupKind::kNxDomain;
  /// kAnswer: the answer RRset (or CNAME). kReferral: the delegation NS set.
  const dns::RRset* rrset = nullptr;
  /// kReferral: the owner of the delegation (zone cut).
  dns::Name cut;
  /// kReferral: DS RRset at the cut if the child has one registered.
  const dns::RRset* ds = nullptr;
};

/// One DNS zone's contents. Names are stored in canonical order so NSEC
/// chains and denial proofs fall out of map navigation.
class Zone {
 public:
  /// Creates a zone rooted at `apex`; a SOA record is synthesized from
  /// `soa` and stored at the apex.
  Zone(dns::Name apex, dns::SoaRdata soa, std::uint32_t soa_ttl = 3600);

  /// A copy indexes its own nodes, never the source's.
  Zone(const Zone& other);
  Zone& operator=(const Zone& other);
  /// Moving keeps the nodes, so the index moves with them; a moved-from
  /// zone holds no names and may be assigned to.
  Zone(Zone&&) noexcept = default;
  Zone& operator=(Zone&&) noexcept = default;

  /// Adds a record; throws std::invalid_argument if the owner is outside
  /// the zone.
  void add(dns::ResourceRecord record);

  [[nodiscard]] const dns::Name& apex() const { return apex_; }
  [[nodiscard]] const dns::SoaRdata& soa() const { return soa_; }
  [[nodiscard]] const dns::RRset& soa_rrset() const;
  [[nodiscard]] std::uint32_t negative_ttl() const {
    return soa_.minimum_ttl;
  }

  /// True if any RRset exists at `name`.
  [[nodiscard]] bool has_name(const dns::Name& name) const;

  /// Exact-match RRset or nullptr.
  [[nodiscard]] const dns::RRset* find(const dns::Name& name,
                                       dns::RRType type) const;

  /// Full authoritative lookup with referral handling.
  [[nodiscard]] LookupResult lookup(const dns::Name& qname,
                                    dns::RRType qtype) const;

  /// Greatest existing owner name canonically <= `qname` (for NSEC denial).
  /// Falls back to the apex (names below the apex always have the apex as a
  /// canonical lower bound inside the zone).
  [[nodiscard]] const dns::Name& canonical_predecessor(
      const dns::Name& qname) const;

  /// Next existing owner name after `name` in canonical order, wrapping to
  /// the apex at the end of the zone (the NSEC chain closure).
  [[nodiscard]] const dns::Name& canonical_successor(
      const dns::Name& name) const;

  /// Types present at `name` (for NSEC type bitmaps); empty if absent.
  [[nodiscard]] std::vector<dns::RRType> types_at(const dns::Name& name) const;

  /// Number of distinct owner names.
  [[nodiscard]] std::size_t name_count() const { return names_.size(); }

  /// Owner names in canonical order (for tests and zone dumps).
  [[nodiscard]] std::vector<dns::Name> owner_names() const;

 private:
  using TypeMap = std::map<dns::RRType, dns::RRset>;
  using NameMap = std::map<dns::Name, TypeMap>;  // Name's < is canonical
  using Node = NameMap::value_type;

  /// The types stored at `name`, or nullptr: one hash-index probe.
  [[nodiscard]] TypeMap* types_of(const dns::Name& name) const;
  /// Places `node` in the index, which has a free slot.
  void index_node(Node* node);
  /// Sizes the index for names_ and fills it from names_' nodes.
  void rebuild_index();

  dns::Name apex_;
  dns::SoaRdata soa_;
  NameMap names_;
  // Linear-probed table of node pointers, a power of two at least twice
  // names_.size() (null = empty slot); nodes are never erased.
  std::vector<Node*> index_;
};

}  // namespace lookaside::zone
