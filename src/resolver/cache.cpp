#include "resolver/cache.h"

#include <algorithm>

#include "dns/rdata.h"
#include "obs/tracer.h"
#include "resolver/shared_store.h"
#include "zone/nsec3.h"

namespace lookaside::resolver {

namespace {

/// Slot for `type` in a per-name slot list, or nullptr.
template <typename V>
[[nodiscard]] std::pair<dns::RRType, V>* find_type(
    std::vector<std::pair<dns::RRType, V>>* slots, dns::RRType type) {
  if (slots == nullptr) return nullptr;
  for (auto& slot : *slots) {
    if (slot.first == type) return &slot;
  }
  return nullptr;
}

// Fixed per-entry overhead constants for the approximate accounting model
// (DESIGN.md §4f). They stand in for allocator/node/bookkeeping overhead and
// only need to be deterministic and roughly proportional to real footprint —
// eviction order and the leakage-under-pressure result depend on relative
// cost, not on matching malloc exactly.
constexpr std::size_t kNameOverhead = 32;     // Name object + text header
constexpr std::size_t kRecordOverhead = 48;   // ResourceRecord + rdata variant
constexpr std::size_t kPositiveOverhead = 96; // boxed entry + slot bookkeeping
constexpr std::size_t kNegativeOverhead = 24; // deadline + flags + slot
constexpr std::size_t kServfailOverhead = 16; // deadline + slot
constexpr std::size_t kNsecOverhead = 64;     // map node + entry fields
constexpr std::size_t kZoneCutOverhead = 16;  // deadline + slot

}  // namespace

// -- Byte accounting ---------------------------------------------------------

std::size_t ResolverCache::name_cost(const dns::Name& name) {
  return kNameOverhead + name.internal_text().size();
}

std::size_t ResolverCache::record_cost(const dns::ResourceRecord& r) {
  return kRecordOverhead + name_cost(r.name) + dns::rdata_wire_length(r.rdata);
}

std::size_t ResolverCache::positive_cost(const PositiveEntry& entry) {
  std::size_t cost = kPositiveOverhead + name_cost(entry.rrset.name());
  for (const auto& record : entry.rrset.records()) cost += record_cost(record);
  for (const auto& sig : entry.rrsigs) cost += record_cost(sig);
  return cost;
}

std::size_t ResolverCache::negative_cost(const dns::Name& name) {
  return kNegativeOverhead + name_cost(name);
}

std::size_t ResolverCache::servfail_cost(const dns::Name& name) {
  return kServfailOverhead + name_cost(name);
}

std::size_t ResolverCache::nsec_cost(const dns::Name& owner,
                                     const NsecEntry& entry) const {
  // entry.next is interned; the cost formula still charges for the full
  // name as if it were copied inline. Frozen deliberately: accounted cost
  // drives eviction order, which the PR-5 cap-sweep Case-2 series pins —
  // interning shrinks real memory (see arena_bytes()), not accounted bytes.
  return kNsecOverhead + name_cost(owner) + name_cost(arena_.name(entry.next)) +
         entry.types.size() * sizeof(dns::RRType);
}

std::size_t ResolverCache::zone_cut_cost(const dns::Name& apex) {
  return kZoneCutOverhead + name_cost(apex);
}

void ResolverCache::charge(std::size_t cost) {
  bytes_ += cost;
  if (bytes_ > peak_bytes_) peak_bytes_ = bytes_;
}

void ResolverCache::release(std::size_t cost) {
  bytes_ = cost <= bytes_ ? bytes_ - cost : 0;
}

const char* ResolverCache::section_name(Section section) {
  switch (section) {
    case kPositive: return "positive";
    case kNegative: return "negative";
    case kServfail: return "servfail";
    case kNsec: return "nsec";
    case kZoneCut: return "zone_cut";
    default: return "unknown";
  }
}

// -- Positive cache ----------------------------------------------------------

void ResolverCache::store(const dns::RRset& rrset, bool validated,
                          std::vector<dns::ResourceRecord> rrsigs) {
  if (rrset.empty()) return;
  auto entry = std::make_unique<PositiveEntry>();
  entry->rrset = rrset;
  entry->expires_us = ttl_to_deadline(now(), rrset.ttl());
  entry->validated = validated;
  entry->rrsigs = std::move(rrsigs);
  entry->cost = static_cast<std::uint32_t>(positive_cost(*entry));
  charge(entry->cost);
  PositiveSlots& slots = positive_.get_or_insert(rrset.name());
  if (auto* slot = find_type(&slots, rrset.type())) {
    release(slot->second->cost);
    slot->second = std::move(entry);
  } else {
    slots.emplace_back(rrset.type(), std::move(entry));
  }
}

const dns::RRset* ResolverCache::find(const dns::Name& name,
                                      dns::RRType type) {
  const auto entry = find_entry(name, type);
  return entry.has_value() ? entry->rrset : nullptr;
}

std::optional<ResolverCache::Entry> ResolverCache::find_entry(
    const dns::Name& name, dns::RRType type) {
  PositiveSlots* slots = positive_.find(name);
  auto* slot = find_type(slots, type);
  if (slot == nullptr || slot->second->expires_us <= now()) {
    if (slot != nullptr) {
      release(slot->second->cost);
      slots->erase(slots->begin() + (slot - slots->data()));
      if (slots->empty()) positive_.erase(name);
    }
    counters_.add("cache.miss");
    return std::nullopt;
  }
  counters_.add("cache.hit");
  PositiveEntry& entry = *slot->second;
  entry.referenced = true;
  return Entry{&entry.rrset, entry.validated, &entry.rrsigs};
}

const dns::RRset* ResolverCache::find_validated(const dns::Name& name,
                                                dns::RRType type) {
  const auto entry = find_entry(name, type);
  return entry.has_value() && entry->validated ? entry->rrset : nullptr;
}

void ResolverCache::mark_validated(const dns::Name& name, dns::RRType type) {
  if (auto* slot = find_type(positive_.find(name), type)) {
    slot->second->validated = true;
  }
}

// -- Negative cache ----------------------------------------------------------

void ResolverCache::store_negative(const dns::Name& name, dns::RRType type,
                                   std::uint32_t ttl, bool nxdomain) {
  auto& slots = negative_.get_or_insert(name);
  const NegativeRecord record{ttl_to_deadline(now(), ttl), nxdomain, false};
  if (auto* slot = find_type(&slots, type)) {
    slot->second = record;
  } else {
    charge(negative_cost(name));
    slots.emplace_back(type, record);
  }
}

NegativeEntry ResolverCache::negative_lookup(const dns::Name& name,
                                             dns::RRType type,
                                             std::uint64_t* expires_us) {
  auto* slots = negative_.find(name);
  if (slots == nullptr) return NegativeEntry::kNone;
  // One pass answers both questions and purges expired slots in place
  // (mirroring the positive path's erase-on-probe): an unexpired exact
  // (name, type) entry wins; failing that, any unexpired NXDOMAIN entry for
  // the name covers every type.
  const std::uint64_t now_us = now();
  bool nxdomain_hit = false;
  std::size_t write = 0;
  for (std::size_t read = 0; read < slots->size(); ++read) {
    auto& slot = (*slots)[read];
    if (slot.second.expires_us <= now_us) {
      release(negative_cost(name));
      continue;  // expired: drop by not copying it forward
    }
    if (slot.first == type) {
      slot.second.referenced = true;
      const bool nxdomain = slot.second.nxdomain;
      if (expires_us != nullptr) *expires_us = slot.second.expires_us;
      // Finish compacting before returning so the purge is not skipped.
      for (std::size_t rest = read; rest < slots->size(); ++rest) {
        auto& keep = (*slots)[rest];
        if (keep.second.expires_us <= now_us) {
          release(negative_cost(name));
          continue;
        }
        if (write != rest) (*slots)[write] = keep;
        ++write;
      }
      slots->resize(write);
      counters_.add("cache.negative_hit");
      return nxdomain ? NegativeEntry::kNxDomain : NegativeEntry::kNoData;
    }
    if (slot.second.nxdomain) {
      slot.second.referenced = true;
      nxdomain_hit = true;
      if (expires_us != nullptr) *expires_us = slot.second.expires_us;
    }
    if (write != read) (*slots)[write] = slot;
    ++write;
  }
  slots->resize(write);
  if (slots->empty()) negative_.erase(name);
  if (nxdomain_hit) {
    counters_.add("cache.negative_hit");
    return NegativeEntry::kNxDomain;
  }
  return NegativeEntry::kNone;
}

// -- SERVFAIL cache ----------------------------------------------------------

void ResolverCache::store_servfail(const dns::Name& name, dns::RRType type,
                                   std::uint32_t ttl) {
  auto& slots = servfail_.get_or_insert(name);
  const ServfailRecord record{ttl_to_deadline(now(), ttl), false};
  if (auto* slot = find_type(&slots, type)) {
    slot->second = record;
  } else {
    charge(servfail_cost(name));
    slots.emplace_back(type, record);
  }
  counters_.add("cache.servfail_store");
}

bool ResolverCache::find_servfail(const dns::Name& name, dns::RRType type) {
  auto* slots = servfail_.find(name);
  auto* slot = find_type(slots, type);
  if (slot == nullptr) return false;
  if (slot->second.expires_us <= now()) {
    release(servfail_cost(name));
    slots->erase(slots->begin() + (slot - slots->data()));
    if (slots->empty()) servfail_.erase(name);
    return false;
  }
  slot->second.referenced = true;
  counters_.add("cache.servfail_hit");
  return true;
}

// -- Aggressive NSEC cache ---------------------------------------------------

void ResolverCache::store_nsec(const dns::Name& zone_apex,
                               const dns::ResourceRecord& nsec_record) {
  const auto* nsec = std::get_if<dns::NsecRdata>(&nsec_record.rdata);
  if (nsec == nullptr) return;
  NsecEntry entry;
  entry.next = arena_.intern(nsec->next);
  entry.types = nsec->types;
  entry.expires_us = ttl_to_deadline(now(), nsec_record.ttl);
  entry.cost = static_cast<std::uint32_t>(nsec_cost(nsec_record.name, entry));
  charge(entry.cost);
  if (shared_ != nullptr) {
    // Write-through: sibling shards can then suppress the same denial
    // without their own registry round trip (and its Case-2 leak).
    shared_->store_nsec(zone_apex, nsec_record.name,
                        {nsec->next, entry.types, entry.expires_us,
                         shard_id_});
  }
  NsecZone& zone = nsec_by_zone_.get_or_insert(zone_apex);
  NsecEntry& slot = zone.chain[nsec_record.name];
  if (slot.cost != 0) {
    release(slot.cost);  // overwrite of an existing owner: no new node
  } else {
    ++zone.generation;  // structural insert invalidates the span index
  }
  slot = std::move(entry);
}

void ResolverCache::rebuild_span_index(NsecZone& zone) {
  zone.index.clear();
  zone.index.reserve(zone.chain.size());
  // std::map iterates in canonical order, so the array is born sorted;
  // map nodes are pointer-stable, so the pointers outlive rehash-free use.
  for (auto& node : zone.chain) zone.index.push_back(&node);
  zone.index_generation = zone.generation;
}

NsecCoverage classify_nsec_span(const dns::Name& zone_apex,
                                const dns::Name& owner,
                                const dns::Name& next,
                                const std::vector<dns::RRType>& types,
                                const dns::Name& qname, dns::RRType qtype,
                                bool* type_present) {
  const auto has = [&types](dns::RRType type) {
    return std::find(types.begin(), types.end(), type) != types.end();
  };
  // NS set, SOA clear: the owner is a delegation point, so this NSEC lives
  // on the parent side of a zone cut.
  const auto delegation = [&has] {
    return has(dns::RRType::kNs) && !has(dns::RRType::kSoa);
  };

  if (owner == qname) {
    // RFC 6840 §4.4: an ancestor-delegation NSEC proves nothing about the
    // child zone's data except DS absence. Denying any other type from it
    // would synthesize NODATA for names the child zone actually serves.
    // The mirror image (RFC 4035 §2.3): DS lives only on the parent side
    // of a cut, so a child-side NSEC (SOA set) proves nothing about DS —
    // its bitmap legitimately omits DS even for a secure delegation.
    if (delegation() != (qtype == dns::RRType::kDs)) {
      return NsecCoverage::kNoProof;
    }
    // Exact NSEC: the name exists; the bitmap decides the type.
    if (!has(qtype)) return NsecCoverage::kTypeAbsent;
    if (type_present != nullptr) *type_present = true;
    return NsecCoverage::kNoProof;
  }

  // Covering NSEC: owner < qname < next proves nonexistence. The chain's
  // last record wraps: next == apex means "everything after owner".
  if (next != zone_apex && qname.canonical_compare(next) >= 0) {
    return NsecCoverage::kNoProof;
  }
  // RFC 6840 §4.4 again: names below a delegation-owner NSEC are occluded
  // — the span (net. -> org.) proves nothing about anything *inside* the
  // net. zone, only that no further names exist in the parent between the
  // two delegations. Without this, a cap-evicted zone cut makes
  // deepest_known_cut fall back to the parent and its delegation spans
  // wrongly NXDOMAIN every child-zone query.
  if (qname.is_subdomain_of(owner) && delegation()) {
    return NsecCoverage::kNoProof;
  }
  return NsecCoverage::kNameCovered;
}

NsecCoverage ResolverCache::classify_nsec_entry(const dns::Name& zone_apex,
                                                const dns::Name& owner,
                                                NsecEntry& entry,
                                                const dns::Name& qname,
                                                dns::RRType qtype,
                                                std::uint64_t* expires_us,
                                                bool* stop_shared) {
  const NsecCoverage coverage =
      classify_nsec_span(zone_apex, owner, arena_.name(entry.next),
                         entry.types, qname, qtype, stop_shared);
  if (coverage != NsecCoverage::kNoProof) {
    entry.referenced = true;
    entry.chances = limits_.nsec_extra_chances;
    if (expires_us != nullptr) *expires_us = entry.expires_us;
    counters_.add("cache.nsec_hit");
  }
  return coverage;
}

ResolverCache::NsecChain::value_type* ResolverCache::span_predecessor(
    const dns::Name& zone_apex, NsecZone& zone, const dns::Name& qname) {
  // Fast path: binary-search the span index for the greatest owner <=
  // qname. A live candidate answers in one probe.
  if (zone.index_generation != zone.generation) rebuild_span_index(zone);
  const auto candidate = std::upper_bound(
      zone.index.begin(), zone.index.end(), qname,
      [](const dns::Name& q, const NsecChain::value_type* node) {
        return q.canonical_compare(node->first) < 0;
      });
  if (candidate == zone.index.begin()) return nullptr;
  NsecChain::value_type* node = *(candidate - 1);
  if (node->second.expires_us > now()) return node;

  // Expired candidate: walk the ordered chain instead. Expired entries met
  // on the walk are reclaimed and skipped — a stale closer entry must not
  // shadow a live covering proof further left in the chain. Each erase
  // bumps the generation and so invalidates the index.
  NsecChain& chain = zone.chain;
  auto it = chain.upper_bound(qname);
  for (;;) {
    if (it == chain.begin()) {
      if (chain.empty()) nsec_by_zone_.erase(zone_apex);
      return nullptr;
    }
    --it;
    if (it->second.expires_us > now()) return &*it;
    release(it->second.cost);
    it = chain.erase(it);
    ++zone.generation;
  }
}

NsecCoverage ResolverCache::nsec_lookup(const dns::Name& zone_apex,
                                        const dns::Name& qname,
                                        dns::RRType qtype,
                                        std::uint64_t* expires_us,
                                        bool* from_shared) {
  if (!qname.is_subdomain_of(zone_apex)) return NsecCoverage::kNoProof;
  NsecZone* zone = nsec_by_zone_.find(zone_apex);
  NsecChain::value_type* node =
      zone == nullptr ? nullptr : span_predecessor(zone_apex, *zone, qname);
  if (node != nullptr) {
    bool stop_shared = false;
    const NsecCoverage local =
        classify_nsec_entry(zone_apex, node->first, node->second, qname,
                            qtype, expires_us, &stop_shared);
    if (local != NsecCoverage::kNoProof || stop_shared) return local;
  }
  return shared_nsec_check(zone_apex, qname, qtype, expires_us, from_shared);
}

NsecCoverage ResolverCache::shared_nsec_check(const dns::Name& zone_apex,
                                              const dns::Name& qname,
                                              dns::RRType qtype,
                                              std::uint64_t* expires_us,
                                              bool* from_shared) {
  if (shared_ == nullptr) return NsecCoverage::kNoProof;
  const NsecCoverage coverage =
      shared_->check_nsec(zone_apex, qname, qtype, now(), shard_id_,
                          expires_us);
  if (coverage != NsecCoverage::kNoProof) {
    counters_.add("cache.nsec_shared_hit");
    *from_shared = true;
  }
  return coverage;
}

// -- NSEC3 closest-encloser evidence + unified denial lookup (§4j) -----------

void ResolverCache::store_nsec3_evidence(const dns::Name& zone_apex,
                                         const Nsec3Evidence& evidence) {
  Nsec3ZoneEvidence& zone = nsec3_evidence_.get_or_insert(zone_apex);
  if (zone.salt != evidence.salt || zone.iterations != evidence.iterations) {
    // Parameter rollover: hashes under the old salt/iterations are garbage.
    zone.salt = evidence.salt;
    zone.iterations = evidence.iterations;
    zone.enclosers.clear();
    zone.spans.clear();
  }
  std::uint64_t& encloser_expiry = zone.enclosers[evidence.closest_encloser];
  encloser_expiry = std::max(encloser_expiry, evidence.expires_us);
  for (const auto& [lo, hi] : evidence.spans) {
    const auto it = std::lower_bound(
        zone.spans.begin(), zone.spans.end(), lo,
        [](const Nsec3ZoneEvidence::HashedSpan& span,
           const crypto::Bytes& key) { return span.lo < key; });
    if (it != zone.spans.end() && it->lo == lo) {
      it->hi = hi;
      it->expires_us = std::max(it->expires_us, evidence.expires_us);
      continue;
    }
    if (zone.spans.size() >= kMaxNsec3SpansPerZone) continue;  // bounded
    zone.spans.insert(it, {lo, hi, evidence.expires_us});
  }
  counters_.add("cache.nsec3_evidence_store");
}

std::size_t ResolverCache::nsec3_evidence_spans(
    const dns::Name& zone_apex) const {
  const Nsec3ZoneEvidence* zone = nsec3_evidence_.find(zone_apex);
  return zone == nullptr ? 0 : zone->spans.size();
}

ProofResult ResolverCache::nsec3_synth_lookup(const dns::Name& zone_apex,
                                              const dns::Name& qname) {
  ProofResult out;
  Nsec3ZoneEvidence* zone = nsec3_evidence_.find(zone_apex);
  if (zone == nullptr) return out;
  if (!qname.is_subdomain_of(zone_apex) || qname.label_count() == 0) {
    return out;
  }
  // Hash-match gate: only probe when some proper ancestor of qname is a
  // proven closest encloser (whose wildcard is also proven absent). Then a
  // single iterated hash of the next-closer name decides — covered by a
  // validated span means the name provably does not exist (RFC 8198 over
  // RFC 5155 §8.4), not covered means the evidence is silent.
  const std::uint64_t now_us = now();
  dns::Name next_closer = qname;
  const Nsec3ZoneEvidence::HashedSpan* witness = nullptr;
  bool gated = false;
  while (next_closer.label_count() > zone_apex.label_count()) {
    const dns::Name ancestor = next_closer.parent();
    const auto it = zone->enclosers.find(ancestor);
    if (it != zone->enclosers.end() && it->second > now_us) {
      gated = true;
      break;
    }
    next_closer = ancestor;
  }
  if (!gated) return out;
  const crypto::Bytes digest =
      zone::nsec3_hash(next_closer, zone->salt, zone->iterations);
  out.hash_ops = zone::nsec3_hash_ops(zone->iterations);
  for (const Nsec3ZoneEvidence::HashedSpan& span : zone->spans) {
    if (span.expires_us <= now_us) continue;
    const bool wraps = span.hi <= span.lo;
    const bool inside = wraps ? (digest > span.lo || digest < span.hi)
                              : (span.lo < digest && digest < span.hi);
    if (inside) {
      witness = &span;
      break;
    }
  }
  if (witness == nullptr) return out;  // hash missed every validated span
  out.coverage = DenialKind::kNxDomain;
  out.origin = ProofOrigin::kSynthesized;
  out.expires_us = witness->expires_us;
  counters_.add("cache.synth_nsec3_hit");
  return out;
}

ProofResult ResolverCache::find_denial(const dns::Name& zone_apex,
                                       const dns::Name& qname,
                                       dns::RRType qtype, unsigned sources) {
  ProofResult out;
  if ((sources & DenialSources::kNegative) != 0) {
    std::uint64_t expires = 0;
    const NegativeEntry negative = negative_lookup(qname, qtype, &expires);
    if (negative != NegativeEntry::kNone) {
      out.coverage = negative == NegativeEntry::kNxDomain
                         ? DenialKind::kNxDomain
                         : DenialKind::kNoData;
      out.origin = ProofOrigin::kLocal;
      out.expires_us = expires;
      return out;
    }
  }
  if ((sources & DenialSources::kSpans) != 0) {
    std::uint64_t expires = 0;
    bool from_shared = false;
    const NsecCoverage coverage =
        nsec_lookup(zone_apex, qname, qtype, &expires, &from_shared);
    if (coverage != NsecCoverage::kNoProof) {
      out.coverage = coverage == NsecCoverage::kNameCovered
                         ? DenialKind::kNxDomain
                         : DenialKind::kNoData;
      // A span hit with no exact entry *is* RFC 8198 synthesis; the shared
      // origin additionally tells attribution that a sibling proved it.
      out.origin =
          from_shared ? ProofOrigin::kShared : ProofOrigin::kSynthesized;
      out.expires_us = expires;
      return out;
    }
  }
  if ((sources & DenialSources::kNsec3) != 0) {
    return nsec3_synth_lookup(zone_apex, qname);
  }
  return out;
}

std::size_t ResolverCache::nsec_count(const dns::Name& zone_apex) const {
  // With a shared store attached the shared chain is the union across all
  // shards (private stores write through), so it is the authoritative count.
  if (shared_ != nullptr) return shared_->nsec_count(zone_apex);
  const NsecZone* zone = nsec_by_zone_.find(zone_apex);
  return zone == nullptr ? 0 : zone->chain.size();
}

// -- Zone-cut cache ----------------------------------------------------------

void ResolverCache::store_zone_cut(const dns::Name& apex, std::uint32_t ttl) {
  ZoneCutRecord& record = zone_cuts_.get_or_insert(apex);
  if (record.expires_us == 0) charge(zone_cut_cost(apex));
  record.expires_us = ttl_to_deadline(now(), ttl);
  record.referenced = false;
  if (shared_ != nullptr) {
    shared_->store_zone_cut(apex, record.expires_us, shard_id_);
  }
}

dns::Name ResolverCache::deepest_known_cut(const dns::Name& qname) {
  dns::Name candidate = qname;
  for (;;) {
    if (ZoneCutRecord* record = zone_cuts_.find(candidate)) {
      if (record->expires_us > now()) {
        record->referenced = true;
        return candidate;
      }
      release(zone_cut_cost(candidate));
      zone_cuts_.erase(candidate);
    }
    // A sibling's published cut is as good as our own: iteration can start
    // at the deepest cut *any* shard has proven.
    if (shared_ != nullptr &&
        shared_->has_zone_cut(candidate, now(), shard_id_)) {
      counters_.add("cache.zone_cut_shared_hit");
      return candidate;
    }
    if (candidate.is_root()) return candidate;
    candidate = candidate.parent();
  }
}

// -- Lifecycle: sweep + eviction ---------------------------------------------

std::size_t ResolverCache::sweep_section(Section section, std::size_t budget) {
  const std::uint64_t now_us = now();
  std::size_t reclaimed = 0;
  dns::NameMapSweepCursor* cursor = &sweep_cursor_[section];
  switch (section) {
    case kPositive:
      positive_.sweep(cursor, budget, [&](const dns::Name&,
                                          PositiveSlots& slots) {
        std::size_t write = 0;
        for (std::size_t read = 0; read < slots.size(); ++read) {
          auto& slot = slots[read];
          if (slot.second->expires_us <= now_us) {
            release(slot.second->cost);
            ++reclaimed;
            continue;
          }
          if (write != read) slots[write] = std::move(slot);
          ++write;
        }
        slots.resize(write);
        return slots.empty();  // erase the name when nothing survives
      });
      break;
    case kNegative:
      negative_.sweep(cursor, budget, [&](const dns::Name& name,
                                          TypeSlots<NegativeRecord>& slots) {
        std::size_t write = 0;
        for (std::size_t read = 0; read < slots.size(); ++read) {
          auto& slot = slots[read];
          if (slot.second.expires_us <= now_us) {
            release(negative_cost(name));
            ++reclaimed;
            continue;
          }
          if (write != read) slots[write] = slot;
          ++write;
        }
        slots.resize(write);
        return slots.empty();
      });
      break;
    case kServfail:
      servfail_.sweep(cursor, budget, [&](const dns::Name& name,
                                          TypeSlots<ServfailRecord>& slots) {
        std::size_t write = 0;
        for (std::size_t read = 0; read < slots.size(); ++read) {
          auto& slot = slots[read];
          if (slot.second.expires_us <= now_us) {
            release(servfail_cost(name));
            ++reclaimed;
            continue;
          }
          if (write != read) slots[write] = slot;
          ++write;
        }
        slots.resize(write);
        return slots.empty();
      });
      break;
    case kNsec:
      // Budget counts chain entries here, not hash slots: one DLV zone can
      // hold a 100k-entry chain, and visiting a whole chain per tick would
      // defeat the amortization. The per-zone `hand` resumes mid-chain.
      nsec_by_zone_.sweep(cursor, 1, [&](const dns::Name&, NsecZone& zone) {
        auto it = zone.hand.is_root() ? zone.chain.begin()
                                      : zone.chain.lower_bound(zone.hand);
        std::size_t visited = 0;
        while (it != zone.chain.end() && visited < budget) {
          ++visited;
          if (it->second.expires_us <= now_us) {
            release(it->second.cost);
            ++reclaimed;
            it = zone.chain.erase(it);
            ++zone.generation;
          } else {
            ++it;
          }
        }
        zone.hand = it == zone.chain.end() ? dns::Name{} : it->first;
        return zone.chain.empty();
      });
      break;
    case kZoneCut:
      zone_cuts_.sweep(cursor, budget, [&](const dns::Name& apex,
                                           ZoneCutRecord& record) {
        if (record.expires_us > now_us) return false;
        release(zone_cut_cost(apex));
        ++reclaimed;
        return true;
      });
      break;
    default:
      break;
  }
  return reclaimed;
}

std::size_t ResolverCache::sweep_expired(std::size_t max_slots) {
  std::size_t reclaimed = 0;
  // Rotate one section per call; empty sections cost nothing, so skip
  // through them without burning the budget.
  for (std::size_t attempt = 0; attempt < kSectionCount; ++attempt) {
    const auto section = static_cast<Section>(sweep_section_index_);
    sweep_section_index_ = (sweep_section_index_ + 1) % kSectionCount;
    const bool empty =
        (section == kPositive && positive_.empty()) ||
        (section == kNegative && negative_.empty()) ||
        (section == kServfail && servfail_.empty()) ||
        (section == kNsec && nsec_by_zone_.empty()) ||
        (section == kZoneCut && zone_cuts_.empty());
    if (empty) continue;
    reclaimed = sweep_section(section, max_slots);
    break;
  }
  if (reclaimed > 0) counters_.add("cache.expired_swept", reclaimed);
  return reclaimed;
}

void ResolverCache::count_eviction(Section section, std::size_t entries) {
  counters_.add("cache.evicted", entries);
  counters_.add(std::string("cache.evicted.") + section_name(section),
                entries);
}

void ResolverCache::trace_eviction(Section section, const dns::Name& owner) {
  if (tracer_ == nullptr) return;
  obs::Event event;
  event.kind = obs::EventKind::kCacheEvicted;
  event.name = owner.to_text();
  event.detail = section_name(section);
  tracer_->emit(std::move(event));
}

bool ResolverCache::evict_step(Section section, std::size_t budget) {
  dns::NameMapSweepCursor* cursor = &evict_cursor_[section];
  std::size_t evicted = 0;
  switch (section) {
    case kPositive:
      positive_.sweep(cursor, budget, [&](const dns::Name& name,
                                          PositiveSlots& slots) {
        if (evicted > 0) return false;  // one victim per step
        // Second chance is per name-slot: any referenced type entry spares
        // the whole slot this pass (and spends the reference bits).
        bool spared = false;
        for (auto& slot : slots) {
          if (slot.second->referenced) {
            slot.second->referenced = false;
            spared = true;
          }
        }
        if (spared) return false;
        for (auto& slot : slots) release(slot.second->cost);
        evicted = slots.size();
        trace_eviction(kPositive, name);
        return true;
      });
      break;
    case kNegative:
      negative_.sweep(cursor, budget, [&](const dns::Name& name,
                                          TypeSlots<NegativeRecord>& slots) {
        if (evicted > 0) return false;
        bool spared = false;
        for (auto& slot : slots) {
          if (slot.second.referenced) {
            slot.second.referenced = false;
            spared = true;
          }
        }
        if (spared) return false;
        release(negative_cost(name) * slots.size());
        evicted = slots.size();
        trace_eviction(kNegative, name);
        return true;
      });
      break;
    case kServfail:
      servfail_.sweep(cursor, budget, [&](const dns::Name& name,
                                          TypeSlots<ServfailRecord>& slots) {
        if (evicted > 0) return false;
        bool spared = false;
        for (auto& slot : slots) {
          if (slot.second.referenced) {
            slot.second.referenced = false;
            spared = true;
          }
        }
        if (spared) return false;
        release(servfail_cost(name) * slots.size());
        evicted = slots.size();
        trace_eviction(kServfail, name);
        return true;
      });
      break;
    case kNsec:
      nsec_by_zone_.sweep(cursor, 1, [&](const dns::Name&, NsecZone& zone) {
        auto it = zone.hand.is_root() ? zone.chain.begin()
                                      : zone.chain.lower_bound(zone.hand);
        std::size_t visited = 0;
        while (it != zone.chain.end() && visited < budget && evicted == 0) {
          ++visited;
          if (it->second.referenced) {
            it->second.referenced = false;
            ++it;
          } else if (it->second.chances > 0) {
            // Load-bearing span under the RFC 8198 profile: burn one of its
            // earned chances instead of evicting (see CacheLimits).
            --it->second.chances;
            ++it;
          } else {
            release(it->second.cost);
            evicted = 1;
            trace_eviction(kNsec, it->first);
            it = zone.chain.erase(it);
            ++zone.generation;
          }
        }
        zone.hand = it == zone.chain.end() ? dns::Name{} : it->first;
        return zone.chain.empty();
      });
      break;
    case kZoneCut:
      zone_cuts_.sweep(cursor, budget, [&](const dns::Name& apex,
                                           ZoneCutRecord& record) {
        if (evicted > 0) return false;
        if (record.referenced) {
          record.referenced = false;
          return false;
        }
        release(zone_cut_cost(apex));
        evicted = 1;
        trace_eviction(kZoneCut, apex);
        return true;
      });
      break;
    default:
      break;
  }
  if (evicted > 0) count_eviction(section, evicted);
  return evicted > 0;
}

void ResolverCache::maintain() {
  if (limits_.sweep_step > 0) sweep_expired(limits_.sweep_step);
  if (limits_.max_bytes == 0 || bytes_ <= limits_.max_bytes) return;
  // Second-chance eviction until under the cap. The clock hand rotates
  // across sections so pressure lands proportionally on whichever stores
  // hold data; each step scans a bounded window. The pass guard bounds the
  // worst case (every entry referenced ⇒ one full spare-everything pass,
  // then victims on the second) so a cap smaller than one entry cannot spin.
  const std::size_t step_budget =
      limits_.sweep_step > 0 ? limits_.sweep_step : 32;
  const std::size_t total_slots =
      positive_.slot_count() + negative_.slot_count() +
      servfail_.slot_count() + nsec_by_zone_.slot_count() +
      zone_cuts_.slot_count() + nsec_by_zone_.size();
  // The guard bounds consecutive *victimless* work: at most ~4 full table
  // walks (enough to spend every second-chance bit) before concluding no
  // further eviction is possible — which only happens if the accounting
  // says over-cap while the stores are empty. Progress replenishes it, so
  // an arbitrarily deep purge still terminates: every eviction removes at
  // least one entry and entries cannot appear mid-maintain.
  const std::size_t initial_guard = 4 * (total_slots + kSectionCount);
  std::size_t guard = initial_guard;
  while (bytes_ > limits_.max_bytes && guard > 0) {
    const auto section = static_cast<Section>(evict_section_index_);
    evict_section_index_ = (evict_section_index_ + 1) % kSectionCount;
    const bool empty =
        (section == kPositive && positive_.empty()) ||
        (section == kNegative && negative_.empty()) ||
        (section == kServfail && servfail_.empty()) ||
        (section == kNsec && nsec_by_zone_.empty()) ||
        (section == kZoneCut && zone_cuts_.empty());
    if (empty) {
      --guard;
      continue;
    }
    if (evict_step(section, step_budget)) {
      guard = initial_guard;
    } else {
      guard = guard > step_budget ? guard - step_budget : 0;
    }
  }
}

void ResolverCache::clear() {
  positive_.clear();
  negative_.clear();
  servfail_.clear();
  nsec_by_zone_.clear();
  nsec3_evidence_.clear();
  zone_cuts_.clear();
  // Interned ids die with the entries that held them; dropping the arena
  // here is what bounds the "ids stable for cache lifetime" contract.
  arena_.clear();
  bytes_ = 0;
  peak_bytes_ = 0;
  sweep_section_index_ = 0;
  evict_section_index_ = 0;
  for (std::size_t i = 0; i < kSectionCount; ++i) {
    sweep_cursor_[i] = dns::NameMapSweepCursor{};
    evict_cursor_[i] = dns::NameMapSweepCursor{};
  }
}

}  // namespace lookaside::resolver
