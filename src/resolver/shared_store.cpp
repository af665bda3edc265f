#include "resolver/shared_store.h"

#include <algorithm>

#include "resolver/cache.h"

namespace lookaside::resolver {

void SharedProofStore::store_nsec(const dns::Name& zone_apex,
                                  const dns::Name& owner, NsecProof proof) {
  // Republished spans from sibling shards dedupe to the same id here.
  StoredNsec& stored = nsec_.get_or_insert(zone_apex)[owner];
  stored.next = arena_.intern(proof.next);
  stored.types = std::move(proof.types);
  stored.expires_us = proof.expires_us;
  stored.shard = proof.shard;
  ++stats_.nsec_stores;
}

NsecCoverage SharedProofStore::check_nsec(const dns::Name& zone_apex,
                                          const dns::Name& qname,
                                          dns::RRType qtype,
                                          std::uint64_t now_us,
                                          std::uint32_t probing_shard,
                                          std::uint64_t* expires_us,
                                          bool* cross_shard) {
  if (!qname.is_subdomain_of(zone_apex)) return NsecCoverage::kNoProof;
  const NsecChain* chain = nsec_.find(zone_apex);
  if (chain == nullptr) return NsecCoverage::kNoProof;

  // Greatest live owner <= qname; expired entries are skipped in place.
  auto it = chain->upper_bound(qname);
  do {
    if (it == chain->begin()) return NsecCoverage::kNoProof;
    --it;
  } while (it->second.expires_us <= now_us);
  const StoredNsec& proof = it->second;

  const NsecCoverage coverage =
      classify_nsec_span(zone_apex, it->first, arena_.name(proof.next),
                         proof.types, qname, qtype);
  if (coverage == NsecCoverage::kNoProof) return coverage;
  const bool sibling = proof.shard != probing_shard;
  if (expires_us != nullptr) *expires_us = proof.expires_us;
  if (cross_shard != nullptr) *cross_shard = sibling;
  ++stats_.nsec_hits;
  if (sibling) ++stats_.nsec_sibling_hits;
  return coverage;
}

std::size_t SharedProofStore::nsec_count(const dns::Name& zone_apex) const {
  const NsecChain* chain = nsec_.find(zone_apex);
  return chain == nullptr ? 0 : chain->size();
}

void SharedProofStore::store_zone_cut(const dns::Name& apex,
                                      std::uint64_t expires_us,
                                      std::uint32_t shard) {
  CutEntry& entry = cuts_.get_or_insert(apex);
  entry.expires_us = std::max(entry.expires_us, expires_us);
  entry.shard = shard;
  ++stats_.cut_stores;
}

bool SharedProofStore::has_zone_cut(const dns::Name& apex,
                                    std::uint64_t now_us,
                                    std::uint32_t probing_shard) {
  const CutEntry* entry = cuts_.find(apex);
  if (entry == nullptr || entry->expires_us <= now_us) return false;
  ++stats_.cut_hits;
  if (entry->shard != probing_shard) ++stats_.cut_sibling_hits;
  return true;
}

void SharedProofStore::store_verdict(std::uint64_t key, bool valid,
                                     std::uint64_t expires_us,
                                     std::uint32_t shard) {
  verdicts_[key] = VerdictEntry{valid, expires_us, shard};
  ++stats_.verdict_stores;
}

std::optional<bool> SharedProofStore::check_verdict(std::uint64_t key,
                                                    std::uint64_t now_us,
                                                    std::uint32_t probing_shard,
                                                    bool* cross_shard) {
  const auto it = verdicts_.find(key);
  if (it == verdicts_.end() || it->second.expires_us <= now_us) {
    return std::nullopt;
  }
  const bool sibling = it->second.shard != probing_shard;
  if (cross_shard != nullptr) *cross_shard = sibling;
  ++stats_.verdict_hits;
  if (sibling) ++stats_.verdict_sibling_hits;
  return it->second.valid;
}

std::size_t SharedProofStore::purge_expired(std::uint64_t now_us) {
  std::size_t reclaimed = 0;
  // One full lap of each table; returning true from the visitor erases.
  dns::NameMapSweepCursor cursor;
  nsec_.sweep(&cursor, nsec_.slot_count(),
              [&](const dns::Name&, NsecChain& chain) {
                reclaimed += std::erase_if(chain, [&](const auto& node) {
                  return node.second.expires_us <= now_us;
                });
                return chain.empty();
              });
  cursor = {};
  reclaimed += cuts_.sweep(&cursor, cuts_.slot_count(),
                           [&](const dns::Name&, const CutEntry& entry) {
                             return entry.expires_us <= now_us;
                           });
  reclaimed += std::erase_if(verdicts_, [&](const auto& node) {
    return node.second.expires_us <= now_us;
  });
  return reclaimed;
}

}  // namespace lookaside::resolver
