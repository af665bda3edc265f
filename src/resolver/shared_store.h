// Shared proof store for multi-shard serving (DESIGN.md §4i).
//
// In the thread-per-resolver serving model every shard owns a private
// ResolverCache, so two shards that resolve names in the same DLV-covered
// span would each query the registry once — the second query is a fresh
// Case-2 leak the single-resolver deployment never makes. This store lets
// sibling shards share exactly the two proof kinds that suppress upstream
// queries without carrying answer data: validated aggressive-NSEC spans
// (RFC 8198 / RFC 5074 §5) and known zone cuts. A shard that finds a
// sibling's span here skips the registry round trip entirely, restoring the
// aggregation privacy profile of one big shared cache while keeping the hot
// positive/negative paths shard-private.
//
// Ownership: single-owner, no locks. ShardedServeScenario attaches the
// store only in shared mode, and shared mode dispatches every arrival on
// one thread in global (time, client, seq) order — the schedule that makes
// the merged leak output equal the sequential reference. The parallel
// stack build only hands the store pointer to each shard's resolver; no
// worker thread calls into the store.
//
// Every entry records the shard that published it; a hit whose publisher
// differs from the probing shard is counted as a *sibling* hit — the
// cross-shard suppressed-leak metric BENCH_serve v3 reports.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "dns/name.h"
#include "dns/name_arena.h"
#include "dns/name_map.h"
#include "dns/rr_type.h"

namespace lookaside::resolver {

enum class NsecCoverage;  // cache.h

/// Shared NSEC/zone-cut/verdict proof store for N resolver shards.
class SharedProofStore {
 public:
  /// One validated NSEC span: owner (the map key) -> next, plus the type
  /// bitmap and expiry. `shard` is the publisher, for sibling accounting.
  /// This is the *publish* type; internally the store interns `next` into
  /// its name arena (§4k) and keeps only its 32-bit id, so N shards
  /// republishing the same chain share one canonical byte string per name.
  struct NsecProof {
    dns::Name next;
    std::vector<dns::RRType> types;
    std::uint64_t expires_us = 0;
    std::uint32_t shard = 0;
  };

  /// Exact store/hit tallies.
  struct Stats {
    std::uint64_t nsec_stores = 0;
    std::uint64_t nsec_hits = 0;
    std::uint64_t nsec_sibling_hits = 0;  // hits on another shard's proof
    std::uint64_t cut_stores = 0;
    std::uint64_t cut_hits = 0;
    std::uint64_t cut_sibling_hits = 0;
    std::uint64_t verdict_stores = 0;
    std::uint64_t verdict_hits = 0;
    std::uint64_t verdict_sibling_hits = 0;
  };

  // -- Aggressive NSEC spans -------------------------------------------------

  /// Publishes a validated NSEC span for `zone_apex`. Overwrites any
  /// existing entry at the same owner (refreshed proof wins).
  void store_nsec(const dns::Name& zone_apex, const dns::Name& owner,
                  NsecProof proof);

  /// Whether published spans prove (qname, qtype) absent within
  /// `zone_apex` at `now_us`. Expired entries met on the predecessor walk
  /// are skipped, not reclaimed (purge_expired reclaims): a stale closer
  /// entry must not shadow a live covering proof, and nsec_count keeps
  /// counting it. On a hit, `*expires_us` receives the proof deadline and
  /// `*cross_shard` reports whether a *different* shard published it.
  [[nodiscard]] NsecCoverage check_nsec(const dns::Name& zone_apex,
                                        const dns::Name& qname,
                                        dns::RRType qtype,
                                        std::uint64_t now_us,
                                        std::uint32_t probing_shard,
                                        std::uint64_t* expires_us = nullptr,
                                        bool* cross_shard = nullptr);

  /// Published span count for `zone_apex` (live and expired — the store
  /// reclaims lazily via purge_expired). Used for leak-cause attribution:
  /// "does the resolver know *anything* about this zone's chain".
  [[nodiscard]] std::size_t nsec_count(const dns::Name& zone_apex) const;

  // -- Zone cuts -------------------------------------------------------------

  /// Publishes that `apex` is a zone cut, valid until `expires_us`.
  void store_zone_cut(const dns::Name& apex, std::uint64_t expires_us,
                      std::uint32_t shard);

  /// Whether a live published cut exists at `apex`.
  [[nodiscard]] bool has_zone_cut(const dns::Name& apex, std::uint64_t now_us,
                                  std::uint32_t probing_shard);

  // -- Validation verdicts (vState sharing, DESIGN.md §4j) -------------------

  /// Publishes one signature-verification verdict under its 64-bit content
  /// key (signed data ⊕ signature ⊕ key material — see
  /// Validator::verdict_key), valid until `expires_us` (the RRSIG
  /// expiration).
  void store_verdict(std::uint64_t key, bool valid, std::uint64_t expires_us,
                     std::uint32_t shard);

  /// Published verdict for `key` if live at `now_us`; `*cross_shard`
  /// reports whether a *different* shard published it.
  [[nodiscard]] std::optional<bool> check_verdict(
      std::uint64_t key, std::uint64_t now_us, std::uint32_t probing_shard,
      bool* cross_shard = nullptr);

  /// Published verdict count (live and expired).
  [[nodiscard]] std::size_t verdict_count() const { return verdicts_.size(); }

  // -- Maintenance -----------------------------------------------------------

  /// Reclaims every entry expired at `now_us`. Returns entries reclaimed.
  /// Virtual-clock runs never expire in-run (TTLs dwarf the makespan), so
  /// this is a tool for long-lived deployments and tests, not the serve
  /// hot path.
  std::size_t purge_expired(std::uint64_t now_us);

  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  struct CanonicalLess {
    bool operator()(const dns::Name& a, const dns::Name& b) const {
      return a.canonical_compare(b) < 0;
    }
  };
  /// Stored form of NsecProof: `next` is an arena id, not a Name copy.
  struct StoredNsec {
    dns::NameId next = dns::kInvalidNameId;
    std::vector<dns::RRType> types;
    std::uint64_t expires_us = 0;
    std::uint32_t shard = 0;
  };
  /// Ordered per zone: a coverage check is a predecessor search.
  using NsecChain = std::map<dns::Name, StoredNsec, CanonicalLess>;
  struct CutEntry {
    std::uint64_t expires_us = 0;
    std::uint32_t shard = 0;
  };
  struct VerdictEntry {
    bool valid = false;
    std::uint64_t expires_us = 0;
    std::uint32_t shard = 0;
  };

  dns::NameHashMap<NsecChain> nsec_;  // zone apex -> chain
  dns::NameHashMap<CutEntry> cuts_;   // cut name -> entry
  std::unordered_map<std::uint64_t, VerdictEntry> verdicts_;
  // Intern table for span `next` names. Ids are never reclaimed (there is
  // no clear()), so purge_expired leaves them valid.
  dns::NameArena arena_;
  Stats stats_;
};

}  // namespace lookaside::resolver
