// Resolver caches: positive RRset cache, RFC 2308 negative cache, the
// aggressive NSEC cache (RFC 8198 / RFC 5074 §5), and known-zone-cut cache.
//
// The aggressive NSEC cache is load-bearing for the paper: it is the only
// reason leaked-domain counts grow sub-linearly (Figs. 8-9), and shuffling
// the query order changes which domains leak (§5.1 "Order Matters").
//
// Lifecycle (DESIGN.md §4f): every entry is byte-accounted at store time,
// an incremental amortized sweep reclaims expired entries instead of
// leaving them to linger until probed, and an optional byte cap
// (CacheLimits.max_bytes — BIND max-cache-size / Unbound msg-cache-size
// analogue) is enforced by second-chance (clock) eviction across all five
// stores. Evicting aggressive-NSEC proofs under memory pressure re-opens
// the paper's Case-2 leakage channel — bench_cache_churn measures exactly
// that.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "crypto/bytes.h"
#include "dns/name.h"
#include "dns/name_arena.h"
#include "dns/name_map.h"
#include "dns/record.h"
#include "metrics/counters.h"
#include "resolver/denial.h"
#include "sim/clock.h"

namespace lookaside::obs {
class Tracer;
}

namespace lookaside::resolver {

class SharedProofStore;

/// Negative-cache lookup outcome.
enum class NegativeEntry {
  kNone,      // nothing cached
  kNoData,    // name exists, type doesn't
  kNxDomain,  // name doesn't exist
};

/// Aggressive NSEC lookup outcome for (zone, qname, qtype).
enum class NsecCoverage {
  kNoProof,       // no cached NSEC speaks to this name
  kNameCovered,   // a cached NSEC proves the name does not exist
  kTypeAbsent,    // NSEC at the exact name proves the type is absent
};

/// What one live NSEC span (owner -> next, bitmap `types`) of `zone_apex`
/// proves about (qname, qtype), where owner is the greatest owner <= qname
/// (RFC 4034 §4 coverage with the RFC 6840 §4.4 delegation guards and the
/// RFC 4035 §2.3 parent-side DS rule). The one classifier behind both the
/// private cache and the SharedProofStore. kNoProof when the span does not
/// decide the query; `*type_present` (when non-null) is set when the span
/// sits at qname and lists qtype, i.e. it proves the type *exists*.
[[nodiscard]] NsecCoverage classify_nsec_span(
    const dns::Name& zone_apex, const dns::Name& owner, const dns::Name& next,
    const std::vector<dns::RRType>& types, const dns::Name& qname,
    dns::RRType qtype, bool* type_present = nullptr);

/// Lifecycle limits for one ResolverCache (DESIGN.md §4f).
struct CacheLimits {
  /// Approximate cap on the cache's total footprint in bytes; 0 means
  /// unbounded (the paper-era BIND default).
  std::uint64_t max_bytes = 0;
  /// Slots examined per maintain() tick by the amortized expiry sweep.
  /// 0 disables the background sweep (expired entries are then reclaimed
  /// only when probed or evicted).
  std::size_t sweep_step = 32;
  /// Extra clock-eviction chances granted to an NSEC span each time it
  /// proves a denial. 0 keeps the paper-era single second chance. The
  /// RFC 8198 profile sets this > 0: once synthesis elides exact negative
  /// entries, the spans become load-bearing answer material, and losing
  /// one to mid-pressure eviction re-opens a whole range of Case-2 leaks
  /// rather than a single name.
  std::uint8_t nsec_extra_chances = 0;
};

/// All resolver-side caches, sharing one virtual clock.
class ResolverCache {
 public:
  explicit ResolverCache(const sim::SimClock& clock) : clock_(&clock) {}

  // -- Positive cache -------------------------------------------------------

  /// A cached RRset together with its DNSSEC state.
  struct Entry {
    const dns::RRset* rrset = nullptr;
    bool validated = false;
    const std::vector<dns::ResourceRecord>* rrsigs = nullptr;
  };

  /// Stores an RRset for its TTL. `validated` marks DNSSEC-validated data;
  /// `rrsigs` keeps covering signatures so cached data can be re-validated.
  void store(const dns::RRset& rrset, bool validated,
             std::vector<dns::ResourceRecord> rrsigs = {});

  /// Unexpired cached RRset or nullptr. Counts hits/misses.
  [[nodiscard]] const dns::RRset* find(const dns::Name& name,
                                       dns::RRType type);

  /// Like find() but exposing validation state and stored signatures.
  [[nodiscard]] std::optional<Entry> find_entry(const dns::Name& name,
                                                dns::RRType type);

  /// Cached RRset only if it was stored as validated.
  [[nodiscard]] const dns::RRset* find_validated(const dns::Name& name,
                                                 dns::RRType type);

  /// Upgrades an existing entry to validated (after post-hoc validation).
  void mark_validated(const dns::Name& name, dns::RRType type);

  // -- Negative cache (RFC 2308) -------------------------------------------

  /// Looked up through find_denial(sources = kNegative).
  void store_negative(const dns::Name& name, dns::RRType type,
                      std::uint32_t ttl, bool nxdomain);

  // -- Unified denial lookup (DESIGN.md §4j) ---------------------------------

  /// Strongest available denial for (qname, qtype) under `zone_apex`,
  /// consulting only the proof classes `sources` enables. Precedence on
  /// multiple hits (cheapest-to-verify first): exact negative entry, then
  /// the private NSEC span index, then the shared store, then hash-gated
  /// NSEC3 synthesis. Counters: "cache.negative_hit", "cache.nsec_hit",
  /// "cache.nsec_shared_hit", "cache.synth_nsec3_hit".
  [[nodiscard]] ProofResult find_denial(const dns::Name& zone_apex,
                                        const dns::Name& qname,
                                        dns::RRType qtype,
                                        unsigned sources =
                                            DenialSources::kAll);

  // -- SERVFAIL cache (RFC 2308 §7) ------------------------------------------

  /// Remembers that (name, type) recently ended in SERVFAIL so repeated
  /// queries do not re-traverse a failing hierarchy.
  void store_servfail(const dns::Name& name, dns::RRType type,
                      std::uint32_t ttl);
  [[nodiscard]] bool find_servfail(const dns::Name& name, dns::RRType type);

  // -- Aggressive NSEC cache (RFC 8198; required by RFC 5074 validators) ----

  /// Stores a validated NSEC record belonging to `zone_apex`. Looked up
  /// through find_denial(sources = kSpans).
  void store_nsec(const dns::Name& zone_apex,
                  const dns::ResourceRecord& nsec_record);

  // -- NSEC3 closest-encloser evidence (RFC 8198 over RFC 5155) --------------

  /// Verified material from one NSEC3 denial proof, fed back by the
  /// resolver after validation so later queries can synthesize denials
  /// without contacting authorities: the proven closest encloser (whose
  /// wildcard was also proven absent), the zone's hash parameters, and the
  /// validated hashed spans.
  struct Nsec3Evidence {
    crypto::Bytes salt;
    std::uint16_t iterations = 0;
    dns::Name closest_encloser;
    /// Validated [owner_hash, next_hashed) spans (raw 20-byte digests).
    std::vector<std::pair<crypto::Bytes, crypto::Bytes>> spans;
    std::uint64_t expires_us = 0;
  };

  /// Records evidence for `zone_apex`. A salt/iteration change (parameter
  /// rollover) drops all prior evidence for the zone; per-zone span count
  /// is capped (kMaxNsec3SpansPerZone) so evidence stays bounded metadata
  /// outside the byte-cap eviction loop.
  void store_nsec3_evidence(const dns::Name& zone_apex,
                            const Nsec3Evidence& evidence);

  /// Cached-evidence introspection for tests/benches.
  [[nodiscard]] std::size_t nsec3_evidence_spans(
      const dns::Name& zone_apex) const;

  static constexpr std::size_t kMaxNsec3SpansPerZone = 512;

  /// Number of NSEC entries known for `zone_apex`. With a shared proof
  /// store attached this is the *shared* chain size — the union across all
  /// shards (private entries are written through, so they are a subset) —
  /// which keeps leak-cause attribution ("nsec-gap" vs "cold-miss")
  /// invariant across shard counts.
  [[nodiscard]] std::size_t nsec_count(const dns::Name& zone_apex) const;

  // -- Zone-cut cache ---------------------------------------------------------

  /// Remembers that `apex` is a zone cut (so iteration can start there).
  void store_zone_cut(const dns::Name& apex, std::uint32_t ttl);

  /// Deepest unexpired known cut enclosing `qname`; root when none.
  [[nodiscard]] dns::Name deepest_known_cut(const dns::Name& qname);

  // -- Shared proof store (multi-shard serving, DESIGN.md §4i) ----------------

  /// Attaches a shared NSEC/zone-cut store (nullable to detach).
  /// Afterwards this cache consults the store whenever its private NSEC
  /// chain or zone-cut table misses ("cache.nsec_shared_hit" /
  /// "cache.zone_cut_shared_hit"), and writes every validated NSEC span and
  /// zone cut through so sibling shards can suppress the same upstream
  /// queries. `shard_id` labels published entries for the cross-shard
  /// suppressed-leak accounting.
  void attach_shared(SharedProofStore* store, std::uint32_t shard_id = 0) {
    shared_ = store;
    shard_id_ = shard_id;
  }
  [[nodiscard]] SharedProofStore* shared_store() const { return shared_; }
  [[nodiscard]] std::uint32_t shard_id() const { return shard_id_; }

  // -- Lifecycle (accounting / sweep / eviction) ------------------------------

  /// Attaches a tracer (nullable): pressure evictions then emit
  /// cache_evicted events (detail = section), making churn visible on
  /// timelines and attributable in the leak ledger.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Installs the byte cap and sweep amortization step.
  void set_limits(const CacheLimits& limits) { limits_ = limits; }
  [[nodiscard]] const CacheLimits& limits() const { return limits_; }

  /// Approximate current footprint in bytes across all five stores. The
  /// accounting formulas are frozen (they decide eviction order, which the
  /// PR-5 cap-sweep series pins); interning makes the *real* footprint
  /// smaller than this number, never larger — see arena_bytes().
  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }
  /// High-water mark of bytes() since construction (or clear()).
  [[nodiscard]] std::uint64_t peak_bytes() const { return peak_bytes_; }

  /// The cache's interning arena (DESIGN.md §4k). Ids handed out by it are
  /// stable for the cache's lifetime (until clear()).
  [[nodiscard]] const dns::NameArena& name_arena() const { return arena_; }
  /// True measured footprint of the arena backing the interned sections —
  /// what the duplicate name copies actually cost after interning.
  [[nodiscard]] std::uint64_t arena_bytes() const { return arena_.bytes(); }

  /// Incremental expiry sweep: visits up to `max_slots` slots, resuming
  /// where the previous sweep stopped and rotating across the five stores,
  /// and reclaims every expired entry found. Counts "cache.expired_swept".
  /// Returns the number of entries reclaimed by this call.
  std::size_t sweep_expired(std::size_t max_slots);

  /// One maintenance tick, called by the resolver at resolution boundaries
  /// (never mid-resolution: eviction frees boxed entries, so handed-out
  /// Entry pointers are only guaranteed stable within one resolution once a
  /// cap is set): an amortized sweep step plus second-chance eviction while
  /// over the byte cap. Counts "cache.evicted" (+ per-store breakdowns).
  void maintain();

  // -- Maintenance ------------------------------------------------------------

  void clear();

  /// Counters: "cache.hit", "cache.miss", "cache.negative_hit",
  /// "cache.nsec_hit", "cache.expired_swept", "cache.evicted",
  /// "cache.evicted.positive|negative|servfail|nsec|zone_cut", ...
  [[nodiscard]] const metrics::CounterSet& counters() const { return counters_; }

 private:
  struct CanonicalLess {
    bool operator()(const dns::Name& a, const dns::Name& b) const {
      // canonical_compare short-circuits equal names via the cached hash.
      return a.canonical_compare(b) < 0;
    }
  };
  struct PositiveEntry {
    dns::RRset rrset;
    std::uint64_t expires_us = 0;
    bool validated = false;
    bool referenced = false;  // second-chance bit, set on hit
    std::uint32_t cost = 0;   // accounted bytes
    std::vector<dns::ResourceRecord> rrsigs;
  };
  struct NegativeRecord {
    std::uint64_t expires_us = 0;
    bool nxdomain = false;
    bool referenced = false;
  };
  struct ServfailRecord {
    std::uint64_t expires_us = 0;
    bool referenced = false;
  };
  struct NsecEntry {
    /// Interned id of the span's next owner (DESIGN.md §4k): the chain
    /// stores each distinct name once in the cache arena, so this duplicate
    /// of the successor's owner name is pointer-width instead of a full
    /// Name copy. Resolve with arena_.name().
    dns::NameId next = dns::kInvalidNameId;
    std::vector<dns::RRType> types;
    std::uint64_t expires_us = 0;
    bool referenced = false;
    std::uint8_t chances = 0;  // refilled on hit from nsec_extra_chances
    std::uint32_t cost = 0;
  };
  struct ZoneCutRecord {
    std::uint64_t expires_us = 0;
    bool referenced = false;
  };

  // Per-name slot lists: one hash probe finds every type cached under a
  // name (typically 1-3 entries), so probes do no (Name, RRType) pair-key
  // construction and the NXDOMAIN any-type scan is a tiny linear walk
  // instead of a map range scan. Positive entries are boxed so handed-out
  // Entry pointers survive rehashes, matching std::map pointer stability.
  template <typename V>
  using TypeSlots = std::vector<std::pair<dns::RRType, V>>;
  using PositiveSlots = TypeSlots<std::unique_ptr<PositiveEntry>>;
  // NSEC chains stay ordered: coverage checks need the greatest owner
  // <= qname (predecessor query), which a hash table cannot answer. The
  // wrapper carries the per-zone resume hand for incremental sweeps, so a
  // 100k-entry DLV chain is reclaimed a few entries per tick instead of in
  // one stall.
  using NsecChain = std::map<dns::Name, NsecEntry, CanonicalLess>;
  struct NsecZone {
    NsecChain chain;
    dns::Name hand;  // sweep/eviction resume position (root = begin)
    // -- Span index (DESIGN.md §4j) --
    // Lazily rebuilt sorted array of pointers into the chain's (pointer-
    // stable) map nodes, so the predecessor query is one binary search over
    // contiguous memory instead of a node-hopping tree descent — this is
    // what closes the 301ns negative-probe vs 57ns positive-probe gap.
    // `generation` is bumped on every structural chain mutation (insert or
    // erase); a stale `index_generation` invalidates the index.
    std::vector<NsecChain::value_type*> index;
    std::uint64_t generation = 1;
    std::uint64_t index_generation = 0;
  };
  struct Nsec3ZoneEvidence {
    crypto::Bytes salt;
    std::uint16_t iterations = 0;
    /// Proven closest enclosers (wildcard absence included) -> expiry.
    std::map<dns::Name, std::uint64_t, CanonicalLess> enclosers;
    struct HashedSpan {
      crypto::Bytes lo;  // owner hash
      crypto::Bytes hi;  // next_hashed
      std::uint64_t expires_us = 0;
    };
    std::vector<HashedSpan> spans;  // sorted by lo, deduped
  };

  /// The five stores, as clock-hand / sweep-rotation indices.
  enum Section : std::size_t {
    kPositive = 0,
    kNegative,
    kServfail,
    kNsec,
    kZoneCut,
    kSectionCount,
  };
  static const char* section_name(Section section);

  [[nodiscard]] std::uint64_t now() const { return clock_->now_us(); }
  [[nodiscard]] static std::uint64_t ttl_to_deadline(std::uint64_t now_us,
                                                     std::uint32_t ttl) {
    return now_us + static_cast<std::uint64_t>(ttl) * 1'000'000ULL;
  }

  // -- Byte accounting (approximate, deterministic) --------------------------

  [[nodiscard]] static std::size_t name_cost(const dns::Name& name);
  [[nodiscard]] static std::size_t record_cost(const dns::ResourceRecord& r);
  [[nodiscard]] static std::size_t positive_cost(const PositiveEntry& entry);
  [[nodiscard]] static std::size_t negative_cost(const dns::Name& name);
  [[nodiscard]] static std::size_t servfail_cost(const dns::Name& name);
  /// Non-static: dereferences entry.next through the arena. The formula is
  /// unchanged from the pre-interning layout — accounted cost must not move
  /// or the pinned eviction order would.
  [[nodiscard]] std::size_t nsec_cost(const dns::Name& owner,
                                      const NsecEntry& entry) const;
  [[nodiscard]] static std::size_t zone_cut_cost(const dns::Name& apex);

  void charge(std::size_t cost);
  void release(std::size_t cost);

  // -- Unified denial internals (DESIGN.md §4j) ------------------------------
  // The bodies behind find_denial().

  [[nodiscard]] NegativeEntry negative_lookup(const dns::Name& name,
                                              dns::RRType type,
                                              std::uint64_t* expires_us);
  /// Span lookup: the private chain's live predecessor decides first; the
  /// shared store is consulted when it does not. On a hit, `*from_shared`
  /// reports whether the covering span came from the shared store.
  [[nodiscard]] NsecCoverage nsec_lookup(const dns::Name& zone_apex,
                                         const dns::Name& qname,
                                         dns::RRType qtype,
                                         std::uint64_t* expires_us,
                                         bool* from_shared);
  /// Greatest live owner <= qname in `zone`, or nullptr: an indexed probe
  /// with a fall-back to the ordered chain walk when the index candidate
  /// has expired; the walk reclaims expired entries it meets.
  [[nodiscard]] NsecChain::value_type* span_predecessor(
      const dns::Name& zone_apex, NsecZone& zone, const dns::Name& qname);
  /// classify_nsec_span over one live chain entry, plus the hit
  /// bookkeeping. `*stop_shared` is set when an exact entry says the type
  /// exists — a sibling's proof cannot contradict a validated span, so the
  /// shared consult is skipped.
  [[nodiscard]] NsecCoverage classify_nsec_entry(const dns::Name& zone_apex,
                                                 const dns::Name& owner,
                                                 NsecEntry& entry,
                                                 const dns::Name& qname,
                                                 dns::RRType qtype,
                                                 std::uint64_t* expires_us,
                                                 bool* stop_shared);
  static void rebuild_span_index(NsecZone& zone);
  /// L2 NSEC consult when the private chain has no proof: asks the shared
  /// store (when attached); a hit counts "cache.nsec_shared_hit" and sets
  /// `*from_shared`.
  [[nodiscard]] NsecCoverage shared_nsec_check(const dns::Name& zone_apex,
                                               const dns::Name& qname,
                                               dns::RRType qtype,
                                               std::uint64_t* expires_us,
                                               bool* from_shared);
  /// Hash-gated NSEC3 synthesis (RFC 8198 over cached closest-encloser
  /// evidence). Hashes at most one name (the next closer) and only when
  /// qname sits under a proven encloser; hash_ops is reported even on a
  /// miss — the probe burned the CPU either way.
  [[nodiscard]] ProofResult nsec3_synth_lookup(const dns::Name& zone_apex,
                                               const dns::Name& qname);

  // -- Sweep / eviction internals --------------------------------------------

  /// Sweeps up to `budget` slots of `section` for expired entries;
  /// returns entries reclaimed.
  std::size_t sweep_section(Section section, std::size_t budget);
  /// One clock step in `section`: visits up to `budget` slots; gives
  /// referenced entries a second chance (clearing the bit) and evicts the
  /// first unreferenced one. Returns true when something was evicted.
  bool evict_step(Section section, std::size_t budget);
  void count_eviction(Section section, std::size_t entries);
  void trace_eviction(Section section, const dns::Name& owner);

  const sim::SimClock* clock_;
  obs::Tracer* tracer_ = nullptr;
  SharedProofStore* shared_ = nullptr;  // nullable; not owned
  std::uint32_t shard_id_ = 0;
  metrics::CounterSet counters_;
  CacheLimits limits_;
  std::uint64_t bytes_ = 0;
  std::uint64_t peak_bytes_ = 0;
  dns::NameHashMap<PositiveSlots> positive_;
  dns::NameHashMap<TypeSlots<NegativeRecord>> negative_;
  dns::NameHashMap<TypeSlots<ServfailRecord>> servfail_;
  dns::NameHashMap<NsecZone> nsec_by_zone_;
  dns::NameHashMap<Nsec3ZoneEvidence> nsec3_evidence_;
  dns::NameHashMap<ZoneCutRecord> zone_cuts_;
  // Interning arena for names the cache stores redundantly (NSEC span
  // next-pointers today). Lives alongside the tables; cleared with them.
  dns::NameArena arena_;
  // Sweep rotation state: which section the next sweep tick works on, plus
  // one resume cursor per section. Cursors carry the table generation they
  // were taken under (NameMapSweepCursor), so a rehash between sweep steps
  // restarts that section's walk instead of resuming into a reshuffled
  // slot ordering.
  std::size_t sweep_section_index_ = 0;
  dns::NameMapSweepCursor sweep_cursor_[kSectionCount] = {};
  // Eviction clock state: independent hands so pressure eviction does not
  // perturb the expiry sweep's coverage.
  std::size_t evict_section_index_ = 0;
  dns::NameMapSweepCursor evict_cursor_[kSectionCount] = {};
};

}  // namespace lookaside::resolver
