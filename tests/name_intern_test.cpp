// Interned-name arena, root-hash de-aliasing, sweep-cursor rehash safety,
// byte-accounting truthfulness, and batched-verification dedupe (§4k).
//
// The `intern` label runs this suite under ASan and TSan in CI: the arena
// and the batch memo sit on the resolver's hottest paths, so lifetime and
// data-race bugs here corrupt every experiment downstream.
#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <malloc.h>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "dns/name.h"
#include "dns/name_arena.h"
#include "dns/name_map.h"
#include "resolver/cache.h"
#include "resolver/config.h"
#include "sim/clock.h"

// ---------------------------------------------------------------------------
// Heap shim for the byte-accounting test: tracks the process's live heap via
// malloc_usable_size so a test can measure the net footprint a cache
// populate phase actually allocated. Counting is always on (the counter is
// process-wide); tests read deltas around the phase they care about.
namespace {
std::atomic<long long> g_live_heap_bytes{0};

long long live_heap() { return g_live_heap_bytes.load(); }

void* counted_alloc(std::size_t size) {
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  g_live_heap_bytes += static_cast<long long>(malloc_usable_size(p));
  return p;
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  g_live_heap_bytes -= static_cast<long long>(malloc_usable_size(p));
  std::free(p);
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }

namespace lookaside {
namespace {

// ---------------------------------------------------------------------------
// NameArena

TEST(NameArena, InternIsIdempotentAndDerefsToCanonicalName) {
  dns::NameArena arena;
  const dns::Name a = dns::Name::parse("www.example.com");
  const dns::Name b = dns::Name::parse("mail.example.com");

  const dns::NameId id_a = arena.intern(a);
  const dns::NameId id_b = arena.intern(b);
  EXPECT_NE(id_a, id_b);
  EXPECT_EQ(arena.intern(a), id_a);
  EXPECT_EQ(arena.intern(dns::Name::parse("www.example.com")), id_a);
  EXPECT_EQ(arena.size(), 2u);

  EXPECT_EQ(arena.name(id_a), a);
  EXPECT_EQ(arena.name(id_b), b);
  EXPECT_EQ(arena.find(a), id_a);
  EXPECT_EQ(arena.find(dns::Name::parse("absent.example.com")),
            dns::kInvalidNameId);
}

TEST(NameArena, IdsAndReferencesStayStableAcrossGrowth) {
  dns::NameArena arena;
  std::vector<std::pair<dns::NameId, dns::Name>> interned;
  for (int i = 0; i < 5000; ++i) {
    dns::Name name =
        dns::Name::parse("host" + std::to_string(i) + ".example.com");
    interned.emplace_back(arena.intern(name), std::move(name));
  }
  // The index rehashed many times on the way to 5000 entries; every id
  // assigned before any of those rehashes must still deref to its name.
  for (const auto& [id, name] : interned) {
    EXPECT_EQ(arena.name(id), name);
    EXPECT_EQ(arena.find(name), id);
  }
  EXPECT_EQ(arena.size(), interned.size());
}

TEST(NameArena, BytesTracksFootprintAndClearResets) {
  dns::NameArena arena;
  const std::uint64_t empty_bytes = arena.bytes();
  for (int i = 0; i < 256; ++i) {
    arena.intern(dns::Name::parse("n" + std::to_string(i) + ".example.com"));
  }
  EXPECT_GT(arena.bytes(), empty_bytes);
  arena.clear();
  EXPECT_EQ(arena.size(), 0u);
  EXPECT_LE(arena.bytes(), empty_bytes);
  // Ids restart from zero after clear (dense id contract).
  EXPECT_EQ(arena.intern(dns::Name::parse("fresh.example.com")), 0u);
}

// ---------------------------------------------------------------------------
// Root-hash de-aliasing (§4k audit finding #1)

TEST(NameHash, RootIsDistinctFromEmptyFnvBasis) {
  constexpr std::size_t kFnvBasis = 14695981039346656037ULL;
  EXPECT_EQ(dns::Name::root().hash(), dns::Name::kRootHash);
  EXPECT_NE(dns::Name::root().hash(), kFnvBasis);
  // Default-constructed and parsed roots agree.
  EXPECT_EQ(dns::Name{}.hash(), dns::Name::kRootHash);
  EXPECT_EQ(dns::Name::parse(".").hash(), dns::Name::kRootHash);
  EXPECT_EQ(dns::Name::parse("").hash(), dns::Name::kRootHash);

  // The de-aliasing constant differs from the basis only in bits the table
  // never consumes: slot indexes come from low bits, control fragments from
  // the top 7. Pinning both halves here keeps future "improvements" from
  // silently moving every root-keyed entry (eviction order is a published
  // observable; see NameMapSweepCursor).
  EXPECT_EQ(dns::Name::kRootHash & ((1ULL << 45) - 1),
            kFnvBasis & ((1ULL << 45) - 1));
  EXPECT_EQ(dns::Name::kRootHash >> 57, kFnvBasis >> 57);
}

TEST(NameHash, RootKeyedEntriesResolveInNameHashMap) {
  dns::NameHashMap<int> map;
  map.get_or_insert(dns::Name::root()) = 1;
  map.get_or_insert(dns::Name::parse("com")) = 2;
  map.get_or_insert(dns::Name::parse("example.com")) = 3;
  ASSERT_NE(map.find(dns::Name::root()), nullptr);
  EXPECT_EQ(*map.find(dns::Name::root()), 1);
  EXPECT_EQ(*map.find(dns::Name::parse("com")), 2);
  // A default-constructed Name is the root; it must alias the same entry.
  ASSERT_NE(map.find(dns::Name{}), nullptr);
  EXPECT_EQ(*map.find(dns::Name{}), 1);
}

// ---------------------------------------------------------------------------
// Sweep-cursor rehash safety (§4k audit finding #2)

TEST(NameMapSweep, FullLapVisitsEveryEntryExactlyOnceWithinGeneration) {
  dns::NameHashMap<int> map;
  std::set<std::string> live;
  for (int i = 0; i < 100; ++i) {
    const std::string label = "entry" + std::to_string(i) + ".test";
    map.get_or_insert(dns::Name::parse(label)) = i;
    live.insert(label);
  }

  // One full lap in ragged chunks: every live entry exactly once.
  dns::NameMapSweepCursor cursor;
  std::multiset<std::string> visited;
  std::size_t steps_left = map.slot_count();
  while (steps_left > 0) {
    const std::size_t chunk = std::min<std::size_t>(7, steps_left);
    map.sweep(&cursor, chunk, [&](const dns::Name& key, int) {
      visited.insert(key.internal_text());
      return false;
    });
    steps_left -= chunk;
  }
  EXPECT_EQ(std::set<std::string>(visited.begin(), visited.end()), live);
  EXPECT_EQ(visited.size(), live.size()) << "an entry was visited twice";
}

TEST(NameMapSweep, CursorSurvivesRehashBetweenChunks) {
  dns::NameHashMap<int> map;
  std::map<std::string, int> model;
  auto insert = [&](int i) {
    const std::string label = "key" + std::to_string(i) + ".test";
    map.get_or_insert(dns::Name::parse(label)) = i;
    model[label] = i;
  };
  for (int i = 0; i < 20; ++i) insert(i);

  // Start a sweep, then force rehashes mid-lap by inserting past the load
  // factor. The stale cursor must re-anchor into the new slot ordering (in
  // bounds, generation refreshed) and keep making progress; with the old
  // unmasked cursor this walk indexed out of the live table's range.
  dns::NameMapSweepCursor cursor;
  std::set<std::string> visited;
  const std::uint64_t gen_before = map.generation();
  map.sweep(&cursor, 5, [&](const dns::Name& key, int) {
    visited.insert(key.internal_text());
    return false;
  });
  for (int i = 20; i < 400; ++i) insert(i);  // multiple grow() rehashes
  ASSERT_GT(map.generation(), gen_before);

  // A full post-rehash lap still reaches every entry (re-anchored cursor
  // walks the whole current table; earlier partial visits may repeat, which
  // is the documented cross-generation allowance).
  std::size_t steps_left = map.slot_count();
  while (steps_left > 0) {
    const std::size_t chunk = std::min<std::size_t>(13, steps_left);
    map.sweep(&cursor, chunk, [&](const dns::Name& key, int) {
      visited.insert(key.internal_text());
      return false;
    });
    steps_left -= chunk;
  }
  EXPECT_EQ(cursor.generation, map.generation());
  for (const auto& [label, value] : model) {
    EXPECT_TRUE(visited.count(label) > 0) << label;
  }
}

TEST(NameMapSweep, InterleavedInsertsAndErasingSweepsMatchModel) {
  dns::NameHashMap<int> map;
  std::map<std::string, int> model;
  dns::NameMapSweepCursor cursor;
  int next = 0;

  // Alternate insert bursts (rehash pressure) with erasing sweeps (drop
  // odd values), checking the map against the model after every phase.
  for (int phase = 0; phase < 12; ++phase) {
    for (int i = 0; i < 37; ++i, ++next) {
      const std::string label = "n" + std::to_string(next) + ".test";
      map.get_or_insert(dns::Name::parse(label)) = next;
      model[label] = next;
    }
    std::size_t erased = map.sweep(&cursor, map.slot_count() / 2,
                                   [](const dns::Name&, int value) {
                                     return value % 2 == 1;
                                   });
    // Mirror: one model pass can't know which half of the table the hand
    // covered, so re-check membership entry by entry instead.
    std::size_t gone = 0;
    for (auto it = model.begin(); it != model.end();) {
      const dns::Name key = dns::Name::parse(it->first);
      const int* found = map.find(key);
      if (found == nullptr) {
        ASSERT_EQ(it->second % 2, 1) << "sweep erased an even value";
        it = model.erase(it);
        ++gone;
      } else {
        ASSERT_EQ(*found, it->second);
        ++it;
      }
    }
    ASSERT_EQ(gone, erased);
    ASSERT_EQ(map.size(), model.size());
  }
}

// ---------------------------------------------------------------------------
// Byte-accounting truthfulness (§4f/§4k)

TEST(CacheBytes, AccountingTracksRealHeapFootprint) {
  sim::SimClock clock;
  auto cache = std::make_unique<resolver::ResolverCache>(clock);

  const long long heap_before = live_heap();
  for (int i = 0; i < 400; ++i) {
    const std::string owner = "name" + std::to_string(i) + ".com.dlv.isc.org";
    const std::string next = "name" + std::to_string(i + 1) + ".com.dlv.isc.org";
    dns::NsecRdata nsec;
    nsec.next = dns::Name::parse(next);
    nsec.types = {dns::RRType::kA, dns::RRType::kRrsig, dns::RRType::kNsec};
    cache->store_nsec(dns::Name::parse("dlv.isc.org"),
                      dns::ResourceRecord::make(dns::Name::parse(owner), 3600,
                                                dns::Rdata{nsec}));

    dns::RRset rrset(dns::Name::parse("host" + std::to_string(i) + ".com"),
                     dns::RRType::kA);
    rrset.add(dns::ResourceRecord::make(rrset.name(), 3600,
                                        dns::ARdata{0x0A000001u + i}));
    cache->store(rrset, /*validated=*/false);
  }
  const long long heap_delta = live_heap() - heap_before;
  ASSERT_GT(heap_delta, 0);

  // bytes() is a model, not a malloc ledger: it must stay the same order of
  // magnitude as the real allocation delta — an accounting that drifts to a
  // fraction of (or a multiple of) the true footprint makes the byte cap
  // meaningless. The arena is part of the advertised footprint.
  const double billed = static_cast<double>(cache->bytes());
  const double actual = static_cast<double>(heap_delta);
  EXPECT_GT(cache->arena_bytes(), 0u);
  EXPECT_GE(billed, actual * 0.25)
      << "bytes()=" << billed << " vs heap delta " << actual;
  EXPECT_LE(billed, actual * 4.0)
      << "bytes()=" << billed << " vs heap delta " << actual;

  // Destruction returns the footprint: the cache doesn't leak heap that
  // bytes() never billed.
  cache.reset();
  const long long heap_after_destroy = live_heap() - heap_before;
  EXPECT_LT(static_cast<double>(heap_after_destroy), actual * 0.1);
}

TEST(CacheBytes, EvictionOrderUnchangedByInterning) {
  // The cap-sweep Case-2 count is a direct observable of clock-eviction
  // order. This replicates bench_cache_churn's smoke cell (synthesis off,
  // 16 KiB cap) and pins its Case-2 volume to the committed baseline
  // (bench/baselines/BENCH_cache.smoke.json): interning the cache's names
  // must not move a single eviction.
  core::UniverseExperiment::Options options;
  options.universe_size = 10'000;
  options.resolver_config = resolver::ResolverConfig::bind_yum();
  options.resolver_config.max_cache_bytes = 16 * 1024;
  options.resolver_config.ns_fetch_probability = 0.0;
  core::UniverseExperiment experiment(options);
  for (std::uint64_t round = 0; round < 3; ++round) {
    for (std::uint64_t rank = 1; rank <= 250; ++rank) {
      (void)experiment.stub().visit(
          experiment.world().universe().domain_at(rank));
    }
    if (round + 1 < 3) experiment.clock().advance_seconds(2'100.0);
  }
  EXPECT_EQ(experiment.analyzer().report().case2_queries, 461u);
}

// ---------------------------------------------------------------------------
// Batched verification (§4k)

TEST(VerifyBatch, DedupesRepeatVerificationWithinOneResolution) {
  // A validated NXDOMAIN from a signed TLD verifies its authority NSECs
  // twice in one resolution: once for the denial proof, once when the spans
  // are cached for aggressive reuse. With the verdict cache off (bind_yum
  // default) the batch memo is the only thing standing between those and
  // two full RSA verifications.
  core::UniverseExperiment::Options options;
  options.universe_size = 10'000;
  options.resolver_config = resolver::ResolverConfig::bind_yum();
  options.resolver_config.ns_fetch_probability = 0.0;
  core::UniverseExperiment experiment(options);

  const dns::Name tld = experiment.world().universe().domain_at(1).parent();
  (void)experiment.stub().visit(tld.with_prefix_label("definitely-not-there"));

  const auto& counters = experiment.resolver().validator().counters();
  EXPECT_GE(counters.value("verify.batch_deduped"), 1u);
  EXPECT_GT(counters.value("verify.batch_unique"), 0u);
  // Verdict cache is off in this configuration: the dedupe above is the
  // within-resolution batch alone.
  EXPECT_EQ(counters.value("verdict.rsa_skipped"), 0u);
}

}  // namespace
}  // namespace lookaside
