// Multi-core sharded serving tests (DESIGN.md §4i): consistent-hash
// routing (balance, determinism, stability under shard-count growth),
// SharedProofStore semantics (coverage, type bitmaps, wraparound, expiry,
// overwrite, exact tallies, sibling accounting), shard-private cache
// isolation with shared-NSEC crossing, the parallel shard-private run (the
// CI TSan target), and the scenario-level contracts: the shared-store
// sharded run
// must leak exactly the sequential reference's Case-2 set for every shard
// count, while the shard-private run re-leaks and the store strictly
// reduces it.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "denial_probe.h"
#include "resolver/cache.h"
#include "resolver/shared_store.h"
#include "serve/sharded.h"
#include "sim/clock.h"

namespace lookaside {
namespace {

using resolver::nsec_check;
using resolver::NsecCoverage;
using resolver::ResolverCache;
using resolver::SharedProofStore;
using serve::ShardedOptions;
using serve::ShardedServeScenario;
using serve::ShardedSummary;
using serve::ShardRoute;
using serve::ShardRouter;

dns::Name name_of(const std::string& text) { return dns::Name::parse(text); }

dns::ResourceRecord nsec_span(const std::string& owner,
                              const std::string& next,
                              std::uint32_t ttl = 3600) {
  return dns::ResourceRecord::make(
      name_of(owner), ttl, dns::NsecRdata{name_of(next), {dns::RRType::kA}});
}

// -- ShardRouter --------------------------------------------------------------

TEST(ShardRouter, RoutesEveryClientAndBalancesRoughly) {
  const ShardRouter router(4, ShardRoute::kClient);
  std::map<std::uint32_t, int> population;
  for (std::uint32_t client = 0; client < 4000; ++client) {
    const std::uint32_t shard = router.shard_for_client(client);
    ASSERT_LT(shard, 4u);
    ++population[shard];
  }
  ASSERT_EQ(population.size(), 4u);  // nobody starves
  for (const auto& [shard, count] : population) {
    // 64 vnodes/shard keeps imbalance well under 2x of the fair share.
    EXPECT_GT(count, 400) << "shard " << shard;
    EXPECT_LT(count, 2000) << "shard " << shard;
  }
}

TEST(ShardRouter, DeterministicAcrossInstances) {
  const ShardRouter a(8, ShardRoute::kClient);
  const ShardRouter b(8, ShardRoute::kClient);
  for (std::uint32_t client = 0; client < 1000; ++client) {
    EXPECT_EQ(a.shard_for_client(client), b.shard_for_client(client));
  }
}

TEST(ShardRouter, ConsistentHashMovesFewKeysWhenShardsGrow) {
  const ShardRouter four(4, ShardRoute::kClient);
  const ShardRouter five(5, ShardRoute::kClient);
  int moved = 0;
  const int keys = 5000;
  for (std::uint32_t client = 0; client < keys; ++client) {
    if (four.shard_for_client(client) != five.shard_for_client(client)) {
      ++moved;
    }
  }
  // A consistent hash moves ~1/5 of the keys when a fifth shard joins;
  // modulo hashing would move ~4/5. Allow generous slack over the ideal.
  EXPECT_GT(moved, 0);
  EXPECT_LT(moved, keys * 2 / 5);
}

TEST(ShardRouter, QnameRouteKeysOnNameNotClient) {
  const ShardRouter router(4, ShardRoute::kQname);
  const dns::Name name = name_of("www.example.com");
  workload::ClientQuery a{0, 1, 0, name, dns::RRType::kA};
  workload::ClientQuery b{0, 999, 3, name, dns::RRType::kA};
  EXPECT_EQ(router.shard_for(a), router.shard_for(b));
  EXPECT_EQ(router.shard_for(a), router.shard_for_name(name));
}

TEST(ShardRouter, SingleShardRoutesEverythingToZero) {
  const ShardRouter router(1, ShardRoute::kClient);
  for (std::uint32_t client = 0; client < 100; ++client) {
    EXPECT_EQ(router.shard_for_client(client), 0u);
  }
}

// -- SharedProofStore ---------------------------------------------------------

TEST(SharedProofStore, CoversNamesBetweenSpanEndpoints) {
  SharedProofStore store;
  const dns::Name zone = name_of("example.com");
  store.store_nsec(zone, name_of("alpha.example.com"),
                   {name_of("delta.example.com"),
                    {dns::RRType::kA},
                    1'000'000'000,
                    /*shard=*/0});
  EXPECT_EQ(store.check_nsec(zone, name_of("bravo.example.com"),
                             dns::RRType::kA, 0, 0),
            NsecCoverage::kNameCovered);
  EXPECT_EQ(store.check_nsec(zone, name_of("zulu.example.com"),
                             dns::RRType::kA, 0, 0),
            NsecCoverage::kNoProof);
  EXPECT_EQ(store.nsec_count(zone), 1u);
}

TEST(SharedProofStore, ExactNameProvesTypeAbsentOnly) {
  SharedProofStore store;
  const dns::Name zone = name_of("example.com");
  store.store_nsec(zone, name_of("alpha.example.com"),
                   {name_of("delta.example.com"),
                    {dns::RRType::kA},
                    1'000'000'000,
                    0});
  EXPECT_EQ(store.check_nsec(zone, name_of("alpha.example.com"),
                             dns::RRType::kAaaa, 0, 0),
            NsecCoverage::kTypeAbsent);
  EXPECT_EQ(store.check_nsec(zone, name_of("alpha.example.com"),
                             dns::RRType::kA, 0, 0),
            NsecCoverage::kNoProof);
}

TEST(SharedProofStore, WraparoundSpanCoversPastLastOwner) {
  SharedProofStore store;
  const dns::Name zone = name_of("example.com");
  // Last NSEC in a chain points back to the apex: covers everything after
  // the owner.
  store.store_nsec(zone, name_of("zebra.example.com"),
                   {zone, {dns::RRType::kA}, 1'000'000'000, 0});
  EXPECT_EQ(store.check_nsec(zone, name_of("zzz.example.com"),
                             dns::RRType::kA, 0, 0),
            NsecCoverage::kNameCovered);
}

TEST(SharedProofStore, ExpiredProofsAreSkippedNotServed) {
  SharedProofStore store;
  const dns::Name zone = name_of("example.com");
  store.store_nsec(zone, name_of("alpha.example.com"),
                   {name_of("omega.example.com"), {}, /*expires_us=*/100, 0});
  EXPECT_EQ(store.check_nsec(zone, name_of("bravo.example.com"),
                             dns::RRType::kA, /*now_us=*/50, 0),
            NsecCoverage::kNameCovered);
  EXPECT_EQ(store.check_nsec(zone, name_of("bravo.example.com"),
                             dns::RRType::kA, /*now_us=*/200, 0),
            NsecCoverage::kNoProof);
  // The read path never reclaims (shared lock); purge does.
  EXPECT_EQ(store.nsec_count(zone), 1u);
  EXPECT_EQ(store.purge_expired(200), 1u);
  EXPECT_EQ(store.nsec_count(zone), 0u);
}

TEST(SharedProofStore, SiblingHitsAreAttributedCrossShard) {
  SharedProofStore store;
  const dns::Name zone = name_of("example.com");
  store.store_nsec(zone, name_of("alpha.example.com"),
                   {name_of("omega.example.com"),
                    {},
                    1'000'000'000,
                    /*shard=*/2});
  bool cross_shard = false;
  EXPECT_EQ(store.check_nsec(zone, name_of("m.example.com"), dns::RRType::kA,
                             0, /*probing_shard=*/2, nullptr, &cross_shard),
            NsecCoverage::kNameCovered);
  EXPECT_FALSE(cross_shard);
  EXPECT_EQ(store.check_nsec(zone, name_of("m.example.com"), dns::RRType::kA,
                             0, /*probing_shard=*/0, nullptr, &cross_shard),
            NsecCoverage::kNameCovered);
  EXPECT_TRUE(cross_shard);

  store.store_zone_cut(name_of("sub.example.com"), 1'000'000'000, /*shard=*/1);
  EXPECT_TRUE(store.has_zone_cut(name_of("sub.example.com"), 0, 1));
  EXPECT_TRUE(store.has_zone_cut(name_of("sub.example.com"), 0, 3));
  EXPECT_FALSE(store.has_zone_cut(name_of("other.example.com"), 0, 3));

  const SharedProofStore::Stats stats = store.stats();
  EXPECT_EQ(stats.nsec_hits, 2u);
  EXPECT_EQ(stats.nsec_sibling_hits, 1u);
  EXPECT_EQ(stats.cut_hits, 2u);
  EXPECT_EQ(stats.cut_sibling_hits, 1u);
}

TEST(SharedProofStore, RestoreOverwritesAndTalliesAreExact) {
  SharedProofStore store;
  const dns::Name zone = name_of("example.com");
  // Two shards publish the same owner: the later proof replaces the entry.
  for (std::uint32_t shard : {0u, 1u}) {
    store.store_nsec(zone, name_of("a.example.com"),
                     {name_of("m.example.com"), {dns::RRType::kA},
                      1'000'000'000, shard});
  }
  EXPECT_EQ(store.nsec_count(zone), 1u);
  bool cross_shard = false;
  EXPECT_EQ(store.check_nsec(zone, name_of("b.example.com"), dns::RRType::kA,
                             0, /*probing_shard=*/0, nullptr, &cross_shard),
            NsecCoverage::kNameCovered);
  EXPECT_TRUE(cross_shard);  // shard 1's refresh won
  // A miss counts nothing.
  EXPECT_EQ(store.check_nsec(zone, name_of("z.example.com"), dns::RRType::kA,
                             0, 0),
            NsecCoverage::kNoProof);

  const SharedProofStore::Stats stats = store.stats();
  EXPECT_EQ(stats.nsec_stores, 2u);
  EXPECT_EQ(stats.nsec_hits, 1u);
  EXPECT_EQ(stats.nsec_sibling_hits, 1u);
}

// -- ResolverCache + shared store ---------------------------------------------

TEST(ShardCache, PositiveCacheStaysPrivateButNsecCrossesShards) {
  sim::SimClock clock_a;
  sim::SimClock clock_b;
  ResolverCache cache_a(clock_a);
  ResolverCache cache_b(clock_b);
  SharedProofStore store;
  cache_a.attach_shared(&store, 0);
  cache_b.attach_shared(&store, 1);

  // Positive answers are shard-private: B never sees A's RRset.
  const dns::Name host = name_of("www.example.com");
  dns::RRset rrset(host, dns::RRType::kA);
  rrset.add(dns::ResourceRecord::make(host, 3600, dns::ARdata{0x7F000001}));
  cache_a.store(rrset, /*validated=*/true);
  EXPECT_NE(cache_a.find(host, dns::RRType::kA), nullptr);
  EXPECT_EQ(cache_b.find(host, dns::RRType::kA), nullptr);

  // Validated NSEC spans write through: B proves the denial A validated.
  const dns::Name zone = name_of("example.com");
  cache_a.store_nsec(zone, nsec_span("alpha.example.com",
                                     "omega.example.com"));
  EXPECT_EQ(nsec_check(cache_b, zone, name_of("m.example.com"),
                               dns::RRType::kA),
            NsecCoverage::kNameCovered);
  EXPECT_EQ(store.stats().nsec_sibling_hits, 1u);
  // Both shards report the shared chain size (attribution invariance).
  EXPECT_EQ(cache_a.nsec_count(zone), cache_b.nsec_count(zone));

  // Zone cuts write through too.
  cache_a.store_zone_cut(name_of("sub.example.com"), 3600);
  EXPECT_EQ(cache_b.deepest_known_cut(name_of("www.sub.example.com")),
            name_of("sub.example.com"));
}

TEST(ShardCache, DetachedCacheKeepsPrivateSemantics) {
  sim::SimClock clock;
  ResolverCache cache(clock);
  const dns::Name zone = name_of("example.com");
  cache.store_nsec(zone, nsec_span("alpha.example.com", "omega.example.com"));
  EXPECT_EQ(nsec_check(cache, zone, name_of("m.example.com"), dns::RRType::kA),
            NsecCoverage::kNameCovered);
  EXPECT_EQ(cache.nsec_count(zone), 1u);
}

// -- ShardedServeScenario -----------------------------------------------------

serve::ScenarioOptions small_mix() {
  serve::ScenarioOptions options;
  options.universe_size = 2'000;
  options.seed = 7;
  options.mix.clients = 4;
  options.mix.queries_per_client = 20;
  options.mix.seed = 23;
  options.mix.zipf_support = 300;
  options.mix.mean_gap_us = 25'000ULL * 4;
  return options;
}

serve::ScenarioSummary sequential_reference() {
  return serve::run_sequential_reference(small_mix());
}

ShardedSummary run_sharded(std::uint32_t shards, bool shared) {
  ShardedOptions options;
  options.base = small_mix();
  options.shards = shards;
  options.shared_store = shared;
  ShardedServeScenario scenario(std::move(options));
  return scenario.run();
}

TEST(ShardedServe, SharedStoreLeaksExactlyTheReferenceForAnyShardCount) {
  const serve::ScenarioSummary reference = sequential_reference();
  for (const std::uint32_t shards : {1u, 2u, 4u}) {
    const ShardedSummary result = run_sharded(shards, /*shared=*/true);
    EXPECT_EQ(result.merged.case2_total, reference.case2_total)
        << "shards=" << shards;
    EXPECT_EQ(result.merged.leaked_domains, reference.leaked_domains)
        << "shards=" << shards;
    EXPECT_TRUE(result.sums_consistent) << "shards=" << shards;
    EXPECT_EQ(result.shards.size(), shards);
  }
}

TEST(ShardedServe, PrivateModeReLeaksAndSharedStoreStrictlyReduces) {
  const serve::ScenarioSummary reference = sequential_reference();
  const ShardedSummary priv = run_sharded(4, /*shared=*/false);
  const ShardedSummary shared = run_sharded(4, /*shared=*/true);

  // Shard-private caches must re-prove sibling spans: strictly more leaks.
  EXPECT_GT(priv.merged.case2_total, reference.case2_total);
  // And the striped store must win them back — all of them.
  EXPECT_LT(shared.merged.case2_total, priv.merged.case2_total);
  EXPECT_EQ(shared.merged.case2_total, reference.case2_total);
  // The suppression shows up as cross-shard hits in the store stats.
  EXPECT_GT(shared.store.nsec_sibling_hits + shared.store.cut_sibling_hits,
            0u);
  EXPECT_TRUE(priv.sums_consistent);
}

TEST(ShardedServe, MergedCountsTileAcrossShards) {
  const ShardedSummary result = run_sharded(4, /*shared=*/true);
  std::uint64_t served = 0;
  std::uint64_t case2 = 0;
  std::uint64_t routed_clients = 0;
  std::set<std::string> leaked_union;
  for (const serve::ShardReport& report : result.shards) {
    served += report.summary.served;
    case2 += report.summary.case2_total;
    routed_clients += report.clients_routed;
    leaked_union.insert(report.summary.leaked_domains.begin(),
                        report.summary.leaked_domains.end());
  }
  EXPECT_EQ(served, result.merged.served);
  EXPECT_EQ(case2, result.merged.case2_total);
  EXPECT_EQ(leaked_union, result.merged.leaked_domains);
  // Client routing partitions the population: each client on one shard.
  EXPECT_EQ(routed_clients, 4u);
  std::uint64_t per_client = 0;
  for (const std::uint64_t count : result.merged.case2_per_client) {
    per_client += count;
  }
  EXPECT_EQ(per_client, result.merged.case2_total);
}

TEST(ShardedServe, OneShardMergedSummaryEqualsItsShard) {
  // One summarizer feeds both the per-shard and the merged figures, so a
  // one-shard run's merged summary is exactly its shard's. Half the clients
  // cache-bust so the benign p99 is a distinct sample.
  for (const bool shared : {false, true}) {
    ShardedOptions options;
    options.base = small_mix();
    options.base.mix.attack_fraction = 0.5;
    options.shared_store = shared;
    const ShardedSummary result =
        ShardedServeScenario(std::move(options)).run();
    ASSERT_EQ(result.shards.size(), 1u);
    const serve::ScenarioSummary& merged = result.merged;
    const serve::ScenarioSummary& shard = result.shards[0].summary;
    EXPECT_GE(merged.served, 80u);
    EXPECT_GT(merged.case2_total, 0u);
    EXPECT_GT(merged.p99_ms, 0.0);
    EXPECT_EQ(merged.served, shard.served);
    EXPECT_EQ(merged.coalesce_hits, shard.coalesce_hits);
    EXPECT_EQ(merged.coalesce_misses, shard.coalesce_misses);
    EXPECT_EQ(merged.overload_drops, shard.overload_drops);
    EXPECT_EQ(merged.cpu_drops, shard.cpu_drops);
    EXPECT_EQ(merged.max_queue_depth, shard.max_queue_depth);
    EXPECT_EQ(merged.validation_cpu_us, shard.validation_cpu_us);
    EXPECT_EQ(merged.p50_ms, shard.p50_ms);
    EXPECT_EQ(merged.p99_ms, shard.p99_ms);
    EXPECT_EQ(merged.benign_p99_ms, shard.benign_p99_ms);
    EXPECT_EQ(merged.qps, shard.qps);
    EXPECT_EQ(merged.case2_total, shard.case2_total);
    EXPECT_EQ(merged.distinct_leaked, shard.distinct_leaked);
    EXPECT_EQ(merged.leaked_domains, shard.leaked_domains);
    EXPECT_EQ(merged.case2_per_client, shard.case2_per_client);
    EXPECT_EQ(result.shards[0].queries_routed, merged.served);
    EXPECT_EQ(result.shards[0].clients_routed, 4u);
    EXPECT_TRUE(result.sums_consistent);
  }
}

TEST(ShardedServe, RunIsDeterministicAcrossWorkerCounts) {
  // Same shards, different worker-thread counts: identical virtual output.
  ShardedOptions serial;
  serial.base = small_mix();
  serial.shards = 4;
  serial.jobs = 1;
  ShardedServeScenario one(std::move(serial));
  const ShardedSummary a = one.run();

  ShardedOptions parallel;
  parallel.base = small_mix();
  parallel.shards = 4;
  parallel.jobs = 4;
  ShardedServeScenario four(std::move(parallel));
  const ShardedSummary b = four.run();

  EXPECT_EQ(a.merged.case2_total, b.merged.case2_total);
  EXPECT_EQ(a.merged.leaked_domains, b.merged.leaked_domains);
  EXPECT_EQ(a.merged.served, b.merged.served);
  EXPECT_EQ(a.merged.coalesce_hits, b.merged.coalesce_hits);
  EXPECT_DOUBLE_EQ(a.merged.qps, b.merged.qps);
  EXPECT_DOUBLE_EQ(a.merged.p99_ms, b.merged.p99_ms);
  for (std::size_t s = 0; s < a.shards.size(); ++s) {
    EXPECT_EQ(a.shards[s].summary.case2_total, b.shards[s].summary.case2_total)
        << "shard " << s;
    EXPECT_EQ(a.shards[s].queries_routed, b.shards[s].queries_routed)
        << "shard " << s;
  }
}

TEST(ShardedServe, QnameRoutingPreservesSharedModeIdentityToo) {
  const serve::ScenarioSummary reference = sequential_reference();
  ShardedOptions options;
  options.base = small_mix();
  options.shards = 4;
  options.route = ShardRoute::kQname;
  options.shared_store = true;
  ShardedServeScenario scenario(std::move(options));
  const ShardedSummary result = scenario.run();
  EXPECT_EQ(result.merged.case2_total, reference.case2_total);
  EXPECT_EQ(result.merged.leaked_domains, reference.leaked_domains);
  EXPECT_TRUE(result.sums_consistent);
}

TEST(ShardedServe, ParseRouteRoundTrips) {
  EXPECT_EQ(serve::parse_route("client"), ShardRoute::kClient);
  EXPECT_EQ(serve::parse_route("qname"), ShardRoute::kQname);
  EXPECT_FALSE(serve::parse_route("bogus").has_value());
  EXPECT_STREQ(serve::route_name(ShardRoute::kClient), "client");
  EXPECT_STREQ(serve::route_name(ShardRoute::kQname), "qname");
}

}  // namespace
}  // namespace lookaside
