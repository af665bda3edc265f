// Cache lifecycle subsystem tests (DESIGN.md §4f): byte accounting across
// all five stores, the incremental amortized expiry sweep, second-chance
// eviction under a byte cap, and the end-to-end contract that a capped
// resolver holds cache.bytes under the cap while leaking more (the
// cache-pressure leakage study's mechanism).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/experiment.h"
#include "denial_probe.h"
#include "resolver/cache.h"
#include "resolver/config.h"
#include "sim/clock.h"

namespace lookaside::resolver {
namespace {

class CacheLifecycleTest : public ::testing::Test {
 protected:
  CacheLifecycleTest() : cache_(clock_) {}

  dns::RRset a_rrset(const std::string& name, std::uint32_t ttl,
                     std::uint32_t address = 1) {
    dns::RRset out(dns::Name::parse(name), dns::RRType::kA);
    out.add(dns::ResourceRecord::make(dns::Name::parse(name), ttl,
                                      dns::ARdata{address}));
    return out;
  }

  void store_nsec(const std::string& zone, const std::string& owner,
                  const std::string& next, std::uint32_t ttl) {
    dns::NsecRdata nsec;
    nsec.next = dns::Name::parse(next);
    nsec.types = {dns::RRType::kNs};
    cache_.store_nsec(dns::Name::parse(zone),
                      dns::ResourceRecord::make(dns::Name::parse(owner), ttl,
                                                dns::Rdata{nsec}));
  }

  /// Populates every store: `n` positives, negatives, NSEC entries, plus a
  /// SERVFAIL entry and a zone cut, all with TTL `ttl`.
  void populate(int n, std::uint32_t ttl) {
    for (int i = 0; i < n; ++i) {
      const std::string tag = std::to_string(i);
      cache_.store(a_rrset("p" + tag + ".example.com", ttl), false);
      cache_.store_negative(dns::Name::parse("n" + tag + ".example.com"),
                            dns::RRType::kA, ttl, /*nxdomain=*/true);
      store_nsec("dlv.isc.org", "d" + tag + ".com.dlv.isc.org",
                 "e" + tag + ".com.dlv.isc.org", ttl);
    }
    cache_.store_servfail(dns::Name::parse("sf.example.com"), dns::RRType::kA,
                          ttl);
    cache_.store_zone_cut(dns::Name::parse("example.com"), ttl);
  }

  /// Runs sweep ticks until a full rotation reclaims nothing.
  std::uint64_t sweep_to_fixpoint(std::size_t step = 64) {
    std::uint64_t total = 0;
    int idle_rounds = 0;
    while (idle_rounds < 16) {
      const std::size_t got = cache_.sweep_expired(step);
      total += got;
      idle_rounds = got == 0 ? idle_rounds + 1 : 0;
    }
    return total;
  }

  sim::SimClock clock_;
  ResolverCache cache_;
};

TEST_F(CacheLifecycleTest, BytesAccountAcrossAllStores) {
  EXPECT_EQ(cache_.bytes(), 0u);
  std::uint64_t last = 0;
  cache_.store(a_rrset("a.example.com", 300), true);
  EXPECT_GT(cache_.bytes(), last);
  last = cache_.bytes();
  cache_.store_negative(dns::Name::parse("b.example.com"), dns::RRType::kA,
                        300, true);
  EXPECT_GT(cache_.bytes(), last);
  last = cache_.bytes();
  cache_.store_servfail(dns::Name::parse("c.example.com"), dns::RRType::kA,
                        300);
  EXPECT_GT(cache_.bytes(), last);
  last = cache_.bytes();
  store_nsec("dlv.isc.org", "d.com.dlv.isc.org", "e.com.dlv.isc.org", 300);
  EXPECT_GT(cache_.bytes(), last);
  last = cache_.bytes();
  cache_.store_zone_cut(dns::Name::parse("example.com"), 300);
  EXPECT_GT(cache_.bytes(), last);
  EXPECT_EQ(cache_.peak_bytes(), cache_.bytes());
  cache_.clear();
  EXPECT_EQ(cache_.bytes(), 0u);
  EXPECT_EQ(cache_.peak_bytes(), 0u);
}

TEST_F(CacheLifecycleTest, OverwritesDoNotDoubleCharge) {
  cache_.store(a_rrset("a.example.com", 300), false);
  const std::uint64_t once = cache_.bytes();
  cache_.store(a_rrset("a.example.com", 300), false);
  EXPECT_EQ(cache_.bytes(), once);
  store_nsec("dlv.isc.org", "d.com.dlv.isc.org", "e.com.dlv.isc.org", 300);
  const std::uint64_t with_nsec = cache_.bytes();
  store_nsec("dlv.isc.org", "d.com.dlv.isc.org", "e.com.dlv.isc.org", 300);
  EXPECT_EQ(cache_.bytes(), with_nsec);
  cache_.store_negative(dns::Name::parse("n.example.com"), dns::RRType::kA,
                        300, true);
  const std::uint64_t with_negative = cache_.bytes();
  cache_.store_negative(dns::Name::parse("n.example.com"), dns::RRType::kA,
                        300, false);
  EXPECT_EQ(cache_.bytes(), with_negative);
}

TEST_F(CacheLifecycleTest, SweepReclaimsExpiredEverywhere) {
  populate(20, /*ttl=*/30);
  const std::uint64_t populated = cache_.bytes();
  ASSERT_GT(populated, 0u);
  ASSERT_EQ(cache_.nsec_count(dns::Name::parse("dlv.isc.org")), 20u);

  clock_.advance_seconds(31);
  const std::uint64_t swept = sweep_to_fixpoint();
  // 20 positives + 20 negatives + 20 NSEC + 1 SERVFAIL + 1 zone cut.
  EXPECT_EQ(swept, 62u);
  EXPECT_EQ(cache_.counters().value("cache.expired_swept"), 62u);
  EXPECT_EQ(cache_.bytes(), 0u);
  EXPECT_EQ(cache_.nsec_count(dns::Name::parse("dlv.isc.org")), 0u);
}

TEST_F(CacheLifecycleTest, SweepLeavesLiveEntriesAlone) {
  populate(10, /*ttl=*/30);
  populate(10, /*ttl=*/3600);  // overwrites the same names with long TTLs
  clock_.advance_seconds(31);
  sweep_to_fixpoint();
  // The long-TTL generation survived: probes still hit.
  EXPECT_NE(cache_.find(dns::Name::parse("p3.example.com"), dns::RRType::kA),
            nullptr);
  EXPECT_EQ(find_negative(cache_, dns::Name::parse("n3.example.com"),
                                 dns::RRType::kA),
            NegativeEntry::kNxDomain);
  EXPECT_EQ(cache_.nsec_count(dns::Name::parse("dlv.isc.org")), 10u);
  EXPECT_GT(cache_.bytes(), 0u);
}

TEST_F(CacheLifecycleTest, SweepIsIncremental) {
  populate(50, /*ttl=*/30);
  clock_.advance_seconds(31);
  // A tiny budget cannot reclaim everything in one tick; repeated ticks
  // converge without any tick exceeding its slot budget.
  const std::size_t first = cache_.sweep_expired(4);
  EXPECT_LT(first, 50u);
  sweep_to_fixpoint(4);
  EXPECT_EQ(cache_.bytes(), 0u);
}

TEST_F(CacheLifecycleTest, TtlChurnSweepsAndShrinksNsec) {
  // The ISSUE's churn contract: rounds of stores + TTL expiry with
  // maintenance enabled reclaim expired generations (swept counter grows,
  // nsec_count shrinks after sweep) instead of accumulating forever.
  cache_.set_limits(CacheLimits{/*max_bytes=*/0, /*sweep_step=*/64});
  std::uint64_t peak_entries = 0;
  for (int round = 0; round < 4; ++round) {
    populate(30, /*ttl=*/300);
    peak_entries =
        std::max(peak_entries,
                 static_cast<std::uint64_t>(
                     cache_.nsec_count(dns::Name::parse("dlv.isc.org"))));
    clock_.advance_seconds(301);  // the whole generation expires
    const std::uint64_t before =
        cache_.nsec_count(dns::Name::parse("dlv.isc.org"));
    for (int tick = 0; tick < 200; ++tick) cache_.maintain();
    EXPECT_LT(cache_.nsec_count(dns::Name::parse("dlv.isc.org")), before);
  }
  EXPECT_GT(cache_.counters().value("cache.expired_swept"), 0u);
  // After the final sweep rounds nothing lingers from older generations.
  EXPECT_EQ(cache_.nsec_count(dns::Name::parse("dlv.isc.org")), 0u);
}

TEST_F(CacheLifecycleTest, MaintainEnforcesByteCap) {
  cache_.set_limits(CacheLimits{/*max_bytes=*/4096, /*sweep_step=*/32});
  populate(60, /*ttl=*/3600);  // nothing expired: pressure must evict
  ASSERT_GT(cache_.bytes(), 4096u);
  cache_.maintain();
  EXPECT_LE(cache_.bytes(), 4096u);
  EXPECT_GT(cache_.counters().value("cache.evicted"), 0u);
  // The per-store breakdown sums to the total.
  std::uint64_t breakdown = 0;
  for (const char* store :
       {"positive", "negative", "servfail", "nsec", "zone_cut"}) {
    breakdown +=
        cache_.counters().value(std::string("cache.evicted.") + store);
  }
  EXPECT_EQ(breakdown, cache_.counters().value("cache.evicted"));
}

TEST_F(CacheLifecycleTest, EvictionTerminatesWhenEverythingIsReferenced) {
  cache_.set_limits(CacheLimits{/*max_bytes=*/2048, /*sweep_step=*/16});
  populate(40, /*ttl=*/3600);
  // Touch everything so every second-chance bit is set; maintain must
  // still reach the cap (first pass spares, second pass evicts).
  for (int i = 0; i < 40; ++i) {
    const std::string tag = std::to_string(i);
    (void)cache_.find(dns::Name::parse("p" + tag + ".example.com"),
                      dns::RRType::kA);
    (void)find_negative(cache_, dns::Name::parse("n" + tag + ".example.com"),
                               dns::RRType::kA);
  }
  cache_.maintain();
  EXPECT_LE(cache_.bytes(), 2048u);
}

TEST_F(CacheLifecycleTest, CapSmallerThanAnyEntryDoesNotSpin) {
  cache_.set_limits(CacheLimits{/*max_bytes=*/1, /*sweep_step=*/8});
  populate(5, /*ttl=*/3600);
  cache_.maintain();  // guard must bound the loop even at an absurd cap
  EXPECT_EQ(cache_.bytes(), 0u);
}

TEST_F(CacheLifecycleTest, UnboundedCacheNeverEvicts) {
  cache_.set_limits(CacheLimits{/*max_bytes=*/0, /*sweep_step=*/32});
  populate(100, /*ttl=*/3600);
  for (int i = 0; i < 50; ++i) cache_.maintain();
  EXPECT_EQ(cache_.counters().value("cache.evicted"), 0u);
  EXPECT_NE(cache_.find(dns::Name::parse("p42.example.com"), dns::RRType::kA),
            nullptr);
}

// -- End-to-end: capped resolver under the universe workload -----------------

TEST(CacheLifecycleEndToEnd, CappedResolverHoldsBytesUnderCapAndLeaksMore) {
  core::UniverseExperiment::Options base;
  base.universe_size = 4'000;
  base.resolver_config = ResolverConfig::bind_yum();
  base.resolver_config.ns_fetch_probability = 0.0;

  // Unbounded control run.
  core::UniverseExperiment unbounded(base);
  const core::LeakageReport free_report = unbounded.run_topn(600);
  const std::uint64_t free_bytes = unbounded.resolver().cache().bytes();
  EXPECT_EQ(unbounded.resolver().cache().counters().value("cache.evicted"),
            0u);

  // Capped run at a fraction of the unbounded footprint.
  core::UniverseExperiment::Options capped_options = base;
  capped_options.resolver_config.max_cache_bytes = free_bytes / 8;
  core::UniverseExperiment capped(capped_options);
  const core::LeakageReport capped_report = capped.run_topn(600);
  const ResolverCache& cache = capped.resolver().cache();
  EXPECT_LE(cache.bytes(), capped_options.resolver_config.max_cache_bytes);
  EXPECT_GT(cache.counters().value("cache.evicted"), 0u);
  // Evicting aggressive-NSEC proofs re-opens the leakage channel: the
  // capped resolver can only do worse (more Case-2 queries), never better.
  EXPECT_GE(capped_report.case2_queries, free_report.case2_queries);
}

}  // namespace
}  // namespace lookaside::resolver
