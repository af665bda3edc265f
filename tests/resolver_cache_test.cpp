// Unit tests for the resolver caches: positive TTLs, RFC 2308 negatives,
// the aggressive NSEC store (wraps, exact matches, type bitmaps, expiry),
// and zone-cut tracking.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "crypto/rng.h"
#include "denial_probe.h"
#include "resolver/cache.h"
#include "sim/clock.h"

namespace lookaside::resolver {
namespace {

class CacheTest : public ::testing::Test {
 protected:
  CacheTest() : cache_(clock_) {}

  dns::RRset a_rrset(const std::string& name, std::uint32_t ttl,
                     std::uint32_t address = 1) {
    dns::RRset out(dns::Name::parse(name), dns::RRType::kA);
    out.add(dns::ResourceRecord::make(dns::Name::parse(name), ttl,
                                      dns::ARdata{address}));
    return out;
  }

  void store_nsec(const std::string& zone, const std::string& owner,
                  const std::string& next, std::uint32_t ttl,
                  std::vector<dns::RRType> types = {dns::RRType::kNs}) {
    dns::NsecRdata nsec;
    nsec.next = dns::Name::parse(next);
    nsec.types = std::move(types);
    cache_.store_nsec(dns::Name::parse(zone),
                      dns::ResourceRecord::make(dns::Name::parse(owner), ttl,
                                                dns::Rdata{nsec}));
  }

  sim::SimClock clock_;
  ResolverCache cache_;
};

TEST_F(CacheTest, PositiveHitAndTtlExpiry) {
  cache_.store(a_rrset("a.com", 10), /*validated=*/false);
  EXPECT_NE(cache_.find(dns::Name::parse("a.com"), dns::RRType::kA), nullptr);
  clock_.advance_seconds(9.0);
  EXPECT_NE(cache_.find(dns::Name::parse("a.com"), dns::RRType::kA), nullptr);
  clock_.advance_seconds(1.5);
  EXPECT_EQ(cache_.find(dns::Name::parse("a.com"), dns::RRType::kA), nullptr);
}

TEST_F(CacheTest, ValidatedFlagTracked) {
  cache_.store(a_rrset("v.com", 100), /*validated=*/true);
  cache_.store(a_rrset("u.com", 100), /*validated=*/false);
  EXPECT_NE(cache_.find_validated(dns::Name::parse("v.com"), dns::RRType::kA),
            nullptr);
  EXPECT_EQ(cache_.find_validated(dns::Name::parse("u.com"), dns::RRType::kA),
            nullptr);
  cache_.mark_validated(dns::Name::parse("u.com"), dns::RRType::kA);
  EXPECT_NE(cache_.find_validated(dns::Name::parse("u.com"), dns::RRType::kA),
            nullptr);
}

TEST_F(CacheTest, EntryKeepsRrsigs) {
  dns::RrsigRdata sig;
  sig.type_covered = dns::RRType::kA;
  sig.signer = dns::Name::parse("com");
  const auto rrsig_record = dns::ResourceRecord::make(
      dns::Name::parse("a.com"), 100, dns::Rdata{sig});
  cache_.store(a_rrset("a.com", 100), false, {rrsig_record});
  const auto entry = cache_.find_entry(dns::Name::parse("a.com"), dns::RRType::kA);
  ASSERT_TRUE(entry.has_value());
  ASSERT_EQ(entry->rrsigs->size(), 1u);
  EXPECT_EQ((*entry->rrsigs)[0].type, dns::RRType::kRrsig);
}

TEST_F(CacheTest, NegativeNoDataIsTypeScoped) {
  cache_.store_negative(dns::Name::parse("a.com"), dns::RRType::kMx, 60,
                        /*nxdomain=*/false);
  EXPECT_EQ(find_negative(cache_, dns::Name::parse("a.com"), dns::RRType::kMx),
            NegativeEntry::kNoData);
  EXPECT_EQ(find_negative(cache_, dns::Name::parse("a.com"), dns::RRType::kA),
            NegativeEntry::kNone);
}

TEST_F(CacheTest, NegativeNxdomainCoversAllTypes) {
  cache_.store_negative(dns::Name::parse("gone.com"), dns::RRType::kA, 60,
                        /*nxdomain=*/true);
  EXPECT_EQ(find_negative(cache_, dns::Name::parse("gone.com"), dns::RRType::kA),
            NegativeEntry::kNxDomain);
  EXPECT_EQ(
      find_negative(cache_, dns::Name::parse("gone.com"), dns::RRType::kDlv),
      NegativeEntry::kNxDomain);
}

TEST_F(CacheTest, NegativeExpires) {
  cache_.store_negative(dns::Name::parse("gone.com"), dns::RRType::kA, 30,
                        true);
  clock_.advance_seconds(31);
  EXPECT_EQ(find_negative(cache_, dns::Name::parse("gone.com"), dns::RRType::kA),
            NegativeEntry::kNone);
}

TEST_F(CacheTest, NsecCoversInteriorName) {
  store_nsec("dlv.isc.org", "alpha.com.dlv.isc.org", "omega.com.dlv.isc.org",
             300);
  EXPECT_EQ(nsec_check(cache_, dns::Name::parse("dlv.isc.org"),
                              dns::Name::parse("middle.com.dlv.isc.org"),
                              dns::RRType::kDlv),
            NsecCoverage::kNameCovered);
  // Outside the range: no proof.
  EXPECT_EQ(nsec_check(cache_, dns::Name::parse("dlv.isc.org"),
                              dns::Name::parse("zz.com.dlv.isc.org"),
                              dns::RRType::kDlv),
            NsecCoverage::kNoProof);
  EXPECT_EQ(nsec_check(cache_, dns::Name::parse("dlv.isc.org"),
                              dns::Name::parse("aa.com.dlv.isc.org"),
                              dns::RRType::kDlv),
            NsecCoverage::kNoProof);
}

TEST_F(CacheTest, NsecWrapCoversTailOfZone) {
  // Last NSEC in a chain points back to the apex.
  store_nsec("dlv.isc.org", "zeta.com.dlv.isc.org", "dlv.isc.org", 300);
  EXPECT_EQ(nsec_check(cache_, dns::Name::parse("dlv.isc.org"),
                              dns::Name::parse("zz.net.dlv.isc.org"),
                              dns::RRType::kDlv),
            NsecCoverage::kNameCovered);
}

TEST_F(CacheTest, NsecExactMatchChecksTypeBitmap) {
  store_nsec("dlv.isc.org", "exist.com.dlv.isc.org", "next.com.dlv.isc.org",
             300, {dns::RRType::kDlv});
  // DLV present at the name: no denial.
  EXPECT_EQ(nsec_check(cache_, dns::Name::parse("dlv.isc.org"),
                              dns::Name::parse("exist.com.dlv.isc.org"),
                              dns::RRType::kDlv),
            NsecCoverage::kNoProof);
  // TXT absent at the name: proven.
  EXPECT_EQ(nsec_check(cache_, dns::Name::parse("dlv.isc.org"),
                              dns::Name::parse("exist.com.dlv.isc.org"),
                              dns::RRType::kTxt),
            NsecCoverage::kTypeAbsent);
}

// The one span classifier behind the private chain and the shared store:
// RFC 6840 §4.4 delegation guards and the RFC 4035 §2.3 parent-side DS rule.
TEST(ClassifyNsecSpan, AppliesDelegationAndDsRules) {
  const dns::Name apex = dns::Name::parse("example.com");
  const auto classify = [&apex](const char* owner, const char* next,
                                std::vector<dns::RRType> types,
                                const char* qname, dns::RRType qtype,
                                bool* type_present = nullptr) {
    return classify_nsec_span(apex, dns::Name::parse(owner),
                              dns::Name::parse(next), types,
                              dns::Name::parse(qname), qtype, type_present);
  };
  // Parent-side delegation NSEC (NS set, SOA clear) at sub.example.com.
  const std::vector<dns::RRType> cut = {dns::RRType::kNs};
  EXPECT_EQ(classify("sub.example.com", "zeta.example.com", cut,
                     "tango.example.com", dns::RRType::kA),
            NsecCoverage::kNameCovered);
  // Names below the cut are occluded: the span proves nothing about them.
  EXPECT_EQ(classify("sub.example.com", "zeta.example.com", cut,
                     "www.sub.example.com", dns::RRType::kA),
            NsecCoverage::kNoProof);
  // At the owner it proves DS absence and nothing else.
  EXPECT_EQ(classify("sub.example.com", "zeta.example.com", cut,
                     "sub.example.com", dns::RRType::kA),
            NsecCoverage::kNoProof);
  EXPECT_EQ(classify("sub.example.com", "zeta.example.com", cut,
                     "sub.example.com", dns::RRType::kDs),
            NsecCoverage::kTypeAbsent);
  bool present = false;
  EXPECT_EQ(classify("sub.example.com", "zeta.example.com",
                     {dns::RRType::kNs, dns::RRType::kDs}, "sub.example.com",
                     dns::RRType::kDs, &present),
            NsecCoverage::kNoProof);
  EXPECT_TRUE(present);

  // Child-side apex NSEC (SOA set): never a DS denial, even though its
  // bitmap omits DS.
  const std::vector<dns::RRType> apex_types = {dns::RRType::kSoa,
                                               dns::RRType::kNs};
  present = false;
  EXPECT_EQ(classify("example.com", "alpha.example.com", apex_types,
                     "example.com", dns::RRType::kDs, &present),
            NsecCoverage::kNoProof);
  EXPECT_FALSE(present);
  EXPECT_EQ(classify("example.com", "alpha.example.com", apex_types,
                     "example.com", dns::RRType::kMx),
            NsecCoverage::kTypeAbsent);
  EXPECT_EQ(classify("example.com", "alpha.example.com", apex_types,
                     "example.com", dns::RRType::kNs, &present),
            NsecCoverage::kNoProof);
  EXPECT_TRUE(present);
}

TEST_F(CacheTest, NsecRespectsZoneScope) {
  store_nsec("dlv.isc.org", "a.com.dlv.isc.org", "z.com.dlv.isc.org", 300);
  // Same shape of name in a different zone: no proof.
  EXPECT_EQ(nsec_check(cache_, dns::Name::parse("other.org"),
                              dns::Name::parse("m.com.dlv.isc.org"),
                              dns::RRType::kDlv),
            NsecCoverage::kNoProof);
  // Name outside the zone: no proof.
  EXPECT_EQ(nsec_check(cache_, dns::Name::parse("dlv.isc.org"),
                              dns::Name::parse("m.com"), dns::RRType::kDlv),
            NsecCoverage::kNoProof);
}

TEST_F(CacheTest, NsecExpires) {
  store_nsec("dlv.isc.org", "a.com.dlv.isc.org", "z.com.dlv.isc.org", 40);
  EXPECT_EQ(cache_.nsec_count(dns::Name::parse("dlv.isc.org")), 1u);
  clock_.advance_seconds(41);
  EXPECT_EQ(nsec_check(cache_, dns::Name::parse("dlv.isc.org"),
                              dns::Name::parse("m.com.dlv.isc.org"),
                              dns::RRType::kDlv),
            NsecCoverage::kNoProof);
}

TEST_F(CacheTest, NsecStaleCloserEntryDoesNotShadowLiveCoveringProof) {
  // Regression: a covering proof with a long TTL and a *closer* (greater,
  // still <= qname) entry with a short TTL. Once the closer entry expires,
  // the predecessor walk must step past it to the live covering proof —
  // the old code erased the expired entry and immediately gave up,
  // manufacturing a spurious Case-2 DLV query.
  store_nsec("dlv.isc.org", "b.com.dlv.isc.org", "z.com.dlv.isc.org", 3600);
  store_nsec("dlv.isc.org", "f.com.dlv.isc.org", "z.com.dlv.isc.org", 50);
  ASSERT_EQ(cache_.nsec_count(dns::Name::parse("dlv.isc.org")), 2u);
  clock_.advance_seconds(51);  // f expires; b (3600s) is still live
  EXPECT_EQ(nsec_check(cache_, dns::Name::parse("dlv.isc.org"),
                              dns::Name::parse("m.com.dlv.isc.org"),
                              dns::RRType::kDlv),
            NsecCoverage::kNameCovered);
  // The walk also reclaimed the expired closer entry.
  EXPECT_EQ(cache_.nsec_count(dns::Name::parse("dlv.isc.org")), 1u);
}

TEST_F(CacheTest, NsecWalkReclaimsRunOfExpiredEntries) {
  // Several consecutive expired closer entries must all be skipped (and
  // reclaimed), not just the first.
  store_nsec("dlv.isc.org", "b.com.dlv.isc.org", "z.com.dlv.isc.org", 3600);
  store_nsec("dlv.isc.org", "d.com.dlv.isc.org", "z.com.dlv.isc.org", 40);
  store_nsec("dlv.isc.org", "f.com.dlv.isc.org", "z.com.dlv.isc.org", 50);
  clock_.advance_seconds(51);
  EXPECT_EQ(nsec_check(cache_, dns::Name::parse("dlv.isc.org"),
                              dns::Name::parse("m.com.dlv.isc.org"),
                              dns::RRType::kDlv),
            NsecCoverage::kNameCovered);
  EXPECT_EQ(cache_.nsec_count(dns::Name::parse("dlv.isc.org")), 1u);
}

TEST_F(CacheTest, NegativeProbePurgesExpiredSlots) {
  // The negative path mirrors the positive cache's erase-on-probe: expired
  // slots encountered during the exact-type and any-type NXDOMAIN scans are
  // reclaimed (observable through the byte accounting).
  cache_.store_negative(dns::Name::parse("a.com"), dns::RRType::kMx, 10,
                        /*nxdomain=*/false);
  cache_.store_negative(dns::Name::parse("a.com"), dns::RRType::kTxt, 10,
                        /*nxdomain=*/false);
  cache_.store_negative(dns::Name::parse("a.com"), dns::RRType::kA, 100,
                        /*nxdomain=*/true);
  const std::uint64_t before = cache_.bytes();
  clock_.advance_seconds(11);
  // Exact probe for an expired type: the NXDOMAIN entry still answers, and
  // both expired slots are purged in the same pass.
  EXPECT_EQ(find_negative(cache_, dns::Name::parse("a.com"), dns::RRType::kMx),
            NegativeEntry::kNxDomain);
  EXPECT_LT(cache_.bytes(), before);
  const std::uint64_t after_purge = cache_.bytes();
  // Probing again reclaims nothing further.
  EXPECT_EQ(find_negative(cache_, dns::Name::parse("a.com"), dns::RRType::kTxt),
            NegativeEntry::kNxDomain);
  EXPECT_EQ(cache_.bytes(), after_purge);
}

TEST_F(CacheTest, NegativeProbeErasesFullyExpiredName) {
  cache_.store_negative(dns::Name::parse("gone.com"), dns::RRType::kA, 10,
                        /*nxdomain=*/true);
  clock_.advance_seconds(11);
  EXPECT_EQ(find_negative(cache_, dns::Name::parse("gone.com"), dns::RRType::kA),
            NegativeEntry::kNone);
  EXPECT_EQ(cache_.bytes(), 0u);
}

TEST_F(CacheTest, ZoneCutsDeepestWins) {
  cache_.store_zone_cut(dns::Name::parse("com"), 3600);
  cache_.store_zone_cut(dns::Name::parse("example.com"), 3600);
  EXPECT_EQ(cache_.deepest_known_cut(dns::Name::parse("www.example.com")),
            dns::Name::parse("example.com"));
  EXPECT_EQ(cache_.deepest_known_cut(dns::Name::parse("other.com")),
            dns::Name::parse("com"));
  EXPECT_EQ(cache_.deepest_known_cut(dns::Name::parse("other.net")),
            dns::Name::root());
}

TEST_F(CacheTest, ZoneCutExpiry) {
  cache_.store_zone_cut(dns::Name::parse("com"), 10);
  clock_.advance_seconds(11);
  EXPECT_EQ(cache_.deepest_known_cut(dns::Name::parse("a.com")),
            dns::Name::root());
}

TEST_F(CacheTest, ClearDropsEverything) {
  cache_.store(a_rrset("a.com", 100), true);
  cache_.store_negative(dns::Name::parse("b.com"), dns::RRType::kA, 100, true);
  store_nsec("z", "a.z", "b.z", 100);
  cache_.store_zone_cut(dns::Name::parse("com"), 100);
  cache_.clear();
  EXPECT_EQ(cache_.find(dns::Name::parse("a.com"), dns::RRType::kA), nullptr);
  EXPECT_EQ(find_negative(cache_, dns::Name::parse("b.com"), dns::RRType::kA),
            NegativeEntry::kNone);
  EXPECT_EQ(cache_.nsec_count(dns::Name::parse("z")), 0u);
  EXPECT_EQ(cache_.deepest_known_cut(dns::Name::parse("a.com")),
            dns::Name::root());
}

TEST_F(CacheTest, HitMissCountersTrack) {
  cache_.store(a_rrset("a.com", 100), false);
  (void)cache_.find(dns::Name::parse("a.com"), dns::RRType::kA);
  (void)cache_.find(dns::Name::parse("b.com"), dns::RRType::kA);
  EXPECT_EQ(cache_.counters().value("cache.hit"), 1u);
  EXPECT_EQ(cache_.counters().value("cache.miss"), 1u);
}

TEST_F(CacheTest, EntryPointersSurviveRehash) {
  // The hash-map migration must keep the std::map-era guarantee that
  // handed-out Entry pointers stay valid across later stores (positive
  // entries are boxed, so rehashes move only the box).
  cache_.store(a_rrset("stable.com", 10'000, 0xABCD), true);
  const auto entry =
      cache_.find_entry(dns::Name::parse("stable.com"), dns::RRType::kA);
  ASSERT_TRUE(entry.has_value());
  const dns::RRset* pinned = entry->rrset;
  // Force several rehashes of the positive table.
  for (int i = 0; i < 1'000; ++i) {
    cache_.store(a_rrset("filler" + std::to_string(i) + ".com", 10'000), false);
  }
  EXPECT_EQ(std::get<dns::ARdata>(pinned->records()[0].rdata).address, 0xABCDu);
  EXPECT_EQ(cache_.find(dns::Name::parse("stable.com"), dns::RRType::kA),
            pinned);
}

/// Reference model with the pre-hash-map std::map semantics, driven in
/// lockstep with the real cache on a randomized operation trace. Guards
/// the open-addressing migration: outcomes AND counters must match the
/// old ordered-map behavior exactly (including the RFC 2308 rule that an
/// unexpired NXDOMAIN for a name answers every type). Both the positive
/// and negative caches erase expired entries on probe; the model tolerates
/// that because expired entries never produce hits on either side.
class CacheModelTest : public CacheTest {
 protected:
  using Key = std::pair<std::string, dns::RRType>;
  struct ModelPositive {
    std::uint64_t expires_us = 0;
    std::uint32_t address = 0;
  };
  struct ModelNegative {
    std::uint64_t expires_us = 0;
    bool nxdomain = false;
  };

  [[nodiscard]] std::uint64_t deadline(std::uint32_t ttl) const {
    return clock_.now_us() + static_cast<std::uint64_t>(ttl) * 1'000'000ULL;
  }

  void model_find(const std::string& name, dns::RRType type) {
    const auto it = positive_.find({name, type});
    const dns::RRset* got = cache_.find(dns::Name::parse(name), type);
    if (it != positive_.end() && it->second.expires_us > clock_.now_us()) {
      ++hits_;
      ASSERT_NE(got, nullptr) << name;
      EXPECT_EQ(std::get<dns::ARdata>(got->records()[0].rdata).address,
                it->second.address);
    } else {
      ++misses_;
      if (it != positive_.end()) positive_.erase(it);
      EXPECT_EQ(got, nullptr) << name;
    }
  }

  void model_find_negative(const std::string& name, dns::RRType type) {
    NegativeEntry expected = NegativeEntry::kNone;
    const auto exact = negative_.find({name, type});
    if (exact != negative_.end() &&
        exact->second.expires_us > clock_.now_us()) {
      expected = exact->second.nxdomain ? NegativeEntry::kNxDomain
                                        : NegativeEntry::kNoData;
    } else {
      for (const auto& [key, record] : negative_) {
        if (key.first == name && record.nxdomain &&
            record.expires_us > clock_.now_us()) {
          expected = NegativeEntry::kNxDomain;
          break;
        }
      }
    }
    if (expected != NegativeEntry::kNone) ++negative_hits_;
    EXPECT_EQ(find_negative(cache_, dns::Name::parse(name), type), expected)
        << name;
  }

  void model_deepest_cut(const std::string& name) {
    dns::Name candidate = dns::Name::parse(name);
    for (;;) {
      const auto it = zone_cuts_.find(candidate.internal_text());
      if (it != zone_cuts_.end() && it->second > clock_.now_us()) break;
      if (candidate.is_root()) break;
      candidate = candidate.parent();
    }
    EXPECT_EQ(cache_.deepest_known_cut(dns::Name::parse(name)), candidate)
        << name;
  }

  std::map<Key, ModelPositive> positive_;
  std::map<Key, ModelNegative> negative_;
  std::map<Key, std::uint64_t> servfail_;
  std::map<std::string, std::uint64_t> zone_cuts_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t negative_hits_ = 0;
  std::uint64_t servfail_hits_ = 0;
};

TEST_F(CacheModelTest, RandomizedTraceMatchesOrderedMapModel) {
  crypto::SplitMix64 rng(0xCAFE);
  const dns::RRType types[] = {dns::RRType::kA, dns::RRType::kMx,
                               dns::RRType::kTxt};
  std::vector<std::string> names;
  for (int i = 0; i < 12; ++i) {
    names.push_back("h" + std::to_string(i) + ".example.com");
    names.push_back("h" + std::to_string(i) + ".sub.example.com");
  }
  names.push_back("example.com");
  names.push_back("sub.example.com");
  names.push_back("com");

  for (int step = 0; step < 6'000; ++step) {
    const std::string& name = names[rng.next_below(names.size())];
    const dns::RRType type = types[rng.next_below(3)];
    const std::uint32_t ttl = 1 + static_cast<std::uint32_t>(rng.next_below(30));
    switch (rng.next_below(10)) {
      case 0: {  // store positive (overwrite allowed)
        const auto address = static_cast<std::uint32_t>(rng.next_below(1000));
        dns::RRset rrset(dns::Name::parse(name), dns::RRType::kA);
        rrset.add(dns::ResourceRecord::make(dns::Name::parse(name), ttl,
                                            dns::ARdata{address}));
        cache_.store(rrset, rng.next_below(2) == 0);
        positive_[{name, dns::RRType::kA}] = {deadline(ttl), address};
        break;
      }
      case 1:
      case 2:
        model_find(name, dns::RRType::kA);
        break;
      case 3: {  // negative store: nodata <-> nxdomain overwrites included
        const bool nxdomain = rng.next_below(2) == 0;
        cache_.store_negative(dns::Name::parse(name), type, ttl, nxdomain);
        negative_[{name, type}] = {deadline(ttl), nxdomain};
        break;
      }
      case 4:
      case 5:
        model_find_negative(name, type);
        break;
      case 6: {  // servfail store + probe
        if (rng.next_below(2) == 0) {
          cache_.store_servfail(dns::Name::parse(name), type, ttl);
          servfail_[{name, type}] = deadline(ttl);
        } else {
          const auto it = servfail_.find({name, type});
          const bool expected =
              it != servfail_.end() && it->second > clock_.now_us();
          if (expected) ++servfail_hits_;
          EXPECT_EQ(cache_.find_servfail(dns::Name::parse(name), type),
                    expected);
        }
        break;
      }
      case 7: {  // zone cuts
        if (rng.next_below(2) == 0) {
          const std::string apex =
              rng.next_below(2) == 0 ? "example.com" : "sub.example.com";
          cache_.store_zone_cut(dns::Name::parse(apex), ttl);
          zone_cuts_[apex] = deadline(ttl);
        } else {
          model_deepest_cut(name);
        }
        break;
      }
      case 8:  // time passes; entries expire
        clock_.advance_seconds(static_cast<double>(rng.next_below(8)));
        break;
      case 9:
        if (rng.next_below(100) == 0) {  // rare full wipe
          cache_.clear();
          positive_.clear();
          negative_.clear();
          servfail_.clear();
          zone_cuts_.clear();
        }
        break;
    }
  }

  EXPECT_EQ(cache_.counters().value("cache.hit"), hits_);
  EXPECT_EQ(cache_.counters().value("cache.miss"), misses_);
  EXPECT_EQ(cache_.counters().value("cache.negative_hit"), negative_hits_);
  EXPECT_EQ(cache_.counters().value("cache.servfail_hit"), servfail_hits_);
}

}  // namespace
}  // namespace lookaside::resolver
