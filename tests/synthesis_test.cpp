// RFC 8198 aggressive synthesis + vState verdict caching (DESIGN.md §4j):
// the unified find_denial API (origin attribution, stored expiry
// deadlines), the sorted span index against a linear reference model,
// hash-gated NSEC3 synthesis from cached closest-encloser evidence, the
// validator's signature-verdict cache (hit / expiry / key rollover /
// epoch flush / cross-shard sharing), and the scenario-level contracts:
// synthesis-on serving leaks exactly the sequential reference for any
// shard count, and under a byte cap synthesis never leaks more than the
// paper-era configuration.
#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "crypto/dnssec_algo.h"
#include "resolver/cache.h"
#include "resolver/shared_store.h"
#include "resolver/validator.h"
#include "serve/sharded.h"
#include "sim/clock.h"
#include "zone/keys.h"
#include "zone/nsec3.h"

namespace lookaside::resolver {
namespace {

dns::Name name_of(const std::string& text) { return dns::Name::parse(text); }

dns::ResourceRecord nsec_span(const std::string& owner,
                              const std::string& next,
                              std::uint32_t ttl = 3600) {
  dns::NsecRdata nsec;
  nsec.next = name_of(next);
  nsec.types = {dns::RRType::kNs};
  return dns::ResourceRecord::make(name_of(owner), ttl, dns::Rdata{nsec});
}

// -- Span index vs linear reference model -------------------------------------

TEST(SpanIndex, MatchesLinearReferenceWalkOverTheWholeChain) {
  sim::SimClock clock;
  ResolverCache cache(clock);
  const dns::Name apex = name_of("example.com");

  // Even-numbered owners chain to the next even number; odd probes fall in
  // the gaps. Fixed-width labels make lexicographic == canonical order.
  struct Span {
    dns::Name owner;
    dns::Name next;
  };
  std::vector<Span> spans;
  for (int i = 0; i < 40; ++i) {
    char owner[32];
    char next[32];
    std::snprintf(owner, sizeof owner, "n%03d.example.com", 2 * i);
    std::snprintf(next, sizeof next, "n%03d.example.com", 2 * i + 2);
    spans.push_back({name_of(owner), name_of(next)});
    cache.store_nsec(apex, nsec_span(owner, next));
  }

  // Reference model: a probe is covered iff some stored span strictly
  // brackets it in canonical order.
  const auto model_covers = [&spans](const dns::Name& probe) {
    for (const Span& span : spans) {
      if (span.owner.canonical_compare(probe) < 0 &&
          probe.canonical_compare(span.next) < 0) {
        return true;
      }
    }
    return false;
  };

  for (int k = 0; k < 81; ++k) {
    char text[32];
    std::snprintf(text, sizeof text, "n%03dx.example.com", k);
    const dns::Name probe = name_of(text);
    const ProofResult proof =
        cache.find_denial(apex, probe, dns::RRType::kA, DenialSources::kSpans);
    EXPECT_EQ(static_cast<bool>(proof), model_covers(probe)) << text;
    if (proof) {
      EXPECT_EQ(proof.coverage, DenialKind::kNxDomain) << text;
      EXPECT_EQ(proof.origin, ProofOrigin::kSynthesized) << text;
    }
  }
}

TEST(SpanIndex, SurvivesExpiryDrivenMutationOfTheChain) {
  sim::SimClock clock;
  ResolverCache cache(clock);
  const dns::Name apex = name_of("example.com");
  cache.store_nsec(apex, nsec_span("a.example.com", "c.example.com",
                                   /*ttl=*/10));
  cache.store_nsec(apex, nsec_span("m.example.com", "q.example.com",
                                   /*ttl=*/3600));

  EXPECT_TRUE(cache.find_denial(apex, name_of("b.example.com"),
                                dns::RRType::kA, DenialSources::kSpans));
  clock.advance_seconds(60);
  // The short span expired: probing it reclaims the entry (invalidating
  // the index), and the long span must still answer through the rebuilt
  // index afterwards.
  EXPECT_FALSE(cache.find_denial(apex, name_of("b.example.com"),
                                 dns::RRType::kA, DenialSources::kSpans));
  const ProofResult live =
      cache.find_denial(apex, name_of("n.example.com"), dns::RRType::kA,
                        DenialSources::kSpans);
  EXPECT_TRUE(live);
  EXPECT_EQ(live.coverage, DenialKind::kNxDomain);
  EXPECT_EQ(cache.nsec_count(apex), 1u);
}

// -- Unified find_denial origin attribution -----------------------------------

TEST(FindDenial, AttributesLocalSharedAndSynthesizedOrigins) {
  sim::SimClock clock_a;
  sim::SimClock clock_b;
  ResolverCache cache_a(clock_a);
  ResolverCache cache_b(clock_b);
  SharedProofStore store;
  cache_a.attach_shared(&store, 0);
  cache_b.attach_shared(&store, 1);
  const dns::Name apex = name_of("example.com");

  // Exact RFC 2308 entry: origin kLocal, kind follows the rcode.
  cache_a.store_negative(name_of("gone.example.com"), dns::RRType::kA, 300,
                         /*nxdomain=*/true);
  const ProofResult negative = cache_a.find_denial(
      apex, name_of("gone.example.com"), dns::RRType::kA);
  ASSERT_TRUE(negative);
  EXPECT_EQ(negative.coverage, DenialKind::kNxDomain);
  EXPECT_EQ(negative.origin, ProofOrigin::kLocal);
  EXPECT_GT(negative.expires_us, 0u);

  cache_a.store_negative(name_of("half.example.com"), dns::RRType::kAaaa, 300,
                         /*nxdomain=*/false);
  EXPECT_EQ(cache_a
                .find_denial(apex, name_of("half.example.com"),
                             dns::RRType::kAaaa)
                .coverage,
            DenialKind::kNoData);

  // A local span hit is RFC 8198 synthesis.
  cache_a.store_nsec(apex, nsec_span("alpha.example.com", "omega.example.com"));
  const ProofResult synthesized = cache_a.find_denial(
      apex, name_of("m.example.com"), dns::RRType::kA);
  ASSERT_TRUE(synthesized);
  EXPECT_EQ(synthesized.origin, ProofOrigin::kSynthesized);
  EXPECT_EQ(synthesized.hash_ops, 0u);

  // The sibling sees the same span through the store: origin kShared.
  const ProofResult shared = cache_b.find_denial(
      apex, name_of("m.example.com"), dns::RRType::kA);
  ASSERT_TRUE(shared);
  EXPECT_EQ(shared.coverage, DenialKind::kNxDomain);
  EXPECT_EQ(shared.origin, ProofOrigin::kShared);
  EXPECT_EQ(store.stats().nsec_sibling_hits, 1u);

  // Source masking: the span cannot answer through kNegative alone.
  EXPECT_FALSE(cache_a.find_denial(apex, name_of("m.example.com"),
                                   dns::RRType::kA, DenialSources::kNegative));
}

// -- Expiry deadlines ---------------------------------------------------------

// Leak-cause attribution ("ttl-expiry" vs "eviction") reads expires_us off
// every hit, so each proof class must report its stored absolute deadline.
TEST(FindDenial, HitsReportTheStoredDeadline) {
  sim::SimClock clock;
  clock.advance_seconds(10);
  ResolverCache cache(clock);
  const dns::Name apex = name_of("example.com");
  const std::uint64_t stored_at = clock.now_us();
  cache.store_negative(name_of("gone.example.com"), dns::RRType::kA, 300,
                       /*nxdomain=*/true);
  cache.store_negative(name_of("half.example.com"), dns::RRType::kAaaa, 300,
                       /*nxdomain=*/false);
  cache.store_nsec(apex, nsec_span("alpha.example.com", "omega.example.com"));
  const std::uint64_t negative_deadline = stored_at + 300'000'000ULL;
  const std::uint64_t span_deadline = stored_at + 3'600'000'000ULL;
  clock.advance_seconds(5);  // deadlines are absolute, not re-derived

  int negative_hits = 0;
  int span_hits = 0;
  for (const char* probe : {"gone.example.com", "half.example.com",
                            "m.example.com", "zz.example.com"}) {
    for (const dns::RRType qtype : {dns::RRType::kA, dns::RRType::kAaaa,
                                    dns::RRType::kNs}) {
      const dns::Name qname = name_of(probe);
      const ProofResult negative =
          cache.find_denial(qname, qname, qtype, DenialSources::kNegative);
      if (negative) {
        ++negative_hits;
        EXPECT_EQ(negative.expires_us, negative_deadline) << probe;
      }
      const ProofResult span =
          cache.find_denial(apex, qname, qtype, DenialSources::kSpans);
      if (span) {
        ++span_hits;
        EXPECT_EQ(span.expires_us, span_deadline) << probe;
      }
    }
  }
  // gone: NXDOMAIN covers all three types; half: AAAA only. The span
  // covers gone/half/m for every type; zz sorts after omega.
  EXPECT_EQ(negative_hits, 4);
  EXPECT_EQ(span_hits, 9);
}

// -- NSEC3 hash-gated synthesis -----------------------------------------------

class Nsec3SynthTest : public ::testing::Test {
 protected:
  Nsec3SynthTest() : cache_(clock_) {}

  ResolverCache::Nsec3Evidence evidence(const std::string& encloser,
                                        std::uint16_t iterations = 5) {
    ResolverCache::Nsec3Evidence out;
    out.salt = {0xAB, 0xCD};
    out.iterations = iterations;
    out.closest_encloser = name_of(encloser);
    // One span covering the entire hash ring interior: any next-closer
    // hash lands inside it.
    out.spans.emplace_back(crypto::Bytes(20, 0x00), crypto::Bytes(20, 0xFF));
    out.expires_us = clock_.now_us() + 3'600'000'000ULL;
    return out;
  }

  sim::SimClock clock_;
  ResolverCache cache_;
  dns::Name apex_ = name_of("example.com");
};

TEST_F(Nsec3SynthTest, SynthesizesOnlyUnderACachedCloserEncloser) {
  cache_.store_nsec3_evidence(apex_, evidence("sub.example.com"));

  // Gated and covered: one iterated hash of the next closer, NXDOMAIN.
  const ProofResult hit = cache_.find_denial(
      apex_, name_of("gone.sub.example.com"), dns::RRType::kA,
      DenialSources::kNsec3);
  ASSERT_TRUE(hit);
  EXPECT_EQ(hit.coverage, DenialKind::kNxDomain);
  EXPECT_EQ(hit.origin, ProofOrigin::kSynthesized);
  EXPECT_EQ(hit.hash_ops, zone::nsec3_hash_ops(5));

  // No cached encloser above this name: the gate closes before any
  // hashing happens.
  const ProofResult ungated = cache_.find_denial(
      apex_, name_of("gone.other.example.com"), dns::RRType::kA,
      DenialSources::kNsec3);
  EXPECT_FALSE(ungated);
  EXPECT_EQ(ungated.hash_ops, 0u);
}

TEST_F(Nsec3SynthTest, HashOutsideEverySpanStaysSilentButChargesTheHash) {
  ResolverCache::Nsec3Evidence narrow = evidence("sub.example.com");
  // Degenerate span [h, h): wraps and contains nothing.
  const crypto::Bytes digest = zone::nsec3_hash(
      name_of("gone.sub.example.com"), narrow.salt, narrow.iterations);
  narrow.spans.clear();
  narrow.spans.emplace_back(digest, digest);
  cache_.store_nsec3_evidence(apex_, narrow);

  const ProofResult miss = cache_.find_denial(
      apex_, name_of("gone.sub.example.com"), dns::RRType::kA,
      DenialSources::kNsec3);
  EXPECT_FALSE(miss);
  // The gate opened, so the hash was computed (and must be charged).
  EXPECT_EQ(miss.hash_ops, zone::nsec3_hash_ops(5));
}

TEST_F(Nsec3SynthTest, ExpiredEvidenceClosesTheGate) {
  ResolverCache::Nsec3Evidence brief = evidence("sub.example.com");
  brief.expires_us = clock_.now_us() + 1'000'000;
  cache_.store_nsec3_evidence(apex_, brief);
  clock_.advance_seconds(10);
  const ProofResult stale = cache_.find_denial(
      apex_, name_of("gone.sub.example.com"), dns::RRType::kA,
      DenialSources::kNsec3);
  EXPECT_FALSE(stale);
  EXPECT_EQ(stale.hash_ops, 0u);
}

TEST_F(Nsec3SynthTest, ParameterRolloverDropsOldSpans) {
  cache_.store_nsec3_evidence(apex_, evidence("sub.example.com"));
  EXPECT_EQ(cache_.nsec3_evidence_spans(apex_), 1u);

  ResolverCache::Nsec3Evidence rolled = evidence("sub.example.com");
  rolled.salt = {0x01};  // salt change: old hashes are garbage
  rolled.spans.clear();
  cache_.store_nsec3_evidence(apex_, rolled);
  EXPECT_EQ(cache_.nsec3_evidence_spans(apex_), 0u);
  EXPECT_FALSE(cache_.find_denial(apex_, name_of("gone.sub.example.com"),
                                  dns::RRType::kA, DenialSources::kNsec3));
}

// -- vState verdict cache -----------------------------------------------------

class VerdictCacheTest : public ::testing::Test {
 protected:
  VerdictCacheTest() : validator_(clock_) {
    crypto::SplitMix64 rng(9);
    keys_ = zone::ZoneKeys::generate(256, rng);
    dnskeys_ = dnskey_rrset(*keys_);
    rrset_ = dns::RRset(owner_, dns::RRType::kA);
    rrset_.add(dns::ResourceRecord::make(owner_, 300, dns::ARdata{42}));
    validator_.set_verdict_cache_entries(64);
  }

  dns::RRset dnskey_rrset(const zone::ZoneKeys& keys) const {
    dns::RRset out(owner_, dns::RRType::kDnskey);
    out.add(dns::ResourceRecord::make(owner_, 3600,
                                      dns::Rdata{keys.zsk_record()}));
    out.add(dns::ResourceRecord::make(owner_, 3600,
                                      dns::Rdata{keys.ksk_record()}));
    return out;
  }

  dns::ResourceRecord make_signature(const zone::ZoneKeys& keys,
                                     std::uint32_t expiration = 0x7FFFFFFF) {
    dns::RrsigRdata sig;
    sig.type_covered = dns::RRType::kA;
    sig.algorithm = 8;
    sig.labels = 2;
    sig.original_ttl = 300;
    sig.inception = 0;
    sig.expiration = expiration;
    sig.key_tag = keys.zsk_tag();
    sig.signer = owner_;
    sig.signature = crypto::sign_message(
        keys.zsk_private(), dns::rrsig_signed_data(sig, rrset_));
    return dns::ResourceRecord::make(owner_, 300, dns::Rdata{sig});
  }

  std::uint64_t counter(const char* name) const {
    return validator_.counters().value(name);
  }

  sim::SimClock clock_;
  Validator validator_;
  dns::Name owner_ = dns::Name::parse("example.com");
  std::optional<zone::ZoneKeys> keys_;
  dns::RRset dnskeys_;
  dns::RRset rrset_;
};

TEST_F(VerdictCacheTest, RepeatVerificationSkipsRsa) {
  const dns::ResourceRecord sig = make_signature(*keys_);
  EXPECT_EQ(validator_.verify_rrset(rrset_, {sig}, dnskeys_),
            SigCheck::kValid);
  EXPECT_EQ(counter("verdict.miss"), 1u);
  EXPECT_EQ(counter("verdict.rsa_skipped"), 0u);
  EXPECT_EQ(validator_.verify_rrset(rrset_, {sig}, dnskeys_),
            SigCheck::kValid);
  EXPECT_EQ(counter("verdict.rsa_skipped"), 1u);
  EXPECT_EQ(counter("verdict.miss"), 1u);
}

TEST_F(VerdictCacheTest, InvalidVerdictsAreMemoizedToo) {
  dns::ResourceRecord tampered = make_signature(*keys_);
  std::get<dns::RrsigRdata>(tampered.rdata).signature[5] ^= 0x01;
  EXPECT_EQ(validator_.verify_rrset(rrset_, {tampered}, dnskeys_),
            SigCheck::kInvalid);
  EXPECT_EQ(validator_.verify_rrset(rrset_, {tampered}, dnskeys_),
            SigCheck::kInvalid);
  EXPECT_EQ(counter("verdict.rsa_skipped"), 1u);
}

TEST_F(VerdictCacheTest, SignatureWindowOutlivesAnyCachedVerdict) {
  const dns::ResourceRecord sig = make_signature(*keys_, /*expiration=*/500);
  EXPECT_EQ(validator_.verify_rrset(rrset_, {sig}, dnskeys_),
            SigCheck::kValid);
  clock_.advance_seconds(1'000);
  // The window check precedes the probe: the memoized verdict can never
  // resurrect an expired signature.
  EXPECT_EQ(validator_.verify_rrset(rrset_, {sig}, dnskeys_),
            SigCheck::kExpired);
  EXPECT_EQ(counter("verdict.rsa_skipped"), 0u);
}

TEST_F(VerdictCacheTest, KeyRolloverChangesTheVerdictKey) {
  const dns::ResourceRecord sig = make_signature(*keys_);
  EXPECT_EQ(validator_.verify_rrset(rrset_, {sig}, dnskeys_),
            SigCheck::kValid);

  // New key material: the verdict key covers the public key bytes and tag,
  // so the rolled zone can never hit the old entry.
  crypto::SplitMix64 rng(77);
  const zone::ZoneKeys rolled = zone::ZoneKeys::generate(256, rng);
  const dns::RRset rolled_keys = dnskey_rrset(rolled);

  const dns::Bytes signed_data = dns::rrsig_signed_data(
      std::get<dns::RrsigRdata>(make_signature(*keys_).rdata), rrset_);
  EXPECT_NE(Validator::verdict_key(signed_data, {0x01, 0x02},
                                   keys_->zsk_record()),
            Validator::verdict_key(signed_data, {0x01, 0x02},
                                   rolled.zsk_record()));

  dns::RrsigRdata sig_rdata;
  sig_rdata.type_covered = dns::RRType::kA;
  sig_rdata.algorithm = 8;
  sig_rdata.labels = 2;
  sig_rdata.original_ttl = 300;
  sig_rdata.inception = 0;
  sig_rdata.expiration = 0x7FFFFFFF;
  sig_rdata.key_tag = rolled.zsk_tag();
  sig_rdata.signer = owner_;
  sig_rdata.signature = crypto::sign_message(
      rolled.zsk_private(), dns::rrsig_signed_data(sig_rdata, rrset_));
  const dns::ResourceRecord rolled_sig =
      dns::ResourceRecord::make(owner_, 300, dns::Rdata{sig_rdata});
  EXPECT_EQ(validator_.verify_rrset(rrset_, {rolled_sig}, rolled_keys),
            SigCheck::kValid);
  EXPECT_EQ(counter("verdict.miss"), 2u);
  EXPECT_EQ(counter("verdict.rsa_skipped"), 0u);
}

TEST_F(VerdictCacheTest, EpochFlushBoundsTheTable) {
  validator_.set_verdict_cache_entries(1);
  const dns::ResourceRecord sig_a = make_signature(*keys_);
  dns::RRset other(owner_, dns::RRType::kA);
  other.add(dns::ResourceRecord::make(owner_, 300, dns::ARdata{43}));
  dns::RrsigRdata sig;
  sig.type_covered = dns::RRType::kA;
  sig.algorithm = 8;
  sig.labels = 2;
  sig.original_ttl = 300;
  sig.inception = 0;
  sig.expiration = 0x7FFFFFFF;
  sig.key_tag = keys_->zsk_tag();
  sig.signer = owner_;
  sig.signature = crypto::sign_message(keys_->zsk_private(),
                                       dns::rrsig_signed_data(sig, other));
  const dns::ResourceRecord sig_b =
      dns::ResourceRecord::make(owner_, 300, dns::Rdata{sig});

  EXPECT_EQ(validator_.verify_rrset(rrset_, {sig_a}, dnskeys_),
            SigCheck::kValid);
  EXPECT_EQ(validator_.verify_rrset(other, {sig_b}, dnskeys_),
            SigCheck::kValid);
  EXPECT_GE(counter("verdict.flush"), 1u);
  // The first verdict was flushed: verifying it again is a miss, not a hit.
  EXPECT_EQ(validator_.verify_rrset(rrset_, {sig_a}, dnskeys_),
            SigCheck::kValid);
  EXPECT_EQ(counter("verdict.rsa_skipped"), 0u);
}

TEST_F(VerdictCacheTest, VerdictsCrossShardsThroughTheSharedStore) {
  SharedProofStore store;
  sim::SimClock clock_b;
  Validator sibling(clock_b);
  sibling.set_verdict_cache_entries(64);
  validator_.attach_shared(&store, 0);
  sibling.attach_shared(&store, 1);

  const dns::ResourceRecord sig = make_signature(*keys_);
  EXPECT_EQ(validator_.verify_rrset(rrset_, {sig}, dnskeys_),
            SigCheck::kValid);
  EXPECT_GE(store.verdict_count(), 1u);

  EXPECT_EQ(sibling.verify_rrset(rrset_, {sig}, dnskeys_), SigCheck::kValid);
  EXPECT_EQ(sibling.counters().value("verdict.rsa_skipped"), 1u);
  EXPECT_EQ(sibling.counters().value("verdict.shared_hit"), 1u);
  EXPECT_EQ(store.stats().verdict_sibling_hits, 1u);
}

// -- Scenario-level contracts -------------------------------------------------

serve::ScenarioOptions synth_mix(bool synthesis) {
  serve::ScenarioOptions options;
  options.universe_size = 2'000;
  options.seed = 7;
  options.mix.clients = 4;
  options.mix.queries_per_client = 20;
  options.mix.seed = 23;
  options.mix.zipf_support = 300;
  options.mix.mean_gap_us = 25'000ULL * 4;
  if (synthesis) {
    options.resolver_config.aggressive_synthesis = true;
    options.resolver_config.verdict_cache_entries =
        ResolverConfig::kDefaultVerdictCacheEntries;
  }
  return options;
}

TEST(SynthesisServe, ShardedMergedLeaksEqualTheSequentialReference) {
  const serve::ScenarioSummary expected =
      serve::run_sequential_reference(synth_mix(/*synthesis=*/true));

  for (const std::uint32_t shards : {1u, 4u}) {
    serve::ShardedOptions options;
    options.base = synth_mix(/*synthesis=*/true);
    options.shards = shards;
    options.shared_store = true;
    serve::ShardedServeScenario scenario(std::move(options));
    const serve::ShardedSummary result = scenario.run();
    EXPECT_EQ(result.merged.case2_total, expected.case2_total)
        << "shards=" << shards;
    EXPECT_EQ(result.merged.leaked_domains, expected.leaked_domains)
        << "shards=" << shards;
  }
}

TEST(SynthesisServe, SynthesisDoesNotChangeWhoLearnsWhatUncapped) {
  // With an unbounded cache the paper-era aggressive NSEC cache already
  // suppresses every repeat denial; full synthesis must not leak anything
  // new (it can only answer earlier, never query more).
  const serve::ScenarioSummary off_summary =
      serve::run_sequential_reference(synth_mix(/*synthesis=*/false));
  const serve::ScenarioSummary on_summary =
      serve::run_sequential_reference(synth_mix(/*synthesis=*/true));
  EXPECT_LE(on_summary.case2_total, off_summary.case2_total);
  for (const std::string& domain : on_summary.leaked_domains) {
    EXPECT_TRUE(off_summary.leaked_domains.count(domain) > 0) << domain;
  }
}

std::uint64_t capped_case2(bool synthesis, std::uint64_t cap_bytes) {
  core::UniverseExperiment::Options options;
  options.universe_size = 10'000;
  options.resolver_config = ResolverConfig::bind_yum();
  options.resolver_config.max_cache_bytes = cap_bytes;
  options.resolver_config.ns_fetch_probability = 0.0;
  if (synthesis) {
    options.resolver_config.aggressive_synthesis = true;
    options.resolver_config.verdict_cache_entries =
        ResolverConfig::kDefaultVerdictCacheEntries;
  }
  core::UniverseExperiment experiment(options);
  for (std::uint64_t round = 0; round < 3; ++round) {
    for (std::uint64_t rank = 1; rank <= 120; ++rank) {
      (void)experiment.stub().visit(
          experiment.world().universe().domain_at(rank));
    }
    experiment.clock().advance_seconds(2'100.0);
  }
  return experiment.analyzer().report().case2_queries;
}

TEST(SynthesisServe, SynthesisBendsTheCappedLeakCurveDown) {
  // Under byte-cap pressure the elision of redundant exact negatives (the
  // covering span already proves the denial) shrinks the footprint, so
  // fewer NSEC proofs are evicted and fewer Case-2 queries re-leak.
  const std::uint64_t off = capped_case2(/*synthesis=*/false, 16 * 1024);
  const std::uint64_t on = capped_case2(/*synthesis=*/true, 16 * 1024);
  EXPECT_LE(on, off);
  // Unbounded, the two configurations suppress identically.
  EXPECT_EQ(capped_case2(/*synthesis=*/true, 0),
            capped_case2(/*synthesis=*/false, 0));
}

}  // namespace
}  // namespace lookaside::resolver
