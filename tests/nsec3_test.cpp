// NSEC3 hashed denial: iterated-hash edge cases against the RFC 5155
// Appendix A vectors, base32hex round-trips, zone-side chain/proof
// construction, validator-side proof checking with metered hash cost, the
// RFC 9276 iteration-cap policy, and CPU-budget admission at the serving
// frontend (ctest -L nsec3).
#include <gtest/gtest.h>

#include <stdexcept>

#include "crypto/sha1.h"
#include "resolver/validator.h"
#include "serve/sharded.h"
#include "sim/clock.h"
#include "workload/client_mix.h"
#include "zone/keys.h"
#include "zone/nsec3.h"
#include "zone/signed_zone.h"
#include "zone/zone.h"

namespace lookaside {
namespace {

const crypto::Bytes kRfcSalt = {0xaa, 0xbb, 0xcc, 0xdd};

// ---- Iterated hash: RFC 5155 Appendix A vectors (salt aabbccdd, 12). ----

TEST(Nsec3HashTest, MatchesRfc5155AppendixA) {
  const auto owner_hash = [](const char* name) {
    return zone::base32hex_encode(
        zone::nsec3_hash(dns::Name::parse(name), kRfcSalt, 12));
  };
  EXPECT_EQ(owner_hash("example"), "0p9mhaveqvm6t7vbl5lop2u3t2rp3tom");
  EXPECT_EQ(owner_hash("a.example"), "35mthgpgcu1qg68fab165klnsnk3dpvl");
  EXPECT_EQ(owner_hash("ai.example"), "gjeqe526plbf1g8mklp59enfd789njgi");
  EXPECT_EQ(owner_hash("x.y.w.example"), "2vptu5timamqttgl4luu9kg21e0aor3s");
  EXPECT_EQ(owner_hash("*.w.example"), "r53bq7cc2uvmubfu5ocmm6pers9tk9en");
}

TEST(Nsec3HashTest, ZeroIterationsIsOneHashOfNamePlusSalt) {
  const dns::Name name = dns::Name::parse("example.org");
  crypto::Bytes input = name.to_wire();
  input.insert(input.end(), kRfcSalt.begin(), kRfcSalt.end());
  EXPECT_EQ(zone::nsec3_hash(name, kRfcSalt, 0), crypto::Sha1::digest(input));
  EXPECT_EQ(zone::nsec3_hash_ops(0), 1u);
}

TEST(Nsec3HashTest, EmptySaltIsValid) {
  const dns::Name name = dns::Name::parse("example.org");
  const crypto::Bytes empty_salted = zone::nsec3_hash(name, {}, 3);
  EXPECT_EQ(empty_salted.size(), 20u);
  // The salt must actually participate: same name, different salt, new hash.
  EXPECT_NE(empty_salted, zone::nsec3_hash(name, kRfcSalt, 3));
  EXPECT_EQ(zone::nsec3_hash(name, {}, 0), crypto::Sha1::digest(name.to_wire()));
}

TEST(Nsec3HashTest, MaxCapIterationsTerminatesAndDiffers) {
  // The u16 ceiling: 65535 extra invocations — the worst bill a single
  // attacker-supplied NSEC3PARAM can demand.
  const dns::Name name = dns::Name::parse("example.org");
  const crypto::Bytes at_cap = zone::nsec3_hash(name, kRfcSalt, 65535);
  EXPECT_EQ(at_cap.size(), 20u);
  EXPECT_NE(at_cap, zone::nsec3_hash(name, kRfcSalt, 65534));
  EXPECT_EQ(zone::nsec3_hash_ops(65535), 65536u);
}

/// RFC 5155 §5 written out with a fresh streaming Sha1 per round, the way
/// the spec reads: the oracle for the precomputed-buffer iteration loop.
crypto::Bytes naive_nsec3_hash(const dns::Name& name,
                               const crypto::Bytes& salt,
                               std::uint16_t iterations) {
  crypto::Sha1 first;
  first.update(name.to_wire());
  first.update(salt);
  crypto::Bytes digest = first.finish();
  for (std::uint16_t k = 0; k < iterations; ++k) {
    crypto::Sha1 round;
    round.update(digest);
    round.update(salt);
    digest = round.finish();
  }
  return digest;
}

TEST(Nsec3HashTest, EverySaltLengthMatchesStreamingReference) {
  // digest || salt is one padded block up to a 35-byte salt, two from 36,
  // and five at the 255-byte maximum. Literals at 100 iterations are from
  // Python's hashlib over the same message.
  struct Case {
    std::size_t salt_length;
    const char* at_100;
  };
  constexpr Case kCases[] = {
      {0, "f62257d5d18c1b145d9f3289e261c294a2c9fb51"},
      {35, "1e5e1616fcac8af671dd5eff285bffacabc53fb2"},
      {36, "1fb9636bd2e9292dd78f75bca1db5595b41a49ca"},
      {64, "269f1e5b5636f34d1176805409fe331a7c5a6a95"},
      {255, "a6d21679702f9a87ef1d79df82f342e712577362"},
  };
  const dns::Name name = dns::Name::parse("a.example.org");
  for (const Case& c : kCases) {
    crypto::Bytes salt(c.salt_length);
    for (std::size_t i = 0; i < salt.size(); ++i) {
      salt[i] = static_cast<std::uint8_t>(i * 13 + 5);
    }
    for (const std::uint16_t iterations : {0, 1, 100}) {
      EXPECT_EQ(zone::nsec3_hash(name, salt, iterations),
                naive_nsec3_hash(name, salt, iterations))
          << "salt=" << c.salt_length << " iterations=" << iterations;
    }
    EXPECT_EQ(crypto::to_hex(zone::nsec3_hash(name, salt, 100)), c.at_100)
        << "salt=" << c.salt_length;
  }
}

TEST(Nsec3HashTest, SaltLongerThanTheWireFieldIsRejected) {
  const dns::Name name = dns::Name::parse("example.org");
  EXPECT_THROW((void)zone::nsec3_hash(name, crypto::Bytes(256, 0x5a), 1),
               std::invalid_argument);
}

TEST(Nsec3HashTest, HashIsCaseInsensitive) {
  EXPECT_EQ(zone::nsec3_hash(dns::Name::parse("ExAmPlE.OrG"), kRfcSalt, 5),
            zone::nsec3_hash(dns::Name::parse("example.org"), kRfcSalt, 5));
}

// ---- base32hex (RFC 4648 §7). ----

TEST(Base32HexTest, RoundTripsTwentyByteDigests) {
  const crypto::Bytes digest =
      zone::nsec3_hash(dns::Name::parse("round.trip"), kRfcSalt, 7);
  const std::string encoded = zone::base32hex_encode(digest);
  EXPECT_EQ(encoded.size(), 32u);
  EXPECT_EQ(zone::base32hex_decode(encoded), digest);
}

TEST(Base32HexTest, DecodeAcceptsUpperCase) {
  EXPECT_EQ(zone::base32hex_decode("7S"), zone::base32hex_decode("7s"));
}

TEST(Base32HexTest, DecodeRejectsBadInput) {
  EXPECT_THROW((void)zone::base32hex_decode("wxyz"), std::invalid_argument);
  EXPECT_THROW((void)zone::base32hex_decode("0"), std::invalid_argument);
  // 10 bits -> one byte + two leftover bits that are not zero padding.
  EXPECT_THROW((void)zone::base32hex_decode("7v"), std::invalid_argument);
}

TEST(Base32HexTest, EncodingPreservesDigestOrder) {
  // NSEC3 chains sort hashed owner labels lexicographically; that only
  // denies correctly because base32hex keeps the numeric digest order.
  const crypto::Bytes lo(20, 0x10);
  const crypto::Bytes hi(20, 0x11);
  EXPECT_LT(zone::base32hex_encode(lo), zone::base32hex_encode(hi));
}

// ---- Zone-side chain + validator-side proof checking. ----

class Nsec3ZoneTest : public ::testing::Test {
 protected:
  Nsec3ZoneTest() {
    const dns::Name apex = dns::Name::parse("dlv.example");
    dns::SoaRdata soa;
    soa.primary_ns = apex.with_prefix_label("ns1");
    soa.responsible = apex.with_prefix_label("admin");
    soa.minimum_ttl = 900;
    zone::Zone zone(apex, soa);
    zone.add(dns::ResourceRecord::make(
        dns::Name::parse("alpha.dlv.example"), 3600, dns::ARdata{0x01010101}));
    zone.add(dns::ResourceRecord::make(
        dns::Name::parse("beta.dlv.example"), 3600, dns::ARdata{0x02020202}));
    crypto::SplitMix64 rng(5);
    zone_ = std::make_unique<zone::SignedZone>(std::move(zone),
                                               zone::ZoneKeys::generate(256, rng));
    zone_->enable_nsec3(zone::Nsec3Params{11, kRfcSalt});
  }

  /// Packs proofs into the shape the validator sees (an authority section).
  resolver::GroupedSection as_authority(
      const std::vector<zone::NsecProof>& proofs) {
    std::vector<dns::ResourceRecord> section;
    for (const zone::NsecProof& proof : proofs) {
      section.push_back(proof.nsec);
      section.push_back(proof.rrsig);
    }
    return resolver::group_section(section);
  }

  std::unique_ptr<zone::SignedZone> zone_;
  sim::SimClock clock_;
  resolver::Validator validator_{clock_};
};

TEST_F(Nsec3ZoneTest, ApexCarriesNsec3Param) {
  const dns::RRset* param = zone_->zone().find(
      dns::Name::parse("dlv.example"), dns::RRType::kNsec3Param);
  ASSERT_NE(param, nullptr);
  const auto& rdata =
      std::get<dns::Nsec3ParamRdata>(param->records().front().rdata);
  EXPECT_EQ(rdata.iterations, 11);
  EXPECT_EQ(rdata.salt, kRfcSalt);
}

TEST_F(Nsec3ZoneTest, NxdomainProofVerifiesWithMeteredCost) {
  const dns::Name missing = dns::Name::parse("gamma.dlv.example");
  const resolver::GroupedSection authority =
      as_authority(zone_->nsec3_nxdomain_proof(missing));
  const resolver::Nsec3Check check = validator_.check_nsec3_denial(
      authority, missing, dns::Name::parse("dlv.example"),
      zone_->dnskey_rrset());
  EXPECT_TRUE(check.proven);
  EXPECT_EQ(check.iterations, 11);
  // Closest-encloser discovery hashed at least qname, one ancestor and the
  // wildcard — each a full iterated chain.
  EXPECT_GE(check.hash_ops, 3 * zone::nsec3_hash_ops(11));
}

TEST_F(Nsec3ZoneTest, NodataProofVerifies) {
  const dns::Name present = dns::Name::parse("alpha.dlv.example");
  const resolver::GroupedSection authority =
      as_authority(zone_->nsec3_nodata_proof(present));
  const resolver::Nsec3Check check = validator_.check_nsec3_denial(
      authority, present, dns::Name::parse("dlv.example"),
      zone_->dnskey_rrset());
  EXPECT_TRUE(check.proven);
}

TEST_F(Nsec3ZoneTest, ProofWithoutClosestEncloserDoesNotVerify) {
  // Strip the NSEC3 that matches the closest encloser (the apex) from
  // gamma's proof: the §8.4 ancestor walk then never finds a match, so the
  // remaining covering spans alone must not convince the validator.
  const dns::Name apex = dns::Name::parse("dlv.example");
  const dns::Name missing = dns::Name::parse("gamma.dlv.example");
  const dns::Name apex_owner = zone::nsec3_owner(apex, apex, kRfcSalt, 11);
  std::vector<zone::NsecProof> proofs;
  for (zone::NsecProof& proof : zone_->nsec3_nxdomain_proof(missing)) {
    if (proof.nsec.name == apex_owner) continue;
    proofs.push_back(std::move(proof));
  }
  const resolver::Nsec3Check check = validator_.check_nsec3_denial(
      as_authority(proofs), missing, apex, zone_->dnskey_rrset());
  EXPECT_FALSE(check.proven);
}

TEST_F(Nsec3ZoneTest, QnameOutsideApexDoesNotVerify) {
  const resolver::GroupedSection authority = as_authority(
      zone_->nsec3_nxdomain_proof(dns::Name::parse("gamma.dlv.example")));
  const resolver::Nsec3Check check = validator_.check_nsec3_denial(
      authority, dns::Name::parse("gamma.other.example"),
      dns::Name::parse("dlv.example"), zone_->dnskey_rrset());
  EXPECT_FALSE(check.proven);
}

TEST_F(Nsec3ZoneTest, TamperedProofDoesNotVerify) {
  const dns::Name missing = dns::Name::parse("gamma.dlv.example");
  std::vector<zone::NsecProof> proofs = zone_->nsec3_nxdomain_proof(missing);
  auto& rdata = std::get<dns::Nsec3Rdata>(proofs.front().nsec.rdata);
  rdata.next_hashed[0] ^= 0x01;  // break the span (and the signature)
  const resolver::Nsec3Check check = validator_.check_nsec3_denial(
      as_authority(proofs), missing, dns::Name::parse("dlv.example"),
      zone_->dnskey_rrset());
  EXPECT_FALSE(check.proven);
}

// ---- Resolver policy + frontend admission, end to end. ----

serve::ScenarioOptions nsec3_scenario(std::uint16_t iterations) {
  serve::ScenarioOptions options;
  options.universe_size = 1'000;
  options.seed = 5;
  options.mix.clients = 4;
  options.mix.queries_per_client = 12;
  options.mix.zipf_support = 200;
  options.mix.mean_gap_us = 100'000;
  options.dlv.nsec3_enabled = true;
  options.dlv.nsec3_iterations = iterations;
  options.dlv.nsec3_salt = kRfcSalt;
  options.resolver_config = resolver::ResolverConfig::bind_yum();
  options.resolver_config.nsec3_hash_cost_ns = 2'000;
  return options;
}

/// One shared resolver behind the frontend: a one-shard serving run.
serve::ScenarioSummary serve_one(serve::ScenarioOptions options) {
  serve::ShardedOptions sharded;
  sharded.base = std::move(options);
  return serve::ShardedServeScenario(std::move(sharded)).run().merged;
}

TEST(Nsec3PolicyTest, UncappedResolverPaysPerIteration) {
  serve::ScenarioOptions cheap = nsec3_scenario(16);
  serve::ScenarioOptions dear = nsec3_scenario(800);
  const serve::ScenarioSummary cheap_run = serve_one(cheap);
  const serve::ScenarioSummary dear_run = serve_one(dear);
  EXPECT_GT(cheap_run.validation_cpu_us, 0u);
  // 50x the iterations must cost well over an order of magnitude more.
  EXPECT_GT(dear_run.validation_cpu_us, cheap_run.validation_cpu_us * 10);
}

TEST(Nsec3PolicyTest, Rfc9276CapSkipsOverCapHashing) {
  serve::ScenarioOptions options = nsec3_scenario(800);
  options.resolver_config.nsec3_iteration_cap = 150;  // downgrade-to-insecure
  const serve::ScenarioSummary capped = serve_one(options);
  EXPECT_EQ(capped.validation_cpu_us, 0u);
  // The denials still resolve (downgraded, not SERVFAILed): leaks happen.
  EXPECT_GT(capped.case2_total, 0u);
}

TEST(Nsec3PolicyTest, CapUnderIterationsStillHashes) {
  serve::ScenarioOptions options = nsec3_scenario(100);
  options.resolver_config.nsec3_iteration_cap = 150;
  const serve::ScenarioSummary run = serve_one(options);
  EXPECT_GT(run.validation_cpu_us, 0u);
}

TEST(Nsec3AdmissionTest, StarvedBudgetShedsWithServfail) {
  serve::ScenarioOptions options = nsec3_scenario(800);
  // A budget far below the workload's validation demand: after the burst
  // is spent, queries must shed instead of hashing.
  options.frontend.cpu_budget_us_per_s = 200;
  options.frontend.cpu_burst_us = 2'000;
  const serve::ScenarioSummary run = serve_one(options);
  EXPECT_GT(run.cpu_drops, 0u);

  // Same world without the budget: nothing sheds.
  const serve::ScenarioSummary open = serve_one(nsec3_scenario(800));
  EXPECT_EQ(open.cpu_drops, 0u);
}

TEST(Nsec3AdmissionTest, GenerousBudgetNeverSheds) {
  serve::ScenarioOptions options = nsec3_scenario(800);
  options.frontend.cpu_budget_us_per_s = 10'000'000;
  options.frontend.cpu_burst_us = 10'000'000;
  const serve::ScenarioSummary run = serve_one(options);
  EXPECT_EQ(run.cpu_drops, 0u);
  EXPECT_GT(run.validation_cpu_us, 0u);
}

// ---- Adversarial ClientMix. ----

TEST(Nsec3MixTest, AttackFractionSplitsThePopulation) {
  workload::ClientMixOptions options;
  options.clients = 8;
  options.attack_fraction = 0.5;
  EXPECT_EQ(workload::ClientMix(options).first_attacker(), 4u);
  options.attack_fraction = 0.0;
  EXPECT_EQ(workload::ClientMix(options).first_attacker(), 8u);
  options.attack_fraction = 1.0;
  EXPECT_EQ(workload::ClientMix(options).first_attacker(), 0u);
}

TEST(Nsec3MixTest, AttackersCacheBustWhileBenignShareAHead) {
  workload::Universe universe({.seed = 41, .size = 2'000});
  workload::ClientMixOptions options;
  options.clients = 4;
  options.queries_per_client = 40;
  options.zipf_support = 25;
  options.attack_fraction = 0.5;
  const workload::ClientMix mix(options);
  const std::vector<workload::ClientQuery> schedule = mix.generate(universe);

  std::set<std::string> benign_names;
  std::set<std::string> attacker_names;
  std::uint64_t attacker_queries = 0;
  for (const workload::ClientQuery& query : schedule) {
    if (query.type != dns::RRType::kA) continue;
    if (query.client < mix.first_attacker()) {
      benign_names.insert(query.name.to_text());
    } else {
      attacker_names.insert(query.name.to_text());
      ++attacker_queries;
    }
  }
  // The benign head is bounded by the Zipf support; the attackers draw
  // nearly distinct names across the whole universe.
  EXPECT_LE(benign_names.size(), 25u);
  EXPECT_GT(attacker_names.size(), attacker_queries * 9 / 10);

  // Determinism: the schedule is a pure function of its options.
  EXPECT_EQ(schedule.size(), mix.generate(universe).size());
}

}  // namespace
}  // namespace lookaside
