// Parameterized property tests (TEST_P sweeps) over the system's core
// invariants:
//   - NSEC chains provide a covering denial for every absent name;
//   - the wire codec round-trips arbitrary generated messages;
//   - chain validation succeeds for every supported key size;
//   - leakage accounting partitions the DLV observation stream;
//   - resolution outcomes are deterministic given a seed.
#include <gtest/gtest.h>

#include <ostream>
#include <set>

#include "core/experiment.h"
#include "crypto/dnssec_algo.h"
#include "crypto/rng.h"
#include "dns/codec.h"
#include "resolver/resolver.h"
#include "server/testbed.h"
#include "zone/signed_zone.h"

namespace lookaside {
namespace {

// ---------------------------------------------------------------------------
// NSEC chain coverage property.
// ---------------------------------------------------------------------------

class NsecChainProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NsecChainProperty, EveryAbsentNameHasAValidCoveringProof) {
  const std::uint64_t seed = GetParam();
  crypto::SplitMix64 rng(seed);

  // Random zone under "org" with 5-40 names.
  const dns::Name apex = dns::Name::parse("org");
  dns::SoaRdata soa;
  soa.primary_ns = dns::Name::parse("ns1.org");
  soa.responsible = dns::Name::parse("admin.org");
  soa.minimum_ttl = 600;
  zone::Zone plain(apex, soa);
  const std::uint64_t count = 5 + rng.next_below(36);
  std::set<std::string> present;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::string label = "n" + std::to_string(rng.next_below(500));
    present.insert(label);
    plain.add(dns::ResourceRecord::make(
        apex.with_prefix_label(label), 300,
        dns::ARdata{static_cast<std::uint32_t>(rng.next())}));
  }
  crypto::SplitMix64 key_rng(seed + 1000);
  zone::SignedZone zone(std::move(plain),
                        zone::ZoneKeys::generate(256, key_rng));
  const auto key = crypto::RsaPublicKey::from_wire(
      zone.keys().zsk_record().public_key);
  ASSERT_TRUE(key.has_value());

  // Every absent label must get a covering NSEC whose range contains it and
  // whose signature verifies against the zone key.
  for (std::uint64_t probe = 0; probe < 60; ++probe) {
    const std::string label = "n" + std::to_string(rng.next_below(1000));
    if (present.count(label) != 0) continue;
    const dns::Name missing = apex.with_prefix_label(label);
    const zone::NsecProof proof = zone.nxdomain_proof(missing);
    const auto& nsec = std::get<dns::NsecRdata>(proof.nsec.rdata);

    EXPECT_LE(proof.nsec.name.canonical_compare(missing), 0)
        << proof.nsec.name.to_text() << " !<= " << missing.to_text();
    const bool wraps = nsec.next == apex;
    EXPECT_TRUE(wraps || missing.canonical_compare(nsec.next) < 0)
        << missing.to_text() << " !< " << nsec.next.to_text();

    dns::RRset nsec_set(proof.nsec.name, dns::RRType::kNsec);
    nsec_set.add(proof.nsec);
    const auto& sig = std::get<dns::RrsigRdata>(proof.rrsig.rdata);
    EXPECT_TRUE(crypto::verify_message(
        *key, dns::rrsig_signed_data(sig, nsec_set), sig.signature));
  }
}

INSTANTIATE_TEST_SUITE_P(RandomZones, NsecChainProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---------------------------------------------------------------------------
// Codec round-trip property over message shapes.
// ---------------------------------------------------------------------------

struct CodecShape {
  int answers;
  int authorities;
  bool edns;
  bool nxdomain;
};

// Names each case by its fields. Without this, gtest prints the struct's raw
// bytes, including two uninitialized padding bytes, so a case's name changed
// from build to build.
void PrintTo(const CodecShape& shape, std::ostream* os) {
  *os << "answers=" << shape.answers << " authorities=" << shape.authorities
      << " edns=" << shape.edns << " nxdomain=" << shape.nxdomain;
}

class CodecRoundTripProperty : public ::testing::TestWithParam<CodecShape> {};

TEST_P(CodecRoundTripProperty, EncodeDecodeIdentity) {
  const CodecShape shape = GetParam();
  crypto::SplitMix64 rng(static_cast<std::uint64_t>(shape.answers) * 131 +
                         static_cast<std::uint64_t>(shape.authorities) * 7 +
                         shape.edns + shape.nxdomain * 2);
  for (int iteration = 0; iteration < 40; ++iteration) {
    dns::Message message;
    message.header.id = static_cast<std::uint16_t>(rng.next());
    message.header.qr = true;
    message.header.aa = rng.next_below(2);
    message.header.z = rng.next_below(2);
    message.header.rcode =
        shape.nxdomain ? dns::RCode::kNxDomain : dns::RCode::kNoError;
    message.edns = shape.edns;
    message.dnssec_ok = shape.edns && rng.next_below(2);
    const dns::Name qname = dns::Name::parse(
        "q" + std::to_string(rng.next_below(10000)) + ".example.net");
    message.questions.push_back(
        dns::Question{qname, dns::RRType::kA, dns::RRClass::kIn});
    for (int i = 0; i < shape.answers; ++i) {
      message.answers.push_back(dns::ResourceRecord::make(
          qname, static_cast<std::uint32_t>(rng.next_below(7200)),
          dns::ARdata{static_cast<std::uint32_t>(rng.next())}));
    }
    for (int i = 0; i < shape.authorities; ++i) {
      dns::NsecRdata nsec;
      nsec.next = dns::Name::parse("x" + std::to_string(i) + ".example.net");
      nsec.types = {dns::RRType::kA, dns::RRType::kNsec, dns::RRType::kDlv};
      message.authorities.push_back(dns::ResourceRecord::make(
          dns::Name::parse("w" + std::to_string(i) + ".example.net"), 600,
          dns::Rdata{nsec}));
    }
    EXPECT_EQ(dns::decode_message(dns::encode_message(message)), message);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CodecRoundTripProperty,
    ::testing::Values(CodecShape{0, 0, false, false},
                      CodecShape{1, 0, true, false},
                      CodecShape{3, 2, true, false},
                      CodecShape{0, 4, true, true},
                      CodecShape{8, 8, false, false},
                      CodecShape{2, 1, false, true}));

// ---------------------------------------------------------------------------
// Chain validation across key sizes.
// ---------------------------------------------------------------------------

class KeySizeProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(KeySizeProperty, FullChainValidatesAtEveryKeySize) {
  server::TestbedOptions options;
  options.key_bits = GetParam();
  server::Testbed testbed(options, {{"secure.com", true, true, false, {}},
                                    {"plain.com", false, false, false, {}}});
  sim::SimClock clock;
  sim::Network network(clock);
  resolver::RecursiveResolver resolver(
      network, testbed.directory(),
      resolver::ResolverConfig::unbound_package());
  resolver.set_root_trust_anchor(testbed.root_trust_anchor());

  EXPECT_EQ(resolver.resolve({dns::Name::parse("secure.com"), dns::RRType::kA})
                .status,
            resolver::ValidationStatus::kSecure);
  EXPECT_EQ(resolver.resolve({dns::Name::parse("plain.com"), dns::RRType::kA})
                .status,
            resolver::ValidationStatus::kInsecure);
}

INSTANTIATE_TEST_SUITE_P(KeySizes, KeySizeProperty,
                         ::testing::Values(256, 384, 512, 768));

// ---------------------------------------------------------------------------
// Leakage accounting partition property across seeds.
// ---------------------------------------------------------------------------

class LeakagePartitionProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(LeakagePartitionProperty, ObservationsPartitionExactly) {
  core::UniverseExperiment::Options options;
  options.universe_size = 4'000;
  options.seed = GetParam();
  core::UniverseExperiment experiment(options);
  const core::LeakageReport report = experiment.run_topn(150);

  // Queries partition into Case-1 and Case-2.
  EXPECT_EQ(report.case1_queries + report.case2_queries, report.dlv_queries);
  // Distinct domains bound the query counts.
  EXPECT_LE(report.distinct_leaked_domains, report.case2_queries);
  EXPECT_LE(report.distinct_case1_domains, report.case1_queries);
  // No domain can leak that was not visited (strip queries stay above the
  // registrable cut in this workload).
  EXPECT_LE(report.distinct_leaked_domains + report.distinct_case1_domains,
            report.domains_visited);
  EXPECT_GT(report.distinct_leaked_domains, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LeakagePartitionProperty,
                         ::testing::Values(11, 22, 33, 44, 55));

// ---------------------------------------------------------------------------
// Determinism property: identical seeds -> identical outcomes.
// ---------------------------------------------------------------------------

class DeterminismProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DeterminismProperty, RunsAreExactlyReproducible) {
  auto run = [&] {
    core::UniverseExperiment::Options options;
    options.universe_size = 3'000;
    options.seed = GetParam();
    core::UniverseExperiment experiment(options);
    const core::LeakageReport report = experiment.run_topn(80);
    const core::PhaseMetrics metrics = experiment.metrics();
    return std::make_tuple(report.dlv_queries, report.distinct_leaked_domains,
                           metrics.queries, metrics.response_seconds,
                           metrics.megabytes);
  };
  EXPECT_EQ(run(), run());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeterminismProperty,
                         ::testing::Values(7, 99, 1234));

}  // namespace
}  // namespace lookaside
