// Unit tests for zone data, lookup semantics, NSEC chains, signing and key
// material.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "crypto/dnssec_algo.h"
#include "crypto/rng.h"
#include "zone/keys.h"
#include "zone/signed_zone.h"
#include "zone/zone.h"

namespace lookaside::zone {
namespace {

dns::SoaRdata test_soa(const dns::Name& apex) {
  dns::SoaRdata soa;
  soa.primary_ns = apex.with_prefix_label("ns1");
  soa.responsible = apex.with_prefix_label("admin");
  soa.minimum_ttl = 900;
  return soa;
}

Zone make_com_zone() {
  const dns::Name apex = dns::Name::parse("com");
  Zone zone(apex, test_soa(apex));
  // Delegations.
  zone.add(dns::ResourceRecord::make(
      dns::Name::parse("example.com"), 3600,
      dns::NsRdata{dns::Name::parse("ns1.example.com")}));
  zone.add(dns::ResourceRecord::make(dns::Name::parse("ns1.example.com"), 3600,
                                     dns::ARdata{0x01010101}));  // glue
  zone.add(dns::ResourceRecord::make(
      dns::Name::parse("signed.com"), 3600,
      dns::NsRdata{dns::Name::parse("ns1.signed.com")}));
  zone.add(dns::ResourceRecord::make(dns::Name::parse("signed.com"), 3600,
                                     dns::DsRdata{1, 8, 2, dns::Bytes(32, 9)}));
  // In-zone host.
  zone.add(dns::ResourceRecord::make(dns::Name::parse("direct.com"), 3600,
                                     dns::ARdata{0x02020202}));
  return zone;
}

TEST(ZoneTest, RejectsOutOfZoneRecords) {
  Zone zone(dns::Name::parse("com"), test_soa(dns::Name::parse("com")));
  EXPECT_THROW(zone.add(dns::ResourceRecord::make(dns::Name::parse("a.org"),
                                                  60, dns::ARdata{1})),
               std::invalid_argument);
}

TEST(ZoneTest, AnswerLookup) {
  const Zone zone = make_com_zone();
  const LookupResult result =
      zone.lookup(dns::Name::parse("direct.com"), dns::RRType::kA);
  EXPECT_EQ(result.kind, LookupKind::kAnswer);
  ASSERT_NE(result.rrset, nullptr);
  EXPECT_EQ(result.rrset->type(), dns::RRType::kA);
}

TEST(ZoneTest, ReferralAtCut) {
  const Zone zone = make_com_zone();
  const LookupResult result =
      zone.lookup(dns::Name::parse("www.example.com"), dns::RRType::kA);
  EXPECT_EQ(result.kind, LookupKind::kReferral);
  EXPECT_EQ(result.cut, dns::Name::parse("example.com"));
  EXPECT_EQ(result.ds, nullptr);  // unsigned delegation

  const LookupResult signed_result =
      zone.lookup(dns::Name::parse("signed.com"), dns::RRType::kA);
  EXPECT_EQ(signed_result.kind, LookupKind::kReferral);
  ASSERT_NE(signed_result.ds, nullptr);
}

TEST(ZoneTest, DsQueryAtCutAnsweredByParent) {
  const Zone zone = make_com_zone();
  const LookupResult ds =
      zone.lookup(dns::Name::parse("signed.com"), dns::RRType::kDs);
  EXPECT_EQ(ds.kind, LookupKind::kAnswer);
  const LookupResult no_ds =
      zone.lookup(dns::Name::parse("example.com"), dns::RRType::kDs);
  EXPECT_EQ(no_ds.kind, LookupKind::kNoData);
}

TEST(ZoneTest, NoDataAndNxDomain) {
  const Zone zone = make_com_zone();
  EXPECT_EQ(zone.lookup(dns::Name::parse("direct.com"), dns::RRType::kMx).kind,
            LookupKind::kNoData);
  EXPECT_EQ(zone.lookup(dns::Name::parse("missing.com"), dns::RRType::kA).kind,
            LookupKind::kNxDomain);
  EXPECT_EQ(zone.lookup(dns::Name::parse("else.where"), dns::RRType::kA).kind,
            LookupKind::kNxDomain);
}

TEST(ZoneTest, CnameAnswersOtherTypes) {
  Zone zone = make_com_zone();
  zone.add(dns::ResourceRecord::make(
      dns::Name::parse("alias.com"), 3600,
      dns::CnameRdata{dns::Name::parse("direct.com")}));
  const LookupResult result =
      zone.lookup(dns::Name::parse("alias.com"), dns::RRType::kA);
  EXPECT_EQ(result.kind, LookupKind::kAnswer);
  EXPECT_EQ(result.rrset->type(), dns::RRType::kCname);
}

TEST(ZoneTest, CanonicalNeighborsAndWrap) {
  const Zone zone = make_com_zone();
  // Canonical order: com < direct.com < example.com < ns1.example.com <
  // signed.com.
  // "missing" sorts after the whole example.com subtree (including the
  // glue owner ns1.example.com) and before "signed".
  EXPECT_EQ(zone.canonical_predecessor(dns::Name::parse("missing.com")),
            dns::Name::parse("ns1.example.com"));
  EXPECT_EQ(zone.canonical_successor(dns::Name::parse("signed.com")),
            dns::Name::parse("com"));  // wraps to the apex
  EXPECT_EQ(zone.canonical_successor(dns::Name::parse("com")),
            dns::Name::parse("direct.com"));
}

TEST(ZoneTest, TypesAtName) {
  const Zone zone = make_com_zone();
  const auto types = zone.types_at(dns::Name::parse("signed.com"));
  EXPECT_EQ(types.size(), 2u);  // NS + DS
  EXPECT_TRUE(zone.types_at(dns::Name::parse("nothere.com")).empty());
}

// The oracle's key: a name's labels from the root down. std::map orders
// these lexicographically with each label compared as unsigned bytes,
// which is canonical order computed without dns::Name's compare, and an
// ancestor's key is a prefix of its descendants' keys.
using LabelKey = std::vector<std::string>;

LabelKey label_key(const dns::Name& name) {
  LabelKey out;
  for (std::size_t i = name.label_count(); i > 0; --i) {
    out.emplace_back(name.label(i - 1));
  }
  return out;
}

struct OracleNode {
  dns::Name name;
  std::map<dns::RRType, std::size_t> types;  // type -> record count
};
using ZoneOracle = std::map<LabelKey, OracleNode>;

/// A zone of at least `min_names` owners under "zone.test": apex NS/MX/TXT,
/// hosts, CNAMEs, delegations with and without DS plus glue below the cut,
/// and names nested under other owners. Every record's RDATA is distinct.
Zone make_random_zone(crypto::SplitMix64& rng, std::size_t min_names,
                      ZoneOracle& oracle) {
  const dns::Name apex = dns::Name::parse("zone.test");
  Zone zone(apex, test_soa(apex));
  std::uint32_t serial = 0;
  const auto types_at = [&oracle](const dns::Name& owner) -> auto& {
    OracleNode& node = oracle[label_key(owner)];
    node.name = owner;
    return node.types;
  };
  types_at(apex)[dns::RRType::kSoa] = 1;
  const auto add = [&](const dns::Name& owner, dns::Rdata rdata) {
    ++types_at(owner)[dns::rdata_type(rdata)];
    zone.add(dns::ResourceRecord::make(owner, 3600, std::move(rdata)));
  };
  add(apex, dns::NsRdata{apex.with_prefix_label("ns1")});
  add(apex, dns::MxRdata{10, apex.with_prefix_label("mail")});
  add(apex, dns::TxtRdata{{"apex"}});
  static constexpr char kAlphabet[] = "ab-0xy";
  const auto label = [&rng] {
    std::string out(1 + rng.next_below(5), 'a');
    for (char& c : out) c = kAlphabet[rng.next_below(sizeof kAlphabet - 1)];
    return out;
  };
  std::vector<dns::Name> owners = {apex};
  while (oracle.size() < min_names) {
    // Half the new names nest under an existing owner, so subtrees,
    // siblings and names below delegations all occur.
    const dns::Name& base =
        rng.next_below(2) == 0 ? apex : owners[rng.next_below(owners.size())];
    if (base.label_count() > apex.label_count() + 3) continue;
    const dns::Name owner = base.with_prefix_label(label());
    owners.push_back(owner);
    const std::uint64_t kind = rng.next_below(20);
    if (kind < 10) {
      add(owner, dns::ARdata{++serial});
      if (kind == 0) add(owner, dns::TxtRdata{{std::to_string(++serial)}});
    } else if (kind < 13) {
      if (types_at(owner).count(dns::RRType::kCname) == 0) {
        add(owner, dns::CnameRdata{owners[rng.next_below(owners.size())]});
      }
    } else if (kind < 17) {
      const dns::Name ns = owner.with_prefix_label("ns");
      add(owner, dns::NsRdata{ns});
      add(ns, dns::ARdata{++serial});  // glue, below the cut
      if (kind < 15) {
        add(owner, dns::DsRdata{static_cast<std::uint16_t>(++serial), 8, 2,
                                dns::Bytes(32, 7)});
      }
    } else {
      add(owner, dns::ARdata{++serial});
      dns::AaaaRdata aaaa;
      ++serial;
      std::copy_n(reinterpret_cast<const std::uint8_t*>(&serial),
                  sizeof serial, aaaa.address.begin());
      add(owner, aaaa);
    }
  }
  return zone;
}

/// Zone::lookup's contract, restated over the oracle: a delegation at or
/// above qname (below the apex, nearest the apex first) refers, unless
/// the query is for DS at the cut itself; otherwise exact-match answer,
/// CNAME, NODATA or NXDOMAIN.
struct ExpectedLookup {
  LookupKind kind = LookupKind::kNxDomain;
  dns::Name owner;  // owner of the expected rrset (or the cut)
  dns::RRType type = dns::RRType::kA;
  bool ds = false;
};

ExpectedLookup expected_lookup(const ZoneOracle& oracle, const dns::Name& apex,
                               const dns::Name& qname, const LabelKey& key,
                               dns::RRType qtype) {
  ExpectedLookup out;
  if (!qname.is_subdomain_of(apex)) return out;
  for (std::size_t depth = apex.label_count() + 1; depth <= key.size();
       ++depth) {
    const auto node = oracle.find(LabelKey(key.begin(), key.begin() + depth));
    if (node == oracle.end() || node->second.types.count(dns::RRType::kNs) == 0) {
      continue;
    }
    if (depth == key.size() && qtype == dns::RRType::kDs) break;
    out.kind = LookupKind::kReferral;
    out.owner = node->second.name;
    out.type = dns::RRType::kNs;
    out.ds = node->second.types.count(dns::RRType::kDs) != 0;
    return out;
  }
  const auto node = oracle.find(key);
  if (node == oracle.end()) return out;
  const auto& types = node->second.types;
  out.owner = qname;
  if (types.count(qtype) != 0) {
    out.kind = LookupKind::kAnswer;
    out.type = qtype;
  } else if (types.count(dns::RRType::kCname) != 0 &&
             qtype != dns::RRType::kCname) {
    out.kind = LookupKind::kAnswer;
    out.type = dns::RRType::kCname;
  } else {
    out.kind = LookupKind::kNoData;
  }
  return out;
}

/// Checks every exact-match and canonical-order query of `zone` against
/// `oracle`, on every owner and on `absent` names. Returns the number of
/// mismatches (each is also reported).
std::size_t check_zone_against_oracle(const Zone& zone,
                                      const ZoneOracle& oracle,
                                      const std::vector<dns::Name>& absent) {
  std::size_t bad = 0;
  const auto fail = [&bad](const dns::Name& name, const char* what) {
    if (++bad <= 5) ADD_FAILURE() << what << " at " << name.to_text();
  };
  const dns::RRType qtypes[] = {dns::RRType::kA,     dns::RRType::kAaaa,
                                dns::RRType::kNs,    dns::RRType::kDs,
                                dns::RRType::kCname, dns::RRType::kTxt,
                                dns::RRType::kMx,    dns::RRType::kSoa};
  const std::vector<dns::Name> owners = zone.owner_names();
  if (owners.size() != oracle.size() || zone.name_count() != oracle.size()) {
    fail(zone.apex(), "owner count");
  }
  std::size_t i = 0;
  for (const auto& [key, node] : oracle) {
    if (i >= owners.size() || owners[i] != node.name) {
      fail(node.name, "owner_names order");
    }
    ++i;
  }
  std::vector<dns::Name> probes = absent;
  for (const auto& [key, node] : oracle) probes.push_back(node.name);
  for (const dns::Name& name : probes) {
    const LabelKey key = label_key(name);
    const auto node = oracle.find(key);
    const bool present = node != oracle.end();
    if (zone.has_name(name) != present) fail(name, "has_name");
    std::vector<dns::RRType> want_types;
    if (present) {
      for (const auto& [type, count] : node->second.types) {
        want_types.push_back(type);
      }
    }
    if (zone.types_at(name) != want_types) fail(name, "types_at");
    for (const dns::RRType type : qtypes) {
      const dns::RRset* got = zone.find(name, type);
      const bool want = present && node->second.types.count(type) != 0;
      if ((got != nullptr) != want ||
          (got != nullptr &&
           (got->name() != name || got->type() != type ||
            got->size() != node->second.types.at(type)))) {
        fail(name, "find");
      }
      const ExpectedLookup expect =
          expected_lookup(oracle, zone.apex(), name, key, type);
      const LookupResult result = zone.lookup(name, type);
      bool ok = result.kind == expect.kind;
      if (ok && result.kind == LookupKind::kReferral) {
        ok = result.cut == expect.owner && result.rrset != nullptr &&
             result.rrset == zone.find(expect.owner, dns::RRType::kNs) &&
             (result.ds != nullptr) == expect.ds;
      } else if (ok && result.kind == LookupKind::kAnswer) {
        ok = result.rrset != nullptr && result.rrset->name() == expect.owner &&
             result.rrset->type() == expect.type;
      }
      if (!ok) fail(name, "lookup");
    }
    if (!name.is_subdomain_of(zone.apex())) continue;
    // Greatest owner <= name, and the next owner after it (wrapping).
    const auto after = oracle.upper_bound(key);
    const dns::Name& want_pred =
        after == oracle.begin() ? zone.apex() : std::prev(after)->second.name;
    if (zone.canonical_predecessor(name) != want_pred) fail(name, "predecessor");
    const dns::Name& want_succ = after == oracle.end()
                                     ? oracle.begin()->second.name
                                     : after->second.name;
    if (zone.canonical_successor(name) != want_succ) fail(name, "successor");
  }
  return bad;
}

TEST(ZoneCanonicalOrderTest, HashedLookupsMatchOrderedMapOracle) {
  crypto::SplitMix64 rng(0x5A0E);
  ZoneOracle oracle;
  auto zone = std::make_unique<Zone>(make_random_zone(rng, 5'000, oracle));
  ASSERT_GE(zone->name_count(), 5'000u);
  std::vector<dns::Name> absent;
  for (const auto& [key, node] : oracle) {
    if (absent.size() >= 2'000) break;
    if (rng.next_below(3) != 0) continue;
    const dns::Name& name = node.name;
    const dns::Name child = name.with_prefix_label("zz-absent");
    if (oracle.count(label_key(child)) == 0) absent.push_back(child);
    const dns::Name sibling = name == zone->apex()
                                  ? zone->apex().with_prefix_label("b0b")
                                  : name.parent().with_prefix_label("b0b");
    if (oracle.count(label_key(sibling)) == 0) absent.push_back(sibling);
  }
  absent.push_back(dns::Name::parse("zone.example"));  // outside the zone
  absent.push_back(dns::Name::root());
  EXPECT_EQ(check_zone_against_oracle(*zone, oracle, absent), 0u);

  // A copy indexes its own nodes: it must answer after the original dies.
  auto copy = std::make_unique<Zone>(*zone);
  Zone assigned(dns::Name::parse("other.test"),
                test_soa(dns::Name::parse("other.test")));
  assigned = *zone;
  zone.reset();
  EXPECT_EQ(check_zone_against_oracle(*copy, oracle, absent), 0u);
  EXPECT_EQ(check_zone_against_oracle(assigned, oracle, absent), 0u);

  // Move out, then assign back into the moved-from zone.
  Zone moved = std::move(*copy);
  EXPECT_EQ(check_zone_against_oracle(moved, oracle, absent), 0u);
  *copy = std::move(moved);
  EXPECT_EQ(check_zone_against_oracle(*copy, oracle, absent), 0u);
  Zone reassigned = std::move(assigned);
  assigned = reassigned;
  reassigned = Zone(dns::Name::parse("zone.test"),
                    test_soa(dns::Name::parse("zone.test")));
  EXPECT_EQ(check_zone_against_oracle(assigned, oracle, absent), 0u);
  // Adding to a copy leaves the zone it was copied from untouched.
  const dns::Name extra = dns::Name::parse("extra.zone.test");
  assigned.add(dns::ResourceRecord::make(extra, 60, dns::ARdata{1}));
  EXPECT_TRUE(assigned.has_name(extra));
  EXPECT_FALSE(copy->has_name(extra));
  EXPECT_EQ(check_zone_against_oracle(*copy, oracle, absent), 0u);
}

TEST(ZoneKeysTest, RecordsAndTags) {
  crypto::SplitMix64 rng(3);
  const ZoneKeys keys = ZoneKeys::generate(256, rng);
  EXPECT_FALSE(keys.zsk_record().is_ksk());
  EXPECT_TRUE(keys.ksk_record().is_ksk());
  EXPECT_NE(keys.zsk_tag(), keys.ksk_tag());
  EXPECT_EQ(keys.zsk_record().algorithm, 8);
}

TEST(ZoneKeysTest, MakeDsBindsOwnerAndKey) {
  crypto::SplitMix64 rng(4);
  const ZoneKeys keys = ZoneKeys::generate(256, rng);
  const dns::DsRdata ds1 = make_ds(dns::Name::parse("a.com"), keys.ksk_record());
  const dns::DsRdata ds2 = make_ds(dns::Name::parse("b.com"), keys.ksk_record());
  EXPECT_EQ(ds1.key_tag, keys.ksk_tag());
  EXPECT_EQ(ds1.digest_type, 2);
  EXPECT_EQ(ds1.digest.size(), 32u);
  EXPECT_NE(ds1.digest, ds2.digest);  // owner name is part of the digest
}

TEST(KeyPoolTest, DeterministicAssignment) {
  const KeyPool pool_a(4, 256, 11);
  const KeyPool pool_b(4, 256, 11);
  EXPECT_EQ(pool_a.keys_for(17).ksk_tag(), pool_b.keys_for(17).ksk_tag());
  EXPECT_EQ(pool_a.keys_for(1).ksk_tag(), pool_a.keys_for(5).ksk_tag());  // mod 4
}

class SignedZoneTest : public ::testing::Test {
 protected:
  SignedZoneTest() {
    crypto::SplitMix64 rng(5);
    zone_ = std::make_unique<SignedZone>(make_com_zone(),
                                         ZoneKeys::generate(256, rng));
  }
  std::unique_ptr<SignedZone> zone_;
};

TEST_F(SignedZoneTest, RrsigVerifiesWithZsk) {
  const dns::RRset* rrset =
      zone_->zone().find(dns::Name::parse("direct.com"), dns::RRType::kA);
  ASSERT_NE(rrset, nullptr);
  const dns::ResourceRecord rrsig = zone_->rrsig_for(*rrset);
  const auto& sig = std::get<dns::RrsigRdata>(rrsig.rdata);
  EXPECT_EQ(sig.key_tag, zone_->keys().zsk_tag());
  EXPECT_EQ(sig.signer, dns::Name::parse("com"));

  const auto key =
      crypto::RsaPublicKey::from_wire(zone_->keys().zsk_record().public_key);
  ASSERT_TRUE(key.has_value());
  EXPECT_TRUE(crypto::verify_message(*key, dns::rrsig_signed_data(sig, *rrset),
                                     sig.signature));
}

TEST_F(SignedZoneTest, DnskeySignedWithKsk) {
  const dns::ResourceRecord rrsig = zone_->rrsig_for(zone_->dnskey_rrset());
  EXPECT_EQ(std::get<dns::RrsigRdata>(rrsig.rdata).key_tag,
            zone_->keys().ksk_tag());
}

TEST_F(SignedZoneTest, SignatureCacheReused) {
  const dns::RRset* rrset =
      zone_->zone().find(dns::Name::parse("direct.com"), dns::RRType::kA);
  (void)zone_->rrsig_for(*rrset);
  const std::size_t after_first = zone_->signatures_computed();
  (void)zone_->rrsig_for(*rrset);
  EXPECT_EQ(zone_->signatures_computed(), after_first);
}

TEST_F(SignedZoneTest, NxdomainProofCoversName) {
  const dns::Name missing = dns::Name::parse("missing.com");
  const NsecProof proof = zone_->nxdomain_proof(missing);
  const auto& nsec = std::get<dns::NsecRdata>(proof.nsec.rdata);
  // owner < missing < next (or wrap).
  EXPECT_LT(proof.nsec.name.canonical_compare(missing), 0);
  const bool wraps = nsec.next == dns::Name::parse("com");
  EXPECT_TRUE(wraps || missing.canonical_compare(nsec.next) < 0);
  // Proof signature verifies.
  const auto& sig = std::get<dns::RrsigRdata>(proof.rrsig.rdata);
  dns::RRset nsec_set(proof.nsec.name, dns::RRType::kNsec);
  nsec_set.add(proof.nsec);
  const auto key =
      crypto::RsaPublicKey::from_wire(zone_->keys().zsk_record().public_key);
  EXPECT_TRUE(crypto::verify_message(
      *key, dns::rrsig_signed_data(sig, nsec_set), sig.signature));
}

TEST_F(SignedZoneTest, NodataProofOmitsType) {
  const NsecProof proof = zone_->nodata_proof(dns::Name::parse("direct.com"));
  const auto& nsec = std::get<dns::NsecRdata>(proof.nsec.rdata);
  EXPECT_EQ(proof.nsec.name, dns::Name::parse("direct.com"));
  // A exists at direct.com; MX does not.
  EXPECT_NE(std::find(nsec.types.begin(), nsec.types.end(), dns::RRType::kA),
            nsec.types.end());
  EXPECT_EQ(std::find(nsec.types.begin(), nsec.types.end(), dns::RRType::kMx),
            nsec.types.end());
}

TEST_F(SignedZoneTest, CorruptionBreaksVerification) {
  zone_->set_corrupt_signatures(true);
  const dns::RRset* rrset =
      zone_->zone().find(dns::Name::parse("direct.com"), dns::RRType::kA);
  const dns::ResourceRecord rrsig = zone_->rrsig_for(*rrset);
  const auto& sig = std::get<dns::RrsigRdata>(rrsig.rdata);
  const auto key =
      crypto::RsaPublicKey::from_wire(zone_->keys().zsk_record().public_key);
  EXPECT_FALSE(crypto::verify_message(
      *key, dns::rrsig_signed_data(sig, *rrset), sig.signature));
  // Turning corruption off restores good signatures.
  zone_->set_corrupt_signatures(false);
  const dns::ResourceRecord good = zone_->rrsig_for(*rrset);
  const auto& good_sig = std::get<dns::RrsigRdata>(good.rdata);
  EXPECT_TRUE(crypto::verify_message(
      *key, dns::rrsig_signed_data(good_sig, *rrset), good_sig.signature));
}

TEST_F(SignedZoneTest, DsForParentMatchesKsk) {
  const dns::DsRdata ds = zone_->ds_for_parent();
  EXPECT_EQ(ds.key_tag, zone_->keys().ksk_tag());
  EXPECT_EQ(ds, make_ds(dns::Name::parse("com"), zone_->keys().ksk_record()));
}

}  // namespace
}  // namespace lookaside::zone
