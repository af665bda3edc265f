// Tests for RRsets, canonical RRset images and RRSIG signed-data assembly —
// the byte strings DNSSEC signatures actually cover.
#include <gtest/gtest.h>

#include "crypto/dnssec_algo.h"
#include "crypto/rng.h"
#include "crypto/sha256.h"
#include "dns/record.h"
#include "dns/wire_io.h"

namespace lookaside::dns {
namespace {

TEST(RRsetTest, EnforcesNameTypeInvariant) {
  RRset rrset(Name::parse("example.com"), RRType::kA);
  rrset.add(ResourceRecord::make(Name::parse("example.com"), 300, ARdata{1}));
  EXPECT_THROW(rrset.add(ResourceRecord::make(Name::parse("other.com"), 300,
                                              ARdata{2})),
               std::invalid_argument);
  EXPECT_THROW(rrset.add(ResourceRecord::make(Name::parse("example.com"), 300,
                                              NsRdata{Name::parse("ns.com")})),
               std::invalid_argument);
  EXPECT_EQ(rrset.size(), 1u);
  EXPECT_EQ(rrset.ttl(), 300u);
}

TEST(RRsetTest, DefaultConstructedAdoptsFirstRecord) {
  RRset rrset;
  rrset.add(ResourceRecord::make(Name::parse("a.com"), 60, ARdata{7}));
  EXPECT_EQ(rrset.name(), Name::parse("a.com"));
  EXPECT_EQ(rrset.type(), RRType::kA);
  EXPECT_THROW(
      rrset.add(ResourceRecord::make(Name::parse("b.com"), 60, ARdata{8})),
      std::invalid_argument);
}

TEST(CanonicalImageTest, SortsByRdata) {
  RRset rrset(Name::parse("example.com"), RRType::kA);
  rrset.add(ResourceRecord::make(Name::parse("example.com"), 300, ARdata{9}));
  rrset.add(ResourceRecord::make(Name::parse("example.com"), 300, ARdata{3}));

  RRset reversed(Name::parse("example.com"), RRType::kA);
  reversed.add(ResourceRecord::make(Name::parse("example.com"), 300, ARdata{3}));
  reversed.add(ResourceRecord::make(Name::parse("example.com"), 300, ARdata{9}));

  // Canonical image is order-insensitive.
  EXPECT_EQ(canonical_rrset_image(rrset, 300),
            canonical_rrset_image(reversed, 300));
}

TEST(CanonicalImageTest, TtlReplacedByOriginalTtl) {
  RRset a(Name::parse("example.com"), RRType::kA);
  a.add(ResourceRecord::make(Name::parse("example.com"), 17, ARdata{1}));
  RRset b(Name::parse("example.com"), RRType::kA);
  b.add(ResourceRecord::make(Name::parse("example.com"), 9999, ARdata{1}));
  // Differing live TTLs canonicalize identically under the RRSIG original TTL.
  EXPECT_EQ(canonical_rrset_image(a, 300), canonical_rrset_image(b, 300));
  EXPECT_NE(canonical_rrset_image(a, 300), canonical_rrset_image(a, 600));
}

TEST(RrsigSignedDataTest, SensitiveToEveryField) {
  RRset rrset(Name::parse("example.com"), RRType::kA);
  rrset.add(ResourceRecord::make(Name::parse("example.com"), 300, ARdata{42}));

  RrsigRdata base;
  base.type_covered = RRType::kA;
  base.algorithm = 8;
  base.labels = 2;
  base.original_ttl = 300;
  base.expiration = 2000;
  base.inception = 1000;
  base.key_tag = 55;
  base.signer = Name::parse("example.com");

  const Bytes reference = rrsig_signed_data(base, rrset);

  RrsigRdata changed = base;
  changed.key_tag = 56;
  EXPECT_NE(rrsig_signed_data(changed, rrset), reference);

  changed = base;
  changed.expiration = 2001;
  EXPECT_NE(rrsig_signed_data(changed, rrset), reference);

  changed = base;
  changed.signer = Name::parse("evil.com");
  EXPECT_NE(rrsig_signed_data(changed, rrset), reference);

  RRset other(Name::parse("example.com"), RRType::kA);
  other.add(ResourceRecord::make(Name::parse("example.com"), 300, ARdata{43}));
  EXPECT_NE(rrsig_signed_data(base, other), reference);

  // RFC 4034 §6.2: each record's CLASS is part of the canonical form.
  ResourceRecord reclassed = rrset.records().front();
  reclassed.rr_class = static_cast<RRClass>(173);
  RRset reclassed_set(Name::parse("example.com"), RRType::kA);
  reclassed_set.add(reclassed);
  EXPECT_NE(rrsig_signed_data(base, reclassed_set), reference);

  // The signature field itself is never part of the signed data.
  changed = base;
  changed.signature = Bytes(64, 0xFF);
  EXPECT_EQ(rrsig_signed_data(changed, rrset), reference);
}

TEST(RecordTextTest, RendersKeyFields) {
  const auto a =
      ResourceRecord::make(Name::parse("example.com"), 300, ARdata{0x01020304});
  EXPECT_EQ(a.to_text(), "example.com. 300 IN A 1.2.3.4");
  // RFC 3597 §5: classes without a mnemonic render generically.
  auto unknown = a;
  unknown.rr_class = static_cast<RRClass>(173);
  EXPECT_EQ(unknown.to_text(), "example.com. 300 CLASS173 A 1.2.3.4");

  const auto dlv = ResourceRecord::make_typed(
      Name::parse("example.com.dlv.isc.org"), RRType::kDlv, 3600,
      DsRdata{7, 8, 2, {0xaa, 0xbb}});
  EXPECT_NE(dlv.to_text().find("DLV"), std::string::npos);
  EXPECT_NE(dlv.to_text().find("aabb"), std::string::npos);
}

TEST(DnskeyTest, KeyTagStableAndFlagSensitive) {
  DnskeyRdata zsk{0x0100, 3, 8, {1, 2, 3, 4}};
  DnskeyRdata ksk{0x0101, 3, 8, {1, 2, 3, 4}};
  EXPECT_FALSE(zsk.is_ksk());
  EXPECT_TRUE(ksk.is_ksk());
  EXPECT_NE(zsk.key_tag(), ksk.key_tag());
  const DnskeyRdata zsk_copy{0x0100, 3, 8, {1, 2, 3, 4}};
  EXPECT_EQ(zsk.key_tag(), zsk_copy.key_tag());
}

/// The RDATA's wire image as the codec writes it.
crypto::Bytes dnskey_wire(const DnskeyRdata& key) {
  ByteWriter writer;
  encode_rdata(Rdata{key}, writer);
  return writer.bytes();
}

TEST(DnskeyTest, KeyTagFromFieldsMatchesWireImage) {
  // The fixture of KeyTagTest.MatchesReferenceAlgorithm as fields:
  // 0x0101 + 0x0308 + 0x0301 + 0x0001 = 0x070B.
  const DnskeyRdata fixture{0x0101, 3, 8, {0x03, 0x01, 0x00, 0x01}};
  EXPECT_EQ(fixture.key_tag(), 0x070B);
  EXPECT_EQ(fixture.key_tag(), crypto::key_tag(dnskey_wire(fixture)));

  // Random fields and keys of every parity, empty included, up to lengths
  // whose sums wrap the 16-bit fold.
  crypto::SplitMix64 rng(0x4b6579546167);
  for (int i = 0; i < 2000; ++i) {
    DnskeyRdata key;
    key.flags = static_cast<std::uint16_t>(rng.next());
    key.protocol = static_cast<std::uint8_t>(rng.next());
    key.algorithm = static_cast<std::uint8_t>(rng.next());
    key.public_key.resize(rng.next_below(i < 1000 ? 40 : 600));
    rng.fill(key.public_key);
    ASSERT_EQ(key.key_tag(), crypto::key_tag(dnskey_wire(key)))
        << "key " << i << ", " << key.public_key.size() << " key bytes";
  }
}

}  // namespace
}  // namespace lookaside::dns
