// Codec properties: the size-only encoder agrees with the byte encoder on
// every shape the simulator can build, and the byte encoder's output for a
// fixed set of fixture messages is pinned.
//
// sim::Network prices every packet with wire_size() and the resolver cache
// charges records by rdata_wire_length(); both count without encoding, so
// these tests are what ties the paper's traffic-volume results to the
// bytes encode_message() would put on the wire.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "crypto/rng.h"
#include "dns/codec.h"

namespace lookaside::dns {
namespace {

constexpr std::uint16_t kMaxPointerOffset = 0x3FFF;

Message response_to(const std::string& name, RRType type) {
  return Message::make_response(Message::make_query(
      0x1234, Name::parse(name), type, /*recursion_desired=*/true,
      /*dnssec_ok=*/true));
}

RrsigRdata sample_rrsig(const Name& signer) {
  RrsigRdata sig;
  sig.type_covered = RRType::kA;
  sig.labels = 2;
  sig.original_ttl = 300;
  sig.expiration = 1000000;
  sig.inception = 900000;
  sig.key_tag = 4242;
  sig.signer = signer;
  sig.signature = Bytes(64, 0x5a);
  return sig;
}

/// One payload of every RDATA alternative.
std::vector<Rdata> every_rdata() {
  AaaaRdata aaaa;
  for (std::size_t i = 0; i < 16; ++i) aaaa.address[i] = static_cast<std::uint8_t>(i);
  const Name owner = Name::parse("example.com");
  return {
      ARdata{0x5DB8D822},
      aaaa,
      NsRdata{Name::parse("ns1.example.com")},
      CnameRdata{Name::parse("alias.example.com")},
      PtrRdata{Name::parse("host.example.com")},
      MxRdata{10, Name::parse("mail.example.com")},
      SoaRdata{Name::parse("ns1.example.com"), Name::parse("admin.example.com"),
               2024010101, 7200, 3600, 1209600, 3600},
      TxtRdata{{"dlv=1", "", "second string"}},
      DnskeyRdata{0x0101, 3, 8, {0x01, 0x00, 0x01, 0xab}},
      DsRdata{12345, 8, 2, Bytes(32, 0xcd)},
      sample_rrsig(owner),
      NsecRdata{Name::parse("next.example.com"),
                {RRType::kA, RRType::kNs, RRType::kRrsig, RRType::kNsec,
                 RRType::kDlv}},
      Nsec3Rdata{1, 0, 10, {0xab, 0xcd}, Bytes(20, 0x77),
                 {RRType::kA, RRType::kRrsig, RRType::kNsec3Param}},
      Nsec3ParamRdata{1, 0, 10, {0xab, 0xcd}},
      OptRdata{1232, true},
  };
}

/// The fixture messages: the shapes of dns_codec_test plus root owners,
/// OPT, NSEC/NSEC3 bitmaps with high and duplicate types, and root names
/// in RDATA.
std::vector<Message> fixture_messages() {
  std::vector<Message> out;

  out.push_back(Message::make_query(0x1234, Name::parse("www.example.com"),
                                    RRType::kA, true, true));
  out.push_back(Message::make_query(0x4321, Name::parse("example.com.dlv.isc.org"),
                                    RRType::kDlv, false, true));
  Message plain = Message::make_query(7, Name::parse("example.com"),
                                      RRType::kAaaa, true, false);
  plain.edns = false;
  out.push_back(plain);
  Message edns = Message::make_query(9, Name::parse("example.com"),
                                     RRType::kA, true, true);
  edns.udp_payload_size = 1232;
  out.push_back(edns);

  Message all = response_to("example.com", RRType::kA);
  for (const Rdata& rdata : every_rdata()) {
    if (std::holds_alternative<OptRdata>(rdata)) continue;
    all.answers.push_back(
        ResourceRecord::make(Name::parse("example.com"), 300, rdata));
  }
  out.push_back(all);

  Message flags = response_to("example.com", RRType::kA);
  flags.header.aa = flags.header.ra = flags.header.ad = flags.header.cd = true;
  flags.header.z = true;
  flags.header.rcode = RCode::kNxDomain;
  out.push_back(flags);

  Message root = response_to(".", RRType::kSoa);
  root.answers.push_back(ResourceRecord::make(
      Name::root(), 86400,
      SoaRdata{Name::parse("a.root-servers.net"),
               Name::parse("nstld.verisign-grs.com"), 1, 2, 3, 4, 5}));
  root.answers.push_back(
      ResourceRecord::make(Name::root(), 86400, NsRdata{Name::root()}));
  root.answers.push_back(
      ResourceRecord::make(Name::root(), 86400, sample_rrsig(Name::root())));
  out.push_back(root);

  Message bitmaps = response_to("x.dlv.isc.org", RRType::kDlv);
  bitmaps.authorities.push_back(ResourceRecord::make(
      Name::parse("a.dlv.isc.org"), 3600,
      NsecRdata{Name::parse("b.dlv.isc.org"),
                {RRType::kDlv, RRType::kRrsig, RRType::kNsec, RRType::kNsec,
                 RRType::kA}}));
  bitmaps.authorities.push_back(ResourceRecord::make(
      Name::parse("0p9mhaveqvm6t7vbl5lop2u3t2rp3tom.dlv.isc.org"), 3600,
      Nsec3Rdata{1, 0, 100, {}, Bytes(20, 0x01), {}}));
  bitmaps.authorities.push_back(ResourceRecord::make(
      Name::parse("1p9mhaveqvm6t7vbl5lop2u3t2rp3tom.dlv.isc.org"), 3600,
      Nsec3Rdata{1, 0, 0, {0xff}, Bytes(20, 0x02),
                 {static_cast<RRType>(255), static_cast<RRType>(256),
                  RRType::kDlv}}));
  out.push_back(bitmaps);

  Message compressed = response_to("example.com", RRType::kNs);
  for (int i = 0; i < 4; ++i) {
    compressed.answers.push_back(ResourceRecord::make(
        Name::parse("example.com"), 3600,
        NsRdata{Name::parse("ns" + std::to_string(i) + ".example.com")}));
    compressed.additionals.push_back(ResourceRecord::make(
        Name::parse("ns" + std::to_string(i) + ".example.com"), 3600,
        ARdata{static_cast<std::uint32_t>(i)}));
  }
  out.push_back(compressed);
  return out;
}

std::uint64_t fnv1a(const Bytes& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const std::uint8_t byte : bytes) {
    hash ^= byte;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

TEST(CodecPropertyTest, WireSizeMatchesEncodingForFixtures) {
  for (const Message& message : fixture_messages()) {
    EXPECT_EQ(wire_size(message), encode_message(message).size())
        << message.to_text();
  }
}

TEST(CodecPropertyTest, FixtureEncodingsAreUnchanged) {
  // Size and FNV-1a 64 of encode_message() for each fixture, recorded from
  // the map-keyed compression encoder the size-only sink replaced.
  const std::vector<std::pair<std::size_t, std::uint64_t>> golden = {
      {44, 0x531fdf3f6e952bd6ULL},  {52, 0x250ab8b7c7962e4fULL},
      {29, 0xa8832054a5781b00ULL},  {40, 0x0a6443557d8fc307ULL},
      {591, 0x2566f5976d92287dULL}, {40, 0xa0414034501b532bULL},
      {209, 0x50355e2839f2823fULL}, {265, 0x859c7e673dffdf9eULL},
      {236, 0x65502cf8866593edULL},
  };
  const std::vector<Message> messages = fixture_messages();
  ASSERT_EQ(messages.size(), golden.size());
  for (std::size_t i = 0; i < messages.size(); ++i) {
    const Bytes wire = encode_message(messages[i]);
    EXPECT_EQ(wire.size(), golden[i].first) << "fixture " << i;
    EXPECT_EQ(fnv1a(wire), golden[i].second) << "fixture " << i;
  }
}

TEST(CodecPropertyTest, RdataWireLengthMatchesEncodingForEveryType) {
  for (const Rdata& rdata : every_rdata()) {
    ByteWriter writer;
    encode_rdata(rdata, writer);
    SizeCounter counter;
    encode_rdata(rdata, counter);
    EXPECT_EQ(rdata_wire_length(rdata), writer.size())
        << static_cast<int>(rdata.index());
    EXPECT_EQ(counter.size(), writer.size());
  }
  // Root names inside RDATA are one zero octet.
  EXPECT_EQ(rdata_wire_length(NsRdata{Name::root()}), 1u);
  EXPECT_EQ(rdata_wire_length(TxtRdata{}), 0u);
}

TEST(CodecPropertyTest, NamesFirstWrittenPastPointerRangeAreNotTargets) {
  // Pad the message past offset 0x3FFF with large TXT records, then write
  // a new name twice. Its first copy lies beyond the range a pointer can
  // reach, so the second copy must be written in full too, while a name
  // first written near the start still compresses.
  Message message = response_to("early.example", RRType::kTxt);
  const std::string chunk(255, 'x');
  while (wire_size(message) <= kMaxPointerOffset) {
    message.answers.push_back(ResourceRecord::make(
        Name::parse("early.example"), 60, TxtRdata{{chunk, chunk, chunk}}));
  }
  const std::size_t before_late = wire_size(message);
  const Name late = Name::parse("late.unseen.test");
  const ResourceRecord record = ResourceRecord::make(late, 60, ARdata{1});
  message.answers.push_back(record);
  const std::size_t first_late = wire_size(message) - before_late;
  message.answers.push_back(record);
  const std::size_t second_late = wire_size(message) - before_late - first_late;
  EXPECT_EQ(first_late, late.wire_length() + 10 + 4);
  EXPECT_EQ(second_late, first_late);  // no pointer target past 0x3FFF

  // A name first written before the limit still compresses after it.
  message.answers.push_back(
      ResourceRecord::make(Name::parse("early.example"), 60, ARdata{2}));
  const std::size_t early_again =
      wire_size(message) - before_late - first_late - second_late;
  EXPECT_EQ(early_again, 2u + 10 + 4);

  const Bytes wire = encode_message(message);
  EXPECT_EQ(wire.size(), wire_size(message));
  EXPECT_EQ(decode_message(wire), message);
}

/// A random name over a small vocabulary, so suffixes repeat and compress.
Name random_name(crypto::SplitMix64& rng) {
  static const char* const kLabels[] = {"a",   "www", "example", "com", "net",
                                        "dlv", "isc", "org",     "ns1", "x9"};
  const std::uint64_t labels = rng.next_below(5);
  std::string text;
  for (std::uint64_t i = 0; i < labels; ++i) {
    if (!text.empty()) text.push_back('.');
    text += kLabels[rng.next_below(10)];
  }
  return Name::parse(text);
}

std::vector<RRType> random_types(crypto::SplitMix64& rng) {
  static const RRType kTypes[] = {RRType::kA,     RRType::kNs,   RRType::kSoa,
                                  RRType::kTxt,   RRType::kRrsig, RRType::kNsec,
                                  RRType::kDnskey, RRType::kNsec3, RRType::kDlv};
  std::vector<RRType> types;
  for (const RRType type : kTypes) {
    if (rng.next_below(2) != 0) types.push_back(type);
  }
  return types;  // ascending and unique: the decoder's canonical form
}

Bytes random_bytes(crypto::SplitMix64& rng, std::size_t max) {
  Bytes out(rng.next_below(max + 1));
  for (std::uint8_t& byte : out) byte = static_cast<std::uint8_t>(rng.next());
  return out;
}

ResourceRecord random_record(crypto::SplitMix64& rng) {
  const Name owner = random_name(rng);
  const auto ttl = static_cast<std::uint32_t>(rng.next_below(86400));
  switch (rng.next_below(14)) {
    case 0: return ResourceRecord::make(owner, ttl, ARdata{static_cast<std::uint32_t>(rng.next())});
    case 1: return ResourceRecord::make(owner, ttl, AaaaRdata{});
    case 2: return ResourceRecord::make(owner, ttl, NsRdata{random_name(rng)});
    case 3: return ResourceRecord::make(owner, ttl, CnameRdata{random_name(rng)});
    case 4: return ResourceRecord::make(owner, ttl, PtrRdata{random_name(rng)});
    case 5:
      return ResourceRecord::make(
          owner, ttl, MxRdata{static_cast<std::uint16_t>(rng.next()), random_name(rng)});
    case 6:
      return ResourceRecord::make(
          owner, ttl, SoaRdata{random_name(rng), random_name(rng), 1, 2, 3, 4, 5});
    case 7:
      return ResourceRecord::make(
          owner, ttl, TxtRdata{{std::string(rng.next_below(40), 't')}});
    case 8:
      return ResourceRecord::make(owner, ttl,
                                  DnskeyRdata{0x0101, 3, 8, random_bytes(rng, 80)});
    case 9:
      return ResourceRecord::make_typed(owner, rng.next_below(2) ? RRType::kDs : RRType::kDlv,
                                        ttl, DsRdata{1, 8, 2, random_bytes(rng, 32)});
    case 10: {
      RrsigRdata sig = sample_rrsig(random_name(rng));
      sig.signature = random_bytes(rng, 64);
      return ResourceRecord::make(owner, ttl, sig);
    }
    case 11:
      return ResourceRecord::make(owner, ttl, NsecRdata{random_name(rng), random_types(rng)});
    case 12:
      return ResourceRecord::make(
          owner, ttl,
          Nsec3Rdata{1, 0, static_cast<std::uint16_t>(rng.next_below(200)),
                     random_bytes(rng, 8), random_bytes(rng, 20), random_types(rng)});
    default:
      return ResourceRecord::make(
          owner, ttl, Nsec3ParamRdata{1, 0, 5, random_bytes(rng, 8)});
  }
}

TEST(CodecPropertyTest, RandomMessagesSizeAndRoundTrip) {
  crypto::SplitMix64 rng(0xC0DEC);
  for (int i = 0; i < 10'000; ++i) {
    Message message;
    message.header.id = static_cast<std::uint16_t>(rng.next());
    message.header.qr = rng.next_below(2) != 0;
    message.header.aa = rng.next_below(2) != 0;
    message.header.rcode = static_cast<RCode>(rng.next_below(6));
    if (rng.next_below(8) != 0) {
      message.questions.push_back(
          Question{random_name(rng), RRType::kA, RRClass::kIn});
    }
    for (auto* section :
         {&message.answers, &message.authorities, &message.additionals}) {
      const std::uint64_t count = rng.next_below(5);
      for (std::uint64_t r = 0; r < count; ++r) section->push_back(random_record(rng));
    }
    message.edns = rng.next_below(2) != 0;
    message.dnssec_ok = message.edns && rng.next_below(2) != 0;
    message.udp_payload_size =
        message.edns ? static_cast<std::uint16_t>(512 + rng.next_below(4000)) : 4096;

    const Bytes wire = encode_message(message);
    ASSERT_EQ(wire_size(message), wire.size()) << "message " << i;
    for (auto* section :
         {&message.answers, &message.authorities, &message.additionals}) {
      for (const ResourceRecord& record : *section) {
        ByteWriter writer;
        encode_rdata(record.rdata, writer);
        ASSERT_EQ(rdata_wire_length(record.rdata), writer.size());
      }
    }
    ASSERT_EQ(decode_message(wire), message) << "message " << i;
  }
}

}  // namespace
}  // namespace lookaside::dns
