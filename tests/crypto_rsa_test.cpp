// Unit tests for RSA keygen/sign/verify and the DNSSEC algorithm façade.
#include <gtest/gtest.h>

#include "crypto/dnssec_algo.h"
#include "crypto/rng.h"
#include "crypto/rsa.h"
#include "crypto/sha256.h"

namespace lookaside::crypto {
namespace {

RsaKeyPair test_keypair(std::size_t bits = 512, std::uint64_t seed = 1) {
  SplitMix64 rng(seed);
  return generate_rsa_keypair(bits, rng);
}

TEST(MillerRabinTest, KnownPrimesAndComposites) {
  SplitMix64 rng(2);
  EXPECT_TRUE(is_probable_prime(BigUint(2), rng));
  EXPECT_TRUE(is_probable_prime(BigUint(3), rng));
  EXPECT_TRUE(is_probable_prime(BigUint(65537), rng));
  EXPECT_TRUE(is_probable_prime(BigUint(1000003), rng));
  EXPECT_TRUE(is_probable_prime(BigUint(0xFFFFFFFFFFFFFFC5ULL), rng));
  EXPECT_FALSE(is_probable_prime(BigUint(1), rng));
  EXPECT_FALSE(is_probable_prime(BigUint(4), rng));
  EXPECT_FALSE(is_probable_prime(BigUint(1000001), rng));  // 101*9901
  // Carmichael number 561 = 3*11*17 must be rejected.
  EXPECT_FALSE(is_probable_prime(BigUint(561), rng));
}

TEST(RsaTest, SignVerifyRoundTrip) {
  const RsaKeyPair kp = test_keypair();
  const Bytes digest = Sha256::digest("hello dnssec");
  const Bytes sig = kp.private_key.sign_digest(digest);
  EXPECT_EQ(sig.size(), kp.public_key.modulus_bytes());
  EXPECT_TRUE(kp.public_key.verify_digest(digest, sig));
}

TEST(RsaTest, TamperedSignatureFails) {
  const RsaKeyPair kp = test_keypair();
  const Bytes digest = Sha256::digest("hello dnssec");
  Bytes sig = kp.private_key.sign_digest(digest);
  sig[sig.size() / 2] ^= 0x01;
  EXPECT_FALSE(kp.public_key.verify_digest(digest, sig));
}

TEST(RsaTest, TamperedDigestFails) {
  const RsaKeyPair kp = test_keypair();
  const Bytes sig = kp.private_key.sign_digest(Sha256::digest("message A"));
  EXPECT_FALSE(kp.public_key.verify_digest(Sha256::digest("message B"), sig));
}

TEST(RsaTest, WrongKeyFails) {
  const RsaKeyPair kp1 = test_keypair(512, 10);
  const RsaKeyPair kp2 = test_keypair(512, 11);
  const Bytes digest = Sha256::digest("cross-key");
  const Bytes sig = kp1.private_key.sign_digest(digest);
  EXPECT_FALSE(kp2.public_key.verify_digest(digest, sig));
}

TEST(RsaTest, WrongLengthSignatureFails) {
  const RsaKeyPair kp = test_keypair();
  const Bytes digest = Sha256::digest("short");
  Bytes sig = kp.private_key.sign_digest(digest);
  sig.pop_back();
  EXPECT_FALSE(kp.public_key.verify_digest(digest, sig));
}

TEST(RsaTest, SmallKeySignVerify) {
  // 256-bit keys are the fast-simulation configuration.
  const RsaKeyPair kp = test_keypair(256, 3);
  const Bytes digest = Sha256::digest("fast path");
  EXPECT_TRUE(
      kp.public_key.verify_digest(digest, kp.private_key.sign_digest(digest)));
}

TEST(RsaTest, DeterministicFromSeed) {
  const RsaKeyPair a = test_keypair(256, 77);
  const RsaKeyPair b = test_keypair(256, 77);
  EXPECT_EQ(a.public_key.modulus(), b.public_key.modulus());
}

TEST(RsaTest, PublicKeyWireRoundTrip) {
  const RsaKeyPair kp = test_keypair(512, 5);
  const Bytes wire = kp.public_key.to_wire();
  const auto parsed = RsaPublicKey::from_wire(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->modulus(), kp.public_key.modulus());
  EXPECT_EQ(parsed->exponent(), kp.public_key.exponent());

  const Bytes digest = Sha256::digest("wire");
  EXPECT_TRUE(
      parsed->verify_digest(digest, kp.private_key.sign_digest(digest)));
}

TEST(RsaTest, FromWireRejectsGarbage) {
  EXPECT_FALSE(RsaPublicKey::from_wire({}).has_value());
  EXPECT_FALSE(RsaPublicKey::from_wire({0x00}).has_value());
  EXPECT_FALSE(RsaPublicKey::from_wire({0x05, 0x01}).has_value());
}

TEST(RsaTest, FromWireRejectsModuliTheArithmeticCannotServe) {
  // n = 1, a 15-byte n (EMSA padding needs 16) and a 2056-bit n (Montgomery
  // stops at 2048 bits, so a 257-byte n is one byte too wide): unusable keys,
  // not exceptions.
  EXPECT_FALSE(RsaPublicKey::from_wire({0x01, 0x03, 0x01}).has_value());
  Bytes narrow = {0x01, 0x03};
  narrow.insert(narrow.end(), 15, 0xFF);
  EXPECT_FALSE(RsaPublicKey::from_wire(narrow).has_value());
  narrow.push_back(0xFF);
  EXPECT_TRUE(RsaPublicKey::from_wire(narrow).has_value());
  Bytes wide = {0x01, 0x03};
  wide.insert(wide.end(), 256, 0xFF);
  EXPECT_TRUE(RsaPublicKey::from_wire(wide).has_value());
  wide.push_back(0xFF);
  EXPECT_FALSE(RsaPublicKey::from_wire(wide).has_value());
}

TEST(RsaTest, GoldenSignaturesAreByteIdentical) {
  // Recorded with an independent kernel (bit-serial division, 32-bit
  // Montgomery words). Keygen and PKCS#1 v1.5 signing are deterministic and
  // every result is the unique residue mod n, so any kernel must reproduce
  // these bytes exactly.
  struct Golden {
    std::size_t bits;
    std::uint64_t seed;
    const char* modulus;
    const char* signature;
  };
  const Golden cases[] = {
      {256, 2024,
       "ad59c1a7fc16d282d4f702ad4eb12f12c6b9996b05ccaa6b34410e5aceffc5a3",
       "56a6269df6add0433daf0403dcd297d553e6bcebd618205ce72d58456d051342"},
      {512, 2025,
       "e745251425d4c23a65189be3155467fec3443991a0208e2a90051cf8fb94477c"
       "2d3a5c67698a9748a7331dd66dbab903c6b7571149f12d7c830abd337c5f46a3",
       "d4db07b0fc9cfc0e7b9fb5b97def94b5cf2bc573ad761b6356caafc8ba121f2f"
       "395f9e9143a861c4a3758c0426a521b45499fcab2363f863da89085d93e78e91"},
  };
  const Bytes message = bytes_of("golden signature over a fixed message");
  for (const Golden& golden : cases) {
    const RsaKeyPair kp = test_keypair(golden.bits, golden.seed);
    EXPECT_EQ(to_hex(kp.public_key.modulus().to_bytes_be()), golden.modulus)
        << golden.bits << "-bit key";
    const Bytes signature = sign_message(kp.private_key, message);
    EXPECT_EQ(to_hex(signature), golden.signature) << golden.bits << "-bit key";
    EXPECT_TRUE(verify_message(kp.public_key, message, signature));
  }
}

TEST(RsaTest, KeygenValidatesParameters) {
  SplitMix64 rng(1);
  EXPECT_THROW(generate_rsa_keypair(128, rng), std::invalid_argument);
  EXPECT_THROW(generate_rsa_keypair(300, rng), std::invalid_argument);
}

TEST(EmsaPadTest, FullPaddingLayout) {
  const Bytes digest = Sha256::digest("x");
  const Bytes em = emsa_pad(digest, 64);
  EXPECT_EQ(em.size(), 64u);
  EXPECT_EQ(em[0], 0x00);
  EXPECT_EQ(em[1], 0x01);
  EXPECT_EQ(em[64 - 33], 0x00);
  for (std::size_t i = 2; i < 64 - 33; ++i) EXPECT_EQ(em[i], 0xFF);
  EXPECT_TRUE(std::equal(digest.begin(), digest.end(), em.end() - 32));
}

TEST(EmsaPadTest, TruncatesForSmallModulus) {
  const Bytes digest = Sha256::digest("x");
  const Bytes em = emsa_pad(digest, 32);  // 256-bit key
  EXPECT_EQ(em.size(), 32u);
  // 21 digest bytes fit; 8 FF bytes of padding remain.
  EXPECT_TRUE(std::equal(digest.begin(), digest.begin() + 21, em.end() - 21));
}

TEST(DnssecAlgoTest, SupportedAlgorithms) {
  EXPECT_TRUE(algorithm_supported(8));
  EXPECT_FALSE(algorithm_supported(5));
  EXPECT_FALSE(algorithm_supported(13));
  EXPECT_FALSE(algorithm_supported(0));
}

TEST(DnssecAlgoTest, SignVerifyMessage) {
  const RsaKeyPair kp = test_keypair(512, 9);
  const Bytes message = bytes_of("canonical rrset image");
  const Bytes sig = sign_message(kp.private_key, message);
  EXPECT_TRUE(verify_message(kp.public_key, message, sig));
  EXPECT_FALSE(verify_message(kp.public_key, bytes_of("different"), sig));
}

TEST(KeyTagTest, MatchesReferenceAlgorithm) {
  // Reference computation from RFC 4034 Appendix B applied to a fixed RDATA.
  const Bytes rdata = {0x01, 0x01, 0x03, 0x08, 0x03, 0x01, 0x00, 0x01};
  std::uint32_t acc = 0;
  for (std::size_t i = 0; i < rdata.size(); ++i) {
    acc += (i & 1) ? rdata[i] : static_cast<std::uint32_t>(rdata[i]) << 8;
  }
  acc += (acc >> 16) & 0xFFFF;
  EXPECT_EQ(key_tag(rdata), acc & 0xFFFF);
  // Odd-length RDATA exercises the trailing byte path.
  const Bytes odd = {0xAB, 0xCD, 0xEF};
  EXPECT_EQ(key_tag(odd), ((0xAB00u + 0xCDu + 0xEF00u +
                            (((0xAB00u + 0xCDu + 0xEF00u) >> 16) & 0xFFFF)) &
                           0xFFFF));
}

TEST(RngTest, DeterministicStreams) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, NextBelowInRange) {
  SplitMix64 rng(1);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(7), 7u);
}

TEST(RngTest, DerivedSeedsDiffer) {
  EXPECT_NE(derive_seed(1, 1), derive_seed(1, 2));
  EXPECT_NE(derive_seed(1, 1), derive_seed(2, 1));
  EXPECT_EQ(derive_seed(9, 9), derive_seed(9, 9));
}

}  // namespace
}  // namespace lookaside::crypto
