// Unit tests for SHA-256 and SHA-1 against published vectors.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "crypto/bytes.h"
#include "crypto/sha1.h"
#include "crypto/sha256.h"

namespace lookaside::crypto {
namespace {

TEST(Sha256Test, EmptyMessage) {
  EXPECT_EQ(to_hex(Sha256::digest("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(to_hex(Sha256::digest("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(to_hex(Sha256::digest(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 ctx;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.update(chunk);
  EXPECT_EQ(to_hex(ctx.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  const std::string message =
      "the quick brown fox jumps over the lazy dog 0123456789";
  for (std::size_t split = 0; split <= message.size(); ++split) {
    Sha256 ctx;
    ctx.update(std::string_view(message).substr(0, split));
    ctx.update(std::string_view(message).substr(split));
    EXPECT_EQ(ctx.finish(), Sha256::digest(message)) << "split=" << split;
  }
}

TEST(Sha256Test, ExactBlockBoundaryLengths) {
  // 55/56/63/64/65 bytes cross the padding edge cases.
  for (std::size_t len : {55u, 56u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    const std::string msg(len, 'x');
    Sha256 a;
    a.update(msg);
    Sha256 b;
    for (char c : msg) b.update(std::string_view(&c, 1));
    EXPECT_EQ(a.finish(), b.finish()) << "len=" << len;
  }
}

TEST(Sha1Test, EmptyMessage) {
  EXPECT_EQ(to_hex(Sha1::digest("")),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(Sha1Test, Abc) {
  EXPECT_EQ(to_hex(Sha1::digest("abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1Test, TwoBlockMessage) {
  EXPECT_EQ(to_hex(Sha1::digest(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

// Messages of byte i = (31 i + 7) mod 256 at lengths around every padding
// edge: 55 leaves exactly room for the length, 56 and 63 push it into a
// second block, 64/65 and 119/120 repeat that one block later, 1000 streams
// whole blocks through update(). Digests from Python's hashlib.
struct Vector {
  std::size_t length;
  const char* sha1;
  const char* sha256;
};

constexpr Vector kEdgeVectors[] = {
    {0, "da39a3ee5e6b4b0d3255bfef95601890afd80709",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
    {55, "749bbefb28edc4638b28b2b9a9e03ab9a4032b90",
     "8aa994584139d128848eeebc4e815639ba5ab6e6e39574195a63ac4f14f7c43b"},
    {56, "a5b6e9c29d201c774753ff8e7fb64931656f5e63",
     "ad574708f75c044c9b85de64cb568ee7711ff4f36448c6242f053ba8f6cc2b63"},
    {63, "d1a454409359fc372b4d22b3cea6488d6ba1be00",
     "280ed3e8ff1df845b2e7dfe6ac6cee817bef20e783cc65abc41b818b4d2fe076"},
    {64, "39a0d8b645ad85f1f976731ed112ac9455e28b78",
     "c6ab9724ade5b6a7a1edfffb12f3aa9181351355af8fd08c919952ad211339dd"},
    {65, "d0c96e18890114a14716e9686528d2e3fdba8d9e",
     "788367c73c7ddf4c53f65e68cc0d943e6227ab55b0e78ba63ace822b1c6301c0"},
    {119, "562ecf8a430f8e1056e3619bae33628e9a1d0a4e",
     "3d610547d68216dedf7435a4fb6260353911f6b3fd3f18805ddb8be285d726fe"},
    {120, "353f6d2bf0e91aa91b74a2e0b3f297510f7d825f",
     "1f80156a804cb7862ad113e8200e9d74499723e7c7854d5f48776d3148e09656"},
    {1000, "414475341017ec91703435a6f290324818f983e9",
     "5097e7d587352f5097062ae679f37bda5802d9f875aba14c8cb4d1a188ada179"},
};

Bytes edge_message(std::size_t length) {
  Bytes out(length);
  for (std::size_t i = 0; i < length; ++i) {
    out[i] = static_cast<std::uint8_t>(i * 31 + 7);
  }
  return out;
}

/// The digest of `message` fed to a fresh `Hash` three ways: in one
/// update(), one byte at a time, and in uneven chunks of 1, 2, 3, ... bytes
/// (so chunk edges fall at every offset within a block). All three must
/// agree; the one-shot digest is returned.
template <typename Hash>
Bytes digest_three_ways(const Bytes& message) {
  Hash one_shot;
  one_shot.update(message);
  const Bytes expected = one_shot.finish();

  Hash bytewise;
  for (const std::uint8_t byte : message) bytewise.update(&byte, 1);
  EXPECT_EQ(bytewise.finish(), expected) << "bytewise, len=" << message.size();

  Hash uneven;
  std::size_t offset = 0;
  for (std::size_t chunk = 1; offset < message.size(); ++chunk) {
    const std::size_t take = std::min(chunk, message.size() - offset);
    uneven.update(message.data() + offset, take);
    offset += take;
  }
  EXPECT_EQ(uneven.finish(), expected) << "uneven, len=" << message.size();
  return expected;
}

TEST(HashKernelTest, Sha1PaddingEdgesMatchReference) {
  for (const Vector& vector : kEdgeVectors) {
    EXPECT_EQ(to_hex(digest_three_ways<Sha1>(edge_message(vector.length))),
              vector.sha1)
        << "len=" << vector.length;
  }
}

TEST(HashKernelTest, Sha256PaddingEdgesMatchReference) {
  for (const Vector& vector : kEdgeVectors) {
    EXPECT_EQ(to_hex(digest_three_ways<Sha256>(edge_message(vector.length))),
              vector.sha256)
        << "len=" << vector.length;
  }
}

TEST(HexTest, RoundTrip) {
  const Bytes data = {0x00, 0x01, 0xab, 0xff, 0x7f};
  EXPECT_EQ(from_hex(to_hex(data)), data);
}

TEST(HexTest, RejectsBadInput) {
  EXPECT_THROW(from_hex("abc"), std::invalid_argument);
  EXPECT_THROW(from_hex("zz"), std::invalid_argument);
}

}  // namespace
}  // namespace lookaside::crypto
