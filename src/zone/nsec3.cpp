#include "zone/nsec3.h"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "crypto/sha1.h"

namespace lookaside::zone {

namespace {

// RFC 5155 §3.1: the salt length is one octet. digest || salt plus padding
// then spans at most five SHA-1 blocks.
constexpr std::size_t kMaxSaltLength = 255;
constexpr std::size_t kMaxBlocks =
    (crypto::Sha1::kDigestSize + kMaxSaltLength + 8) /
        crypto::Sha1::kBlockSize +
    1;

constexpr char kBase32HexAlphabet[] = "0123456789abcdefghijklmnopqrstuv";

[[nodiscard]] int base32hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'v') return c - 'a' + 10;
  if (c >= 'A' && c <= 'V') return c - 'A' + 10;
  return -1;
}

}  // namespace

crypto::Bytes nsec3_hash(const dns::Name& name, const crypto::Bytes& salt,
                         std::uint16_t iterations) {
  using crypto::Sha1;
  if (salt.size() > kMaxSaltLength) {
    throw std::invalid_argument("NSEC3 salt longer than 255 octets");
  }
  // Name::to_wire() is already canonical: labels are lowercased on parse.
  Sha1 first;
  first.update(name.to_wire());
  first.update(salt);
  crypto::Bytes digest = first.finish();

  // Every further round hashes digest || salt, a message of fixed length,
  // so its padded form (0x80, zeros, 64-bit bit length) is laid out once
  // and each round only rewrites the 20 digest bytes at the front.
  const std::size_t length = Sha1::kDigestSize + salt.size();
  const std::size_t blocks = (length + 8) / Sha1::kBlockSize + 1;
  std::array<std::uint8_t, kMaxBlocks * Sha1::kBlockSize> message{};
  std::copy(digest.begin(), digest.end(), message.begin());
  std::copy(salt.begin(), salt.end(), message.begin() + Sha1::kDigestSize);
  message[length] = 0x80;
  crypto::store_be64(message.data() + blocks * Sha1::kBlockSize - 8,
                     static_cast<std::uint64_t>(length) * 8);
  for (std::uint16_t k = 0; k < iterations; ++k) {
    std::array<std::uint32_t, 5> state = Sha1::kInitialState;
    for (std::size_t b = 0; b < blocks; ++b) {
      Sha1::compress(state.data(), message.data() + b * Sha1::kBlockSize);
    }
    for (std::size_t i = 0; i < state.size(); ++i) {
      crypto::store_be32(message.data() + 4 * i, state[i]);
    }
  }
  std::copy_n(message.begin(), Sha1::kDigestSize, digest.begin());
  return digest;
}

std::string base32hex_encode(const crypto::Bytes& data) {
  std::string out;
  out.reserve((data.size() * 8 + 4) / 5);
  std::uint32_t buffer = 0;
  int bits = 0;
  for (std::uint8_t byte : data) {
    buffer = (buffer << 8) | byte;
    bits += 8;
    while (bits >= 5) {
      bits -= 5;
      out.push_back(kBase32HexAlphabet[(buffer >> bits) & 0x1F]);
    }
  }
  if (bits > 0) {
    out.push_back(kBase32HexAlphabet[(buffer << (5 - bits)) & 0x1F]);
  }
  return out;
}

crypto::Bytes base32hex_decode(std::string_view text) {
  crypto::Bytes out;
  out.reserve(text.size() * 5 / 8);
  std::uint32_t buffer = 0;
  int bits = 0;
  for (char c : text) {
    const int value = base32hex_value(c);
    if (value < 0) throw std::invalid_argument("bad base32hex character");
    buffer = (buffer << 5) | static_cast<std::uint32_t>(value);
    bits += 5;
    if (bits >= 8) {
      bits -= 8;
      out.push_back(static_cast<std::uint8_t>((buffer >> bits) & 0xFF));
    }
  }
  // Trailing bits must be padding zeros of an exact byte boundary encoding.
  if (bits >= 5 || (buffer & ((1U << bits) - 1)) != 0) {
    throw std::invalid_argument("base32hex input not byte-aligned");
  }
  return out;
}

dns::Name nsec3_owner(const dns::Name& name, const dns::Name& apex,
                      const crypto::Bytes& salt, std::uint16_t iterations) {
  return apex.with_prefix_label(
      base32hex_encode(nsec3_hash(name, salt, iterations)));
}

}  // namespace lookaside::zone
