#include "crypto/dnssec_algo.h"

#include "crypto/sha256.h"

namespace lookaside::crypto {

bool algorithm_supported(std::uint8_t algorithm) {
  return algorithm == static_cast<std::uint8_t>(DnssecAlgorithm::kRsaSha256);
}

Bytes sign_message(const RsaPrivateKey& key, const Bytes& message) {
  return key.sign_digest(Sha256::digest(message));
}

bool verify_message(const RsaPublicKey& key, const Bytes& message,
                    const Bytes& signature) {
  return key.verify_digest(Sha256::digest(message), signature);
}

namespace {

/// Appendix B's running sum over `bytes`, which start at an even offset of
/// the RDATA: even offsets add as high bytes, odd ones as low bytes.
std::uint32_t add_key_tag_bytes(std::uint32_t accumulator,
                                const Bytes& bytes) {
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    accumulator +=
        (i & 1) ? bytes[i] : static_cast<std::uint32_t>(bytes[i]) << 8;
  }
  return accumulator;
}

std::uint16_t fold_key_tag(std::uint32_t accumulator) {
  accumulator += (accumulator >> 16) & 0xFFFF;
  return static_cast<std::uint16_t>(accumulator & 0xFFFF);
}

}  // namespace

std::uint16_t key_tag(const Bytes& dnskey_rdata) {
  return fold_key_tag(add_key_tag_bytes(0, dnskey_rdata));
}

std::uint16_t key_tag(std::uint16_t flags, std::uint8_t protocol,
                      std::uint8_t algorithm, const Bytes& public_key) {
  // The four fixed bytes sit at offsets 0-3, so the key starts even.
  const std::uint32_t fixed =
      flags + (static_cast<std::uint32_t>(protocol) << 8) + algorithm;
  return fold_key_tag(add_key_tag_bytes(fixed, public_key));
}

}  // namespace lookaside::crypto
