// DNSSEC signing-algorithm façade and the RFC 4034 key-tag computation.
//
// The library supports DNSSEC algorithm 8 (RSA/SHA-256). The façade exists so
// tests can exercise the unknown-algorithm paths a validator must handle.
#pragma once

#include <cstdint>
#include <optional>

#include "crypto/bytes.h"
#include "crypto/rsa.h"

namespace lookaside::crypto {

/// DNSSEC algorithm numbers (IANA registry subset).
enum class DnssecAlgorithm : std::uint8_t {
  kRsaSha1 = 5,    // recognized, refused for new signatures
  kRsaSha256 = 8,  // the algorithm this library signs with
};

/// True when this library can validate signatures of `algorithm`.
[[nodiscard]] bool algorithm_supported(std::uint8_t algorithm);

/// Signs `message` (full canonical bytes, not a digest) with RSA/SHA-256.
[[nodiscard]] Bytes sign_message(const RsaPrivateKey& key, const Bytes& message);

/// Verifies an RSA/SHA-256 signature over `message`.
[[nodiscard]] bool verify_message(const RsaPublicKey& key, const Bytes& message,
                                  const Bytes& signature);

/// RFC 4034 Appendix B key tag over a DNSKEY RDATA image.
[[nodiscard]] std::uint16_t key_tag(const Bytes& dnskey_rdata);

/// The same key tag from the RDATA's fields (flags | protocol | algorithm |
/// public key), without building the image.
[[nodiscard]] std::uint16_t key_tag(std::uint16_t flags, std::uint8_t protocol,
                                    std::uint8_t algorithm,
                                    const Bytes& public_key);

}  // namespace lookaside::crypto
