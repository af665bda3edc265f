// RSA key generation, signing and verification for the DNSSEC substrate.
//
// This mirrors RSASHA256 (DNSSEC algorithm 8): EMSA-PKCS1-v1_5-style padding
// over a SHA-256 digest. Key sizes are configurable down to 256 bits so that
// million-domain simulations stay fast; small keys are a simulation speed
// knob, not a security recommendation (see DESIGN.md).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "crypto/bigint.h"
#include "crypto/bytes.h"
#include "crypto/rng.h"

namespace lookaside::crypto {

/// RSA public key (n, e) plus a cached Montgomery context for fast verify.
class RsaPublicKey {
 public:
  RsaPublicKey(BigUint modulus, BigUint public_exponent);

  [[nodiscard]] const BigUint& modulus() const { return n_; }
  [[nodiscard]] const BigUint& exponent() const { return e_; }
  [[nodiscard]] std::size_t modulus_bytes() const { return modulus_bytes_; }

  /// RFC 3110-style wire form: explen(1) | exponent | modulus.
  [[nodiscard]] Bytes to_wire() const;
  /// Empty for malformed wire and for a modulus that is even, shorter than
  /// 16 bytes or wider than 2048 bits.
  [[nodiscard]] static std::optional<RsaPublicKey> from_wire(const Bytes& wire);

  /// Verifies `signature` over `digest` (already hashed message).
  [[nodiscard]] bool verify_digest(const Bytes& digest,
                                   const Bytes& signature) const;

 private:
  friend class RsaPrivateKey;
  BigUint n_;
  BigUint e_;
  std::size_t modulus_bytes_;
  Montgomery mont_;
};

/// RSA private key; holds the matching public key. When constructed with
/// the prime factorization, signing uses the CRT: two half-width
/// exponentiations, which cost 2-3x less than one full-width one for 256- to
/// 1024-bit moduli. The simulator signs on-line, so this is on the cold path.
class RsaPrivateKey {
 public:
  RsaPrivateKey(RsaPublicKey public_key, BigUint private_exponent);
  RsaPrivateKey(RsaPublicKey public_key, BigUint private_exponent, BigUint p,
                BigUint q);

  [[nodiscard]] const RsaPublicKey& public_key() const { return public_; }

  /// Signs an already-hashed message; output is modulus-width bytes.
  [[nodiscard]] Bytes sign_digest(const Bytes& digest) const;

 private:
  struct CrtState {
    BigUint p, q, dp, dq, q_inv_mod_p;
    Montgomery mont_p, mont_q;
  };

  RsaPublicKey public_;
  BigUint d_;
  std::shared_ptr<const CrtState> crt_;  // shared: keys are copied freely
};

/// A freshly generated RSA key pair.
struct RsaKeyPair {
  RsaPublicKey public_key;
  RsaPrivateKey private_key;
};

/// Generates an RSA key pair with an n of `modulus_bits` (>= 256, multiple of
/// 32) and e = 65537, using the caller's deterministic RNG.
[[nodiscard]] RsaKeyPair generate_rsa_keypair(std::size_t modulus_bits,
                                              SplitMix64& rng);

/// Candidates generate_prime may draw for a `bits`-bit prime: 64 per bit. A
/// random odd b-bit integer is prime with probability about 2 / (b ln 2),
/// so a search needs about 0.35 b candidates on average and exhausts 64 b
/// with probability below e^-180. Running out means the primality test is
/// broken, and keygen then fails at once instead of searching forever.
[[nodiscard]] constexpr std::size_t prime_candidate_budget(std::size_t bits) {
  return 64 * bits;
}

/// A random `bits`-bit probable prime with its top two bits set, drawn from
/// `rng`. Throws std::runtime_error when `max_candidates` candidates hold no
/// prime.
[[nodiscard]] BigUint generate_prime(std::size_t bits, SplitMix64& rng,
                                     std::size_t max_candidates);

/// Miller-Rabin primality test with `rounds` random bases. Exposed for tests.
[[nodiscard]] bool is_probable_prime(const BigUint& candidate, SplitMix64& rng,
                                     int rounds = 24);

/// Builds the padded EMSA block for a digest and modulus width; exposed for
/// tests. For widths too small for full PKCS#1 padding the digest is
/// truncated (documented simulation shortcut).
[[nodiscard]] Bytes emsa_pad(const Bytes& digest, std::size_t modulus_bytes);

}  // namespace lookaside::crypto
