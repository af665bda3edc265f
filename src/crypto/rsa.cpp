#include "crypto/rsa.h"

#include <stdexcept>

#include "crypto/sha256.h"

namespace lookaside::crypto {

namespace {

// EMSA padding needs a 16-byte modulus; Montgomery contexts stop at 2048 bits.
constexpr std::size_t kMinModulusBytes = 16;
constexpr std::size_t kMaxModulusBits = 2048;

constexpr std::uint32_t kSmallPrimes[] = {
    3,   5,   7,   11,  13,  17,  19,  23,  29,  31,  37,  41,  43,  47,
    53,  59,  61,  67,  71,  73,  79,  83,  89,  97,  101, 103, 107, 109,
    113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191,
    193, 197, 199, 211, 223, 227, 229, 233, 239, 241, 251, 257, 263, 269,
    271, 277, 281, 283, 293, 307, 311, 313, 317, 331, 337, 347, 349, 353,
    359, 367, 373, 379, 383, 389, 397, 401, 409, 419, 421, 431, 433, 439,
    443, 449, 457, 461, 463, 467, 479, 487, 491, 499, 503, 509, 521, 523,
    541, 547, 557, 563, 569, 571, 577, 587, 593, 599, 601, 607, 613, 617,
    619, 631, 641, 643, 647, 653, 659, 661, 673, 677, 683, 691, 701, 709,
    719, 727, 733, 739, 743, 751, 757, 761, 769, 773, 787, 797, 809, 811,
    821, 823, 827, 829, 839, 853, 857, 859, 863, 877, 881, 883, 887, 907,
    911, 919, 929, 937, 941, 947, 953, 967, 971, 977, 983, 991, 997};

BigUint random_odd_with_top_bits(std::size_t bits, SplitMix64& rng) {
  Bytes bytes((bits + 7) / 8);
  rng.fill(bytes);
  // Force the exact bit length and set the second-highest bit so products of
  // two such primes reach the full modulus width.
  const std::size_t top_bit = (bits - 1) % 8;
  bytes[0] |= static_cast<std::uint8_t>(1u << top_bit);
  if (top_bit == 0) {
    bytes[0] = 1;
    if (bytes.size() > 1) bytes[1] |= 0x80;
  } else {
    bytes[0] |= static_cast<std::uint8_t>(1u << (top_bit - 1));
  }
  bytes.back() |= 0x01;  // odd
  return BigUint::from_bytes_be(bytes);
}

BigUint generate_prime(std::size_t bits, SplitMix64& rng) {
  for (;;) {
    BigUint candidate = random_odd_with_top_bits(bits, rng);
    bool divisible = false;
    for (std::uint32_t p : kSmallPrimes) {
      if (candidate.mod_u32(p) == 0) {
        divisible = candidate != BigUint(p);
        break;
      }
    }
    if (divisible) continue;
    if (is_probable_prime(candidate, rng)) return candidate;
  }
}

}  // namespace

bool is_probable_prime(const BigUint& candidate, SplitMix64& rng, int rounds) {
  if (candidate < BigUint(2)) return false;
  if (candidate == BigUint(2) || candidate == BigUint(3)) return true;
  if (!candidate.is_odd()) return false;

  // candidate - 1 = d * 2^r with d odd.
  const BigUint n_minus_1 = BigUint::sub(candidate, BigUint(1));
  std::size_t r = 0;
  BigUint d = n_minus_1;
  while (!d.is_odd()) {
    d = d.shifted_right(1);
    ++r;
  }

  const Montgomery mont(candidate);
  const std::size_t bits = candidate.bit_length();
  for (int round = 0; round < rounds; ++round) {
    // Random base in [2, n-2].
    Bytes raw((bits + 7) / 8);
    rng.fill(raw);
    BigUint base = BigUint::mod(BigUint::from_bytes_be(raw),
                                BigUint::sub(candidate, BigUint(3)));
    base = BigUint::add(base, BigUint(2));

    BigUint x = mont.exp(base, d);
    if (x == BigUint(1) || x == n_minus_1) continue;
    bool witness = true;
    for (std::size_t i = 0; i + 1 < r; ++i) {
      x = mont.mul(x, x);
      if (x == n_minus_1) {
        witness = false;
        break;
      }
    }
    if (witness) return false;
  }
  return true;
}

Bytes emsa_pad(const Bytes& digest, std::size_t modulus_bytes) {
  if (modulus_bytes < kMinModulusBytes) {
    throw std::invalid_argument("modulus too small for EMSA padding");
  }
  // Full PKCS#1 v1.5 layout needs digest + 11 bytes; otherwise truncate the
  // digest to fit (simulation shortcut for small keys, see header).
  const std::size_t digest_len =
      std::min(digest.size(), modulus_bytes - 11);
  Bytes em(modulus_bytes, 0xFF);
  em[0] = 0x00;
  em[1] = 0x01;
  em[modulus_bytes - digest_len - 1] = 0x00;
  for (std::size_t i = 0; i < digest_len; ++i) {
    em[modulus_bytes - digest_len + i] = digest[i];
  }
  return em;
}

RsaPublicKey::RsaPublicKey(BigUint modulus, BigUint public_exponent)
    : n_(std::move(modulus)),
      e_(std::move(public_exponent)),
      modulus_bytes_((n_.bit_length() + 7) / 8),
      mont_(n_) {}

Bytes RsaPublicKey::to_wire() const {
  const Bytes exp_bytes = e_.to_bytes_be();
  if (exp_bytes.size() > 255) {
    throw std::invalid_argument("public exponent too large for wire form");
  }
  Bytes out;
  out.push_back(static_cast<std::uint8_t>(exp_bytes.size()));
  out.insert(out.end(), exp_bytes.begin(), exp_bytes.end());
  const Bytes mod_bytes = n_.to_bytes_be();
  out.insert(out.end(), mod_bytes.begin(), mod_bytes.end());
  return out;
}

std::optional<RsaPublicKey> RsaPublicKey::from_wire(const Bytes& wire) {
  if (wire.size() < 2) return std::nullopt;
  const std::size_t exp_len = wire[0];
  if (exp_len == 0 || wire.size() < 1 + exp_len + 1) return std::nullopt;
  const Bytes exp_bytes(wire.begin() + 1, wire.begin() + 1 + static_cast<std::ptrdiff_t>(exp_len));
  const Bytes mod_bytes(wire.begin() + 1 + static_cast<std::ptrdiff_t>(exp_len), wire.end());
  BigUint n = BigUint::from_bytes_be(mod_bytes);
  if (!n.is_odd()) return std::nullopt;  // RSA modulus is odd
  // A key from the wire the arithmetic cannot serve is unusable, not an
  // error: later padding and Montgomery setup would throw on it.
  const std::size_t bits = n.bit_length();
  if ((bits + 7) / 8 < kMinModulusBytes || bits > kMaxModulusBits) {
    return std::nullopt;
  }
  return RsaPublicKey(std::move(n), BigUint::from_bytes_be(exp_bytes));
}

bool RsaPublicKey::verify_digest(const Bytes& digest,
                                 const Bytes& signature) const {
  if (signature.size() != modulus_bytes_) return false;
  const BigUint sig_int = BigUint::from_bytes_be(signature);
  if (sig_int >= n_) return false;
  const BigUint em_int = mont_.exp(sig_int, e_);
  return em_int.to_bytes_be(modulus_bytes_) == emsa_pad(digest, modulus_bytes_);
}

RsaPrivateKey::RsaPrivateKey(RsaPublicKey public_key, BigUint private_exponent)
    : public_(std::move(public_key)), d_(std::move(private_exponent)) {}

RsaPrivateKey::RsaPrivateKey(RsaPublicKey public_key, BigUint private_exponent,
                             BigUint p, BigUint q)
    : public_(std::move(public_key)), d_(std::move(private_exponent)) {
  const BigUint p_minus_1 = BigUint::sub(p, BigUint(1));
  const BigUint q_minus_1 = BigUint::sub(q, BigUint(1));
  crt_ = std::make_shared<const CrtState>(CrtState{
      p,
      q,
      BigUint::mod(d_, p_minus_1),
      BigUint::mod(d_, q_minus_1),
      BigUint::mod_inverse(q, p),
      Montgomery(p),
      Montgomery(q),
  });
}

Bytes RsaPrivateKey::sign_digest(const Bytes& digest) const {
  const Bytes em = emsa_pad(digest, public_.modulus_bytes());
  const BigUint em_int = BigUint::from_bytes_be(em);
  if (crt_ == nullptr) {
    const BigUint sig = public_.mont_.exp(em_int, d_);
    return sig.to_bytes_be(public_.modulus_bytes());
  }
  // Garner's CRT recombination: sig = m2 + q * ((m1 - m2) * q^-1 mod p).
  const BigUint m1 = crt_->mont_p.exp(em_int, crt_->dp);
  const BigUint m2 = crt_->mont_q.exp(em_int, crt_->dq);
  const BigUint m2_mod_p = BigUint::mod(m2, crt_->p);
  const BigUint diff = m1 >= m2_mod_p
                           ? BigUint::sub(m1, m2_mod_p)
                           : BigUint::sub(BigUint::add(m1, crt_->p), m2_mod_p);
  const BigUint h = crt_->mont_p.mul(diff, crt_->q_inv_mod_p);
  const BigUint sig = BigUint::add(m2, BigUint::mul(crt_->q, h));
  return sig.to_bytes_be(public_.modulus_bytes());
}

RsaKeyPair generate_rsa_keypair(std::size_t modulus_bits, SplitMix64& rng) {
  if (modulus_bits < 256 || modulus_bits % 32 != 0) {
    throw std::invalid_argument(
        "modulus_bits must be >= 256 and a multiple of 32");
  }
  const BigUint e(65537);
  for (;;) {
    const BigUint p = generate_prime(modulus_bits / 2, rng);
    const BigUint q = generate_prime(modulus_bits / 2, rng);
    if (p == q) continue;
    const BigUint n = BigUint::mul(p, q);
    if (n.bit_length() != modulus_bits) continue;
    const BigUint phi = BigUint::mul(BigUint::sub(p, BigUint(1)),
                                     BigUint::sub(q, BigUint(1)));
    if (BigUint::gcd(e, phi) != BigUint(1)) continue;
    BigUint d = BigUint::mod_inverse(e, phi);
    RsaPublicKey pub(n, e);
    RsaPrivateKey priv(pub, std::move(d), p, q);
    return RsaKeyPair{std::move(pub), std::move(priv)};
  }
}

}  // namespace lookaside::crypto
