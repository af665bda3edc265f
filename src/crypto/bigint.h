// Arbitrary-precision unsigned integers with Montgomery modular arithmetic.
//
// Sized for DNSSEC simulation: moduli of 256-2048 bits. BigUint stores 32-bit
// limbs and divides with Knuth's Algorithm D on 64-bit intermediates. The
// Montgomery kernel is one CIOS product and one left-to-right sliding-window
// exponentiation, templated on the modulus's 64-bit word count K and
// instantiated for every K from 1 to 32. `exp` and `mul` dispatch once per
// call on the modulus's width, so the product's loops, its scratch and the
// window table are all sized at compile time. Products use
// `unsigned __int128` (a GCC/Clang extension); the exponent is read through
// 64-bit words. A 128-bit exponentiation (one half of a 256-bit CRT sign)
// costs about 2.4 us on a 4-vCPU shared host (gcc 12, -O2).
#pragma once

#include <cstdint>
#include <vector>

#include "crypto/bytes.h"

namespace lookaside::crypto {

/// Unsigned big integer; value-semantic, little-endian 32-bit limbs,
/// always normalized (no trailing zero limbs; zero == empty limb vector).
class BigUint {
 public:
  BigUint() = default;
  explicit BigUint(std::uint64_t value);

  /// Parses big-endian bytes (leading zeros allowed).
  [[nodiscard]] static BigUint from_bytes_be(const Bytes& bytes);

  /// Serializes big-endian; zero-pads on the left to at least `min_width`.
  [[nodiscard]] Bytes to_bytes_be(std::size_t min_width = 0) const;

  [[nodiscard]] bool is_zero() const { return limbs_.empty(); }
  [[nodiscard]] bool is_odd() const {
    return !limbs_.empty() && (limbs_[0] & 1u);
  }
  /// Number of significant bits; 0 for zero.
  [[nodiscard]] std::size_t bit_length() const;

  /// Three-way comparison: -1, 0, or +1.
  [[nodiscard]] int compare(const BigUint& other) const;
  friend bool operator==(const BigUint& a, const BigUint& b) {
    return a.compare(b) == 0;
  }
  friend bool operator!=(const BigUint& a, const BigUint& b) {
    return a.compare(b) != 0;
  }
  friend bool operator<(const BigUint& a, const BigUint& b) {
    return a.compare(b) < 0;
  }
  friend bool operator<=(const BigUint& a, const BigUint& b) {
    return a.compare(b) <= 0;
  }
  friend bool operator>(const BigUint& a, const BigUint& b) {
    return a.compare(b) > 0;
  }
  friend bool operator>=(const BigUint& a, const BigUint& b) {
    return a.compare(b) >= 0;
  }

  [[nodiscard]] static BigUint add(const BigUint& a, const BigUint& b);
  /// Requires a >= b; throws std::invalid_argument otherwise.
  [[nodiscard]] static BigUint sub(const BigUint& a, const BigUint& b);
  [[nodiscard]] static BigUint mul(const BigUint& a, const BigUint& b);

  [[nodiscard]] BigUint shifted_left(std::size_t bits) const;
  [[nodiscard]] BigUint shifted_right(std::size_t bits) const;

  /// Computes quotient and remainder of a / b (Knuth's Algorithm D); throws
  /// on division by zero.
  static void divmod(const BigUint& a, const BigUint& b, BigUint& quotient,
                     BigUint& remainder);
  [[nodiscard]] static BigUint mod(const BigUint& a, const BigUint& m);

  /// Greatest common divisor.
  [[nodiscard]] static BigUint gcd(BigUint a, BigUint b);

  /// Modular inverse of a mod m; throws std::domain_error if not coprime.
  [[nodiscard]] static BigUint mod_inverse(const BigUint& a, const BigUint& m);

  /// Remainder of this modulo a small divisor; divisor must be nonzero.
  [[nodiscard]] std::uint32_t mod_u32(std::uint32_t divisor) const;

  /// Low 64 bits of the value.
  [[nodiscard]] std::uint64_t low_u64() const;

  [[nodiscard]] const std::vector<std::uint32_t>& limbs() const {
    return limbs_;
  }

 private:
  friend class Montgomery;
  void normalize();

  std::vector<std::uint32_t> limbs_;
};

/// Precomputed Montgomery context for a fixed odd modulus > 1.
/// All public methods take/return ordinary (non-Montgomery-form) values.
class Montgomery {
 public:
  explicit Montgomery(const BigUint& modulus);

  [[nodiscard]] const BigUint& modulus() const { return modulus_; }

  /// (a * b) mod n.
  [[nodiscard]] BigUint mul(const BigUint& a, const BigUint& b) const;

  /// (base ^ exponent) mod n via a left-to-right sliding window over
  /// precomputed odd powers; the width grows with the exponent's length.
  [[nodiscard]] BigUint exp(const BigUint& base, const BigUint& exponent) const;

 private:
  using Word = std::uint64_t;

  /// Writes a value below n as k words.
  void to_words(const BigUint& value, Word* out) const;
  [[nodiscard]] BigUint from_words(const Word* words) const;

  BigUint modulus_;
  std::size_t k_;              // 64-bit word count of the modulus
  Word n0_inv_;                // -n^{-1} mod 2^64
  std::vector<Word> n_words_;  // modulus, k words
  std::vector<Word> r2_;       // R^2 mod n with R = 2^(64k), k words
};

}  // namespace lookaside::crypto
