// Unit and property tests for BigUint and Montgomery arithmetic.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "crypto/bigint.h"
#include "crypto/rng.h"

namespace lookaside::crypto {
namespace {

using U128 = unsigned __int128;

BigUint from_u128(U128 v) {
  Bytes be(16);
  for (int i = 0; i < 16; ++i) {
    be[15 - i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
  return BigUint::from_bytes_be(be);
}

U128 to_u128(const BigUint& v) {
  U128 out = 0;
  const Bytes be = v.to_bytes_be(16);
  EXPECT_LE(be.size(), 16u);
  for (std::uint8_t b : be) out = (out << 8) | b;
  return out;
}

using Limbs = std::vector<std::uint32_t>;

BigUint from_limbs(const Limbs& limbs) {
  Bytes be;
  for (std::size_t i = limbs.size(); i-- > 0;) {
    for (int shift = 24; shift >= 0; shift -= 8) {
      be.push_back(static_cast<std::uint8_t>(limbs[i] >> shift));
    }
  }
  return BigUint::from_bytes_be(be);
}

/// Test-only oracle: bit-serial long division on raw limbs, one quotient bit
/// per step. It shares nothing with Algorithm D's digit estimates, so it is
/// an independent reference.
void bit_serial_divmod(const Limbs& a, const Limbs& b, BigUint& quotient,
                       BigUint& remainder) {
  const std::size_t n = b.size() + 1;  // 2r + 1 < 2b fits in one more limb
  Limbs divisor = b;
  divisor.push_back(0);
  Limbs r(n, 0);
  Limbs q(a.size(), 0);
  for (std::size_t i = a.size() * 32; i-- > 0;) {
    for (std::size_t j = n; j-- > 1;) r[j] = (r[j] << 1) | (r[j - 1] >> 31);
    r[0] = (r[0] << 1) | ((a[i / 32] >> (i % 32)) & 1u);
    bool geq = true;
    for (std::size_t j = n; j-- > 0;) {
      if (r[j] != divisor[j]) {
        geq = r[j] > divisor[j];
        break;
      }
    }
    if (!geq) continue;
    std::uint32_t borrow = 0;
    for (std::size_t j = 0; j < n; ++j) {
      const std::uint64_t diff = static_cast<std::uint64_t>(r[j]) -
                                 divisor[j] - borrow;
      r[j] = static_cast<std::uint32_t>(diff);
      borrow = static_cast<std::uint32_t>(diff >> 63);
    }
    q[i / 32] |= 1u << (i % 32);
  }
  quotient = from_limbs(q);
  remainder = from_limbs(r);
}

/// Random limbs with a nonzero top limb; `ones` sets about half the limbs
/// to 0xFFFFFFFF, which stresses the q-hat estimate and carry chains.
Limbs random_limbs(SplitMix64& rng, std::size_t count, bool ones) {
  Limbs limbs(count);
  for (std::uint32_t& limb : limbs) {
    limb = static_cast<std::uint32_t>(rng.next());
    if (ones && rng.next_below(2) == 0) limb = 0xFFFFFFFFu;
  }
  if (limbs.back() == 0) limbs.back() = 1;
  return limbs;
}

/// Checks divmod against the oracle and the identities q*b + r == a, r < b.
void expect_divmod_matches_oracle(const Limbs& a_limbs, const Limbs& b_limbs) {
  const BigUint a = from_limbs(a_limbs);
  const BigUint b = from_limbs(b_limbs);
  BigUint q, r, oracle_q, oracle_r;
  BigUint::divmod(a, b, q, r);
  bit_serial_divmod(a_limbs, b_limbs, oracle_q, oracle_r);
  ASSERT_EQ(q, oracle_q) << a_limbs.size() << "/" << b_limbs.size() << " limbs";
  ASSERT_EQ(r, oracle_r) << a_limbs.size() << "/" << b_limbs.size() << " limbs";
  ASSERT_EQ(BigUint::add(BigUint::mul(q, b), r), a);
  ASSERT_LT(r, b);
}

TEST(BigUintDivmodTest, MatchesBitSerialOracle) {
  // 100k pairs of 1-64 limbs. Sizes are drawn from power-of-two classes so
  // the oracle's bits(a) * limbs(b) cost stays small while every class up to
  // 64 limbs gets thousands of pairs. Each pair also takes one edge shape.
  SplitMix64 rng(0x4b6e757468);
  for (int i = 0; i < 100'000; ++i) {
    const std::size_t max_limbs = std::size_t{1} << rng.next_below(7);
    const std::size_t a_size = 1 + rng.next_below(max_limbs);
    const bool ones = rng.next_below(4) == 0;
    Limbs a = random_limbs(rng, a_size, ones);
    Limbs b;
    switch (rng.next_below(5)) {
      case 0:  // one-limb divisor: the short path
        b = random_limbs(rng, 1, ones);
        break;
      case 1:  // divisor top bit already set: normalisation shift 0
        b = random_limbs(rng, 1 + rng.next_below(a_size), ones);
        b.back() |= 0x80000000u;
        break;
      case 2:  // a == b
        b = a;
        break;
      case 3:  // divisor longer than the dividend: quotient 0
        b = random_limbs(rng, a_size + 1 + rng.next_below(2), ones);
        break;
      default:
        b = random_limbs(rng, 1 + rng.next_below(a_size), ones);
        break;
    }
    expect_divmod_matches_oracle(a, b);
    if (HasFatalFailure()) return;
  }
}

TEST(BigUintDivmodTest, WidestOperandsMatchOracle) {
  // The widest shapes the random classes rarely draw: 64-limb dividends over
  // 63-, 32- and 2-limb divisors, and a 64-limb divisor with runs of ones.
  SplitMix64 rng(64);
  for (int i = 0; i < 40; ++i) {
    const bool ones = i % 2 == 0;
    const Limbs a = random_limbs(rng, 64, ones);
    for (std::size_t b_size : {std::size_t{63}, std::size_t{32},
                               std::size_t{2}, std::size_t{64}}) {
      expect_divmod_matches_oracle(a, random_limbs(rng, b_size, ones));
      if (HasFatalFailure()) return;
    }
  }
}

TEST(BigUintDivmodTest, AddBackCases) {
  // Operands for which the corrected q-hat is still one too large, so the
  // multiply-and-subtract step goes negative and Algorithm D adds the
  // divisor back (step D6). Random operands reach it with probability about
  // 2^-31 per digit, so these are built by hand. Limbs are little-endian.
  struct Case {
    Limbs a, b, q, r;
  };
  const Case cases[] = {
      {{0, 0, 0x80000000u, 0x7FFFFFFFu},
       {1, 0, 0x80000000u},
       {0xFFFFFFFEu},
       {2, 0xFFFFFFFFu, 0x7FFFFFFFu}},
      {{0, 0xFFFFFFFEu, 0, 0x80000000u},
       {0xFFFFFFFFu, 0, 0x80000000u},
       {0xFFFFFFFFu},
       {0xFFFFFFFFu, 0xFFFFFFFFu, 0x7FFFFFFFu}},
      {{3, 0, 0x80000000u}, {1, 0, 0x20000000u}, {3}, {0, 0, 0x20000000u}},
      {{0, 0, 0x8000u, 0x7FFFu},
       {1, 0, 0x8000u},
       {0xFFFE0000u},
       {0x20000u, 0xFFFFFFFFu, 0x7FFFu}},
  };
  for (const Case& c : cases) {
    BigUint q, r;
    BigUint::divmod(from_limbs(c.a), from_limbs(c.b), q, r);
    EXPECT_EQ(q, from_limbs(c.q));
    EXPECT_EQ(r, from_limbs(c.r));
    expect_divmod_matches_oracle(c.a, c.b);
  }
}

TEST(BigUintDivmodTest, OutputsMayAliasOperands) {
  const BigUint a = from_limbs({5, 6, 7, 8});
  const BigUint b = from_limbs({3, 0x80000001u});
  BigUint q, r;
  BigUint::divmod(a, b, q, r);
  BigUint x = a;
  BigUint y = b;
  BigUint::divmod(x, y, x, y);
  EXPECT_EQ(x, q);
  EXPECT_EQ(y, r);
}

TEST(BigUintTest, ZeroBasics) {
  BigUint zero;
  EXPECT_TRUE(zero.is_zero());
  EXPECT_FALSE(zero.is_odd());
  EXPECT_EQ(zero.bit_length(), 0u);
  EXPECT_EQ(zero.to_bytes_be(), Bytes{0});
  EXPECT_EQ(BigUint::from_bytes_be({}), zero);
  EXPECT_EQ(BigUint::from_bytes_be({0, 0, 0}), zero);
}

TEST(BigUintTest, ByteRoundTrip) {
  const Bytes bytes = {0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09};
  const BigUint v = BigUint::from_bytes_be(bytes);
  EXPECT_EQ(v.to_bytes_be(), bytes);
  EXPECT_EQ(v.bit_length(), 65u);
}

TEST(BigUintTest, LeadingZerosStripped) {
  const BigUint a = BigUint::from_bytes_be({0x00, 0x00, 0x12, 0x34});
  const BigUint b = BigUint::from_bytes_be({0x12, 0x34});
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.to_bytes_be(4), Bytes({0x00, 0x00, 0x12, 0x34}));
}

TEST(BigUintTest, CompareOrdering) {
  EXPECT_LT(BigUint(1), BigUint(2));
  EXPECT_LT(BigUint(0xFFFFFFFFULL), BigUint(0x100000000ULL));
  EXPECT_EQ(BigUint(42).compare(BigUint(42)), 0);
  EXPECT_GT(BigUint(0x100000000ULL), BigUint(5));
}

TEST(BigUintTest, SubUnderflowThrows) {
  EXPECT_THROW(BigUint::sub(BigUint(1), BigUint(2)), std::invalid_argument);
}

TEST(BigUintTest, DivisionByZeroThrows) {
  BigUint q, r;
  EXPECT_THROW(BigUint::divmod(BigUint(1), BigUint{}, q, r),
               std::invalid_argument);
}

TEST(BigUintPropertyTest, AddSubMulDivAgainstU128) {
  SplitMix64 rng(0xbeefcafe);
  for (int i = 0; i < 2000; ++i) {
    const U128 a = (static_cast<U128>(rng.next()) << 32) | rng.next() % 997;
    const U128 b = (static_cast<U128>(rng.next() % 0xFFFFFFFF) << 16) | 1;
    const BigUint big_a = from_u128(a);
    const BigUint big_b = from_u128(b);

    EXPECT_EQ(to_u128(BigUint::add(big_a, big_b)), a + b);
    if (a >= b) {
      EXPECT_EQ(to_u128(BigUint::sub(big_a, big_b)), a - b);
    }
    // Keep the product within 128 bits by masking the operands.
    const U128 small_a = a & 0xFFFFFFFFFFFFULL;
    const U128 small_b = b & 0xFFFFFFFFFFFFULL;
    EXPECT_EQ(to_u128(BigUint::mul(from_u128(small_a), from_u128(small_b))),
              small_a * small_b);

    BigUint q, r;
    BigUint::divmod(big_a, big_b, q, r);
    EXPECT_EQ(to_u128(q), a / b);
    EXPECT_EQ(to_u128(r), a % b);
    // a == q*b + r reconstruction.
    EXPECT_EQ(BigUint::add(BigUint::mul(q, big_b), r), big_a);
  }
}

TEST(BigUintPropertyTest, ShiftsMatchMultiplication) {
  SplitMix64 rng(7);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t v = rng.next();
    const std::size_t shift = rng.next_below(60);
    const BigUint big(v);
    EXPECT_EQ(big.shifted_left(shift),
              BigUint::mul(big, BigUint(1).shifted_left(shift)));
    EXPECT_EQ(big.shifted_left(shift).shifted_right(shift), big);
  }
}

TEST(BigUintTest, ModU32) {
  const BigUint v = BigUint::from_bytes_be(
      {0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde, 0xf0, 0x11, 0x22});
  // Reference via divmod.
  for (std::uint32_t d : {3u, 7u, 65537u, 0xFFFFFFFFu}) {
    BigUint q, r;
    BigUint::divmod(v, BigUint(d), q, r);
    EXPECT_EQ(v.mod_u32(d), r.low_u64());
  }
}

TEST(BigUintTest, GcdKnownValues) {
  EXPECT_EQ(BigUint::gcd(BigUint(48), BigUint(18)), BigUint(6));
  EXPECT_EQ(BigUint::gcd(BigUint(17), BigUint(13)), BigUint(1));
  EXPECT_EQ(BigUint::gcd(BigUint(0), BigUint(5)), BigUint(5));
}

TEST(BigUintTest, ModInverseProperty) {
  SplitMix64 rng(99);
  const BigUint m(1000003);  // prime
  for (int i = 0; i < 100; ++i) {
    const BigUint a(1 + rng.next_below(1000002));
    const BigUint inv = BigUint::mod_inverse(a, m);
    EXPECT_EQ(BigUint::mod(BigUint::mul(a, inv), m), BigUint(1));
  }
}

TEST(BigUintTest, ModInverseNotCoprimeThrows) {
  EXPECT_THROW(BigUint::mod_inverse(BigUint(6), BigUint(9)), std::domain_error);
}

TEST(MontgomeryTest, RejectsEvenModulus) {
  EXPECT_THROW(Montgomery(BigUint(10)), std::invalid_argument);
  EXPECT_THROW(Montgomery(BigUint(1)), std::invalid_argument);
}

TEST(MontgomeryTest, MulMatchesDivmod) {
  SplitMix64 rng(4242);
  const BigUint m(0xFFFFFFFFFFFFFFC5ULL);  // large odd (prime) modulus
  const Montgomery mont(m);
  for (int i = 0; i < 500; ++i) {
    const BigUint a(rng.next());
    const BigUint b(rng.next());
    EXPECT_EQ(mont.mul(a, b), BigUint::mod(BigUint::mul(a, b), m));
  }
}

TEST(MontgomeryTest, ExpMatchesRepeatedMul) {
  const BigUint m(1000003);
  const Montgomery mont(m);
  const BigUint base(7);
  BigUint expect(1);
  for (std::uint64_t e = 0; e < 50; ++e) {
    EXPECT_EQ(mont.exp(base, BigUint(e)), expect) << "e=" << e;
    expect = BigUint::mod(BigUint::mul(expect, base), m);
  }
}

TEST(MontgomeryTest, FermatLittleTheorem) {
  // a^(p-1) ≡ 1 mod p for prime p.
  const BigUint p(0xFFFFFFFFFFFFFFC5ULL);
  const Montgomery mont(p);
  SplitMix64 rng(31337);
  for (int i = 0; i < 20; ++i) {
    const BigUint a(2 + rng.next_below(1'000'000'000));
    EXPECT_EQ(mont.exp(a, BigUint::sub(p, BigUint(1))), BigUint(1));
  }
}

TEST(MontgomeryTest, MultiLimbModulus) {
  // 128-bit modulus; cross-check exp against square-and-multiply with divmod.
  const BigUint m = BigUint::from_bytes_be(from_hex(
      "f23ab61937c4ad1b00593dbd7d87ba15"));  // odd 128-bit number
  const Montgomery mont(m);
  SplitMix64 rng(555);
  for (int i = 0; i < 30; ++i) {
    const BigUint base(rng.next());
    const BigUint exponent(rng.next_below(1000));
    BigUint expect(1);
    for (std::uint64_t e = 0; e < exponent.low_u64(); ++e) {
      expect = BigUint::mod(BigUint::mul(expect, base), m);
    }
    EXPECT_EQ(mont.exp(base, exponent), expect);
  }
}

/// Reference modular power: left-to-right square-and-multiply through
/// mul and divmod, with no Montgomery form.
BigUint naive_pow(const BigUint& base, const BigUint& exponent,
                  const BigUint& m) {
  const BigUint reduced = BigUint::mod(base, m);
  BigUint acc = BigUint::mod(BigUint(1), m);
  for (std::size_t i = exponent.bit_length(); i-- > 0;) {
    acc = BigUint::mod(BigUint::mul(acc, acc), m);
    if (exponent.bit(i)) acc = BigUint::mod(BigUint::mul(acc, reduced), m);
  }
  return acc;
}

/// A random exponent of exactly `bits` bits.
BigUint random_exponent(SplitMix64& rng, std::size_t bits) {
  Limbs limbs = random_limbs(rng, (bits + 31) / 32, false);
  const std::size_t top = (bits - 1) % 32;
  limbs.back() &= static_cast<std::uint32_t>((std::uint64_t{2} << top) - 1);
  limbs.back() |= 1u << top;
  return from_limbs(limbs);
}

TEST(MontgomeryTest, ExpMatchesNaiveAcrossWidthsAndWindows) {
  // Odd limb counts leave the top 64-bit word half full. Exponent lengths
  // sit on either side of each window-width step (23/24, 79/80, 239/240).
  SplitMix64 rng(0x57696e646f77);
  for (std::size_t limbs : {3u, 5u, 9u, 16u, 64u}) {
    Limbs m_limbs = random_limbs(rng, limbs, false);
    m_limbs[0] |= 1u;
    const BigUint m = from_limbs(m_limbs);
    const Montgomery mont(m);

    std::vector<BigUint> exponents = {BigUint{}, BigUint(1)};
    for (std::size_t k : {1u, 31u, 32u, 63u, 64u, 200u}) {
      exponents.push_back(BigUint(1).shifted_left(k));
    }
    for (std::size_t bits : {23u, 24u, 79u, 80u, 239u, 240u, 520u}) {
      exponents.push_back(random_exponent(rng, bits));
    }
    const std::vector<BigUint> bases = {
        BigUint{}, BigUint(2), BigUint::sub(m, BigUint(1)),
        from_limbs(random_limbs(rng, limbs + 1, false)),  // above m
        from_limbs(random_limbs(rng, limbs, true))};
    for (const BigUint& exponent : exponents) {
      for (const BigUint& base : bases) {
        EXPECT_EQ(mont.exp(base, exponent), naive_pow(base, exponent, m))
            << limbs << " limbs, exponent bits " << exponent.bit_length();
      }
    }
  }
}

}  // namespace
}  // namespace lookaside::crypto
