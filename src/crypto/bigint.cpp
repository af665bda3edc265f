#include "crypto/bigint.h"

#include <algorithm>
#include <array>
#include <bit>
#include <stdexcept>
#include <utility>

namespace lookaside::crypto {

BigUint::BigUint(std::uint64_t value) {
  if (value != 0) limbs_.push_back(static_cast<std::uint32_t>(value));
  if (value >> 32) limbs_.push_back(static_cast<std::uint32_t>(value >> 32));
}

void BigUint::normalize() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

BigUint BigUint::from_bytes_be(const Bytes& bytes) {
  BigUint out;
  out.limbs_.assign((bytes.size() + 3) / 4, 0);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    // bytes[i] is the (bytes.size()-1-i)-th byte from the LSB end.
    const std::size_t byte_index = bytes.size() - 1 - i;
    out.limbs_[byte_index / 4] |= static_cast<std::uint32_t>(bytes[i])
                                  << (8 * (byte_index % 4));
  }
  out.normalize();
  return out;
}

Bytes BigUint::to_bytes_be(std::size_t min_width) const {
  const std::size_t significant = (bit_length() + 7) / 8;
  const std::size_t width = std::max(min_width, std::max<std::size_t>(significant, 1));
  Bytes out(width, 0);
  for (std::size_t i = 0; i < significant; ++i) {
    out[width - 1 - i] =
        static_cast<std::uint8_t>(limbs_[i / 4] >> (8 * (i % 4)));
  }
  return out;
}

std::size_t BigUint::bit_length() const {
  if (limbs_.empty()) return 0;
  std::uint32_t top = limbs_.back();
  std::size_t bits = (limbs_.size() - 1) * 32;
  while (top != 0) {
    ++bits;
    top >>= 1;
  }
  return bits;
}

int BigUint::compare(const BigUint& other) const {
  if (limbs_.size() != other.limbs_.size()) {
    return limbs_.size() < other.limbs_.size() ? -1 : 1;
  }
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    if (limbs_[i] != other.limbs_[i]) return limbs_[i] < other.limbs_[i] ? -1 : 1;
  }
  return 0;
}

BigUint BigUint::add(const BigUint& a, const BigUint& b) {
  BigUint out;
  const std::size_t n = std::max(a.limbs_.size(), b.limbs_.size());
  out.limbs_.resize(n + 1, 0);
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t sum = carry;
    if (i < a.limbs_.size()) sum += a.limbs_[i];
    if (i < b.limbs_.size()) sum += b.limbs_[i];
    out.limbs_[i] = static_cast<std::uint32_t>(sum);
    carry = sum >> 32;
  }
  out.limbs_[n] = static_cast<std::uint32_t>(carry);
  out.normalize();
  return out;
}

BigUint BigUint::sub(const BigUint& a, const BigUint& b) {
  if (a.compare(b) < 0) throw std::invalid_argument("BigUint::sub underflow");
  BigUint out;
  out.limbs_.resize(a.limbs_.size(), 0);
  std::int64_t borrow = 0;
  for (std::size_t i = 0; i < a.limbs_.size(); ++i) {
    std::int64_t diff = static_cast<std::int64_t>(a.limbs_[i]) - borrow;
    if (i < b.limbs_.size()) diff -= b.limbs_[i];
    if (diff < 0) {
      diff += (1LL << 32);
      borrow = 1;
    } else {
      borrow = 0;
    }
    out.limbs_[i] = static_cast<std::uint32_t>(diff);
  }
  out.normalize();
  return out;
}

BigUint BigUint::mul(const BigUint& a, const BigUint& b) {
  if (a.is_zero() || b.is_zero()) return BigUint{};
  BigUint out;
  out.limbs_.assign(a.limbs_.size() + b.limbs_.size(), 0);
  for (std::size_t i = 0; i < a.limbs_.size(); ++i) {
    std::uint64_t carry = 0;
    for (std::size_t j = 0; j < b.limbs_.size(); ++j) {
      const std::uint64_t cur =
          static_cast<std::uint64_t>(a.limbs_[i]) * b.limbs_[j] +
          out.limbs_[i + j] + carry;
      out.limbs_[i + j] = static_cast<std::uint32_t>(cur);
      carry = cur >> 32;
    }
    out.limbs_[i + b.limbs_.size()] += static_cast<std::uint32_t>(carry);
  }
  out.normalize();
  return out;
}

BigUint BigUint::shifted_left(std::size_t bits) const {
  if (is_zero() || bits == 0) {
    BigUint out = *this;
    return out;
  }
  const std::size_t limb_shift = bits / 32;
  const std::size_t bit_shift = bits % 32;
  BigUint out;
  out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    const std::uint64_t value = static_cast<std::uint64_t>(limbs_[i])
                                << bit_shift;
    out.limbs_[i + limb_shift] |= static_cast<std::uint32_t>(value);
    out.limbs_[i + limb_shift + 1] |= static_cast<std::uint32_t>(value >> 32);
  }
  out.normalize();
  return out;
}

BigUint BigUint::shifted_right(std::size_t bits) const {
  const std::size_t limb_shift = bits / 32;
  if (limb_shift >= limbs_.size()) return BigUint{};
  const std::size_t bit_shift = bits % 32;
  BigUint out;
  out.limbs_.assign(limbs_.size() - limb_shift, 0);
  for (std::size_t i = 0; i < out.limbs_.size(); ++i) {
    std::uint64_t value = limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < limbs_.size()) {
      value |= static_cast<std::uint64_t>(limbs_[i + limb_shift + 1])
               << (32 - bit_shift);
    }
    out.limbs_[i] = static_cast<std::uint32_t>(value);
  }
  out.normalize();
  return out;
}

void BigUint::divmod(const BigUint& a, const BigUint& b, BigUint& quotient,
                     BigUint& remainder) {
  if (b.is_zero()) throw std::invalid_argument("BigUint division by zero");
  if (a.compare(b) < 0) {
    quotient = BigUint{};
    remainder = a;
    return;
  }
  // Knuth, TAOCP vol. 2, 4.3.1, Algorithm D: base-2^32 digits, 64-bit
  // intermediates. The results are built in locals, so `quotient` or
  // `remainder` may alias an operand.
  const std::vector<std::uint32_t>& u = a.limbs_;
  const std::vector<std::uint32_t>& v = b.limbs_;
  const std::size_t n = v.size();
  const std::size_t m = u.size() - n;
  BigUint q;
  q.limbs_.assign(m + 1, 0);
  if (n == 1) {
    // Short division by one digit.
    const std::uint64_t d = v[0];
    std::uint64_t rem = 0;
    for (std::size_t i = u.size(); i-- > 0;) {
      const std::uint64_t cur = (rem << 32) | u[i];
      q.limbs_[i] = static_cast<std::uint32_t>(cur / d);
      rem = cur % d;
    }
    q.normalize();
    quotient = std::move(q);
    remainder = BigUint(rem);
    return;
  }

  // D1: shift both operands so the divisor's top digit has its high bit set.
  // `un` gains a digit to hold what shifts out of the top of `u`.
  const int shift = std::countl_zero(v.back());
  const auto shifted = [shift](std::uint32_t high, std::uint32_t low) {
    const std::uint64_t pair = (static_cast<std::uint64_t>(high) << 32) | low;
    return static_cast<std::uint32_t>(pair >> (32 - shift));
  };
  std::vector<std::uint32_t> vn(n);
  for (std::size_t i = n - 1; i > 0; --i) vn[i] = shifted(v[i], v[i - 1]);
  vn[0] = shifted(v[0], 0);
  std::vector<std::uint32_t> un(u.size() + 1);
  un[u.size()] = shifted(0, u.back());
  for (std::size_t i = u.size() - 1; i > 0; --i) un[i] = shifted(u[i], u[i - 1]);
  un[0] = shifted(u[0], 0);

  const std::uint64_t top = vn[n - 1];
  const std::uint64_t second = vn[n - 2];
  for (std::size_t j = m + 1; j-- > 0;) {
    // D3: estimate the quotient digit from the top two remainder digits and
    // correct it against the divisor's second digit. Afterwards q_hat is
    // exact or one too large.
    const std::uint64_t num =
        (static_cast<std::uint64_t>(un[j + n]) << 32) | un[j + n - 1];
    std::uint64_t q_hat = num / top;
    std::uint64_t r_hat = num % top;
    while (q_hat > 0xFFFFFFFFu ||
           q_hat * second > ((r_hat << 32) | un[j + n - 2])) {
      --q_hat;
      r_hat += top;
      if (r_hat > 0xFFFFFFFFu) break;
    }

    // D4: multiply and subtract q_hat * vn from un[j .. j+n].
    std::uint64_t carry = 0;
    std::uint64_t borrow = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t product = q_hat * vn[i] + carry;
      carry = product >> 32;
      const std::uint64_t diff = static_cast<std::uint64_t>(un[i + j]) -
                                 static_cast<std::uint32_t>(product) - borrow;
      un[i + j] = static_cast<std::uint32_t>(diff);
      borrow = diff >> 63;  // 1 when the digit wrapped
    }
    const bool negative = un[j + n] < carry + borrow;
    un[j + n] = static_cast<std::uint32_t>(un[j + n] - carry - borrow);

    // D5/D6: q_hat was one too large; add the divisor back once.
    if (negative) {
      --q_hat;
      std::uint64_t sum_carry = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t sum =
            static_cast<std::uint64_t>(un[i + j]) + vn[i] + sum_carry;
        un[i + j] = static_cast<std::uint32_t>(sum);
        sum_carry = sum >> 32;
      }
      un[j + n] = static_cast<std::uint32_t>(un[j + n] + sum_carry);
    }
    q.limbs_[j] = static_cast<std::uint32_t>(q_hat);
  }

  // D8: the remainder is un[0 .. n-1] shifted back down.
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t pair =
        (static_cast<std::uint64_t>(un[i + 1]) << 32) | un[i];
    un[i] = static_cast<std::uint32_t>(pair >> shift);
  }
  un.resize(n);
  BigUint r;
  r.limbs_ = std::move(un);
  r.normalize();
  q.normalize();
  quotient = std::move(q);
  remainder = std::move(r);
}

BigUint BigUint::mod(const BigUint& a, const BigUint& m) {
  BigUint q, r;
  divmod(a, m, q, r);
  return r;
}

BigUint BigUint::gcd(BigUint a, BigUint b) {
  while (!b.is_zero()) {
    BigUint r = mod(a, b);
    a = std::move(b);
    b = std::move(r);
  }
  return a;
}

std::uint32_t BigUint::mod_u32(std::uint32_t divisor) const {
  if (divisor == 0) throw std::invalid_argument("mod_u32 by zero");
  std::uint64_t remainder = 0;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    remainder = ((remainder << 32) | limbs_[i]) % divisor;
  }
  return static_cast<std::uint32_t>(remainder);
}

std::uint64_t BigUint::low_u64() const {
  std::uint64_t value = limbs_.empty() ? 0 : limbs_[0];
  if (limbs_.size() > 1) value |= static_cast<std::uint64_t>(limbs_[1]) << 32;
  return value;
}

namespace {

/// Minimal signed wrapper for the extended Euclid bookkeeping.
struct SignedBig {
  BigUint magnitude;
  bool negative = false;

  [[nodiscard]] static SignedBig sub(const SignedBig& a, const SignedBig& b) {
    // a - b.
    if (a.negative == b.negative) {
      if (a.magnitude.compare(b.magnitude) >= 0) {
        return {BigUint::sub(a.magnitude, b.magnitude), a.negative};
      }
      return {BigUint::sub(b.magnitude, a.magnitude), !a.negative};
    }
    return {BigUint::add(a.magnitude, b.magnitude), a.negative};
  }

  [[nodiscard]] static SignedBig mul(const SignedBig& a, const BigUint& b) {
    return {BigUint::mul(a.magnitude, b), a.negative && !a.magnitude.is_zero()};
  }
};

}  // namespace

BigUint BigUint::mod_inverse(const BigUint& a, const BigUint& m) {
  if (m.is_zero()) throw std::domain_error("mod_inverse: zero modulus");
  BigUint r0 = mod(a, m);
  BigUint r1 = m;
  SignedBig s0{BigUint(1), false};
  SignedBig s1{BigUint{}, false};
  // Invariant: s_i * a ≡ r_i (mod m).
  while (!r1.is_zero()) {
    BigUint q, rem;
    divmod(r0, r1, q, rem);
    r0 = std::move(r1);
    r1 = std::move(rem);
    SignedBig s_next = SignedBig::sub(s0, SignedBig::mul(s1, q));
    s0 = std::move(s1);
    s1 = std::move(s_next);
  }
  if (r0 != BigUint(1)) throw std::domain_error("mod_inverse: not coprime");
  if (s0.negative) {
    // s0 is > -m in magnitude, so one addition suffices.
    return sub(m, mod(s0.magnitude, m));
  }
  return mod(s0.magnitude, m);
}

// ---------------------------------------------------------------------------
// Montgomery arithmetic
// ---------------------------------------------------------------------------

namespace {

using U128 = unsigned __int128;
using Word = std::uint64_t;

/// Widest modulus in 64-bit words (2048 bits); one kernel per width below.
constexpr std::size_t kMaxWords = 32;

/// Widest sliding window, and the odd powers its table holds.
constexpr std::size_t kMaxWindow = 5;
constexpr std::size_t kTableSize = std::size_t{1} << (kMaxWindow - 1);

/// Sliding-window width for an exponent of `bits` bits. A window of w bits
/// costs 2^(w-1) table entries up front and saves multiplies during the scan,
/// so wider windows pay off only on longer exponents. Width 1 is plain
/// square-and-multiply, which is cheapest for e = 65537.
std::size_t window_width(std::size_t bits) {
  if (bits <= 23) return 1;
  if (bits <= 79) return 3;
  if (bits <= 239) return 4;
  return kMaxWindow;
}

/// What every kernel reads of the modulus: its words, -n^{-1} mod 2^64 and
/// R^2 mod n.
struct Modulus {
  const Word* n;
  Word n0_inv;
  const Word* r2;
};

/// CIOS (coarsely integrated operand scanning) Montgomery product
/// out = a * b * R^{-1} mod n over K-word operands below n, R = 2^(64K).
/// `t` reaches `out` only at the end, so `out` may alias `a` or `b`.
template <std::size_t K>
void mont_mul(const Word* a, const Word* b, const Modulus& mod, Word* out) {
  const Word* n = mod.n;
  Word t[K + 2] = {};
  for (std::size_t i = 0; i < K; ++i) {
    // t += a * b[i]
    Word carry = 0;
    for (std::size_t j = 0; j < K; ++j) {
      const U128 cur = static_cast<U128>(a[j]) * b[i] + t[j] + carry;
      t[j] = static_cast<Word>(cur);
      carry = static_cast<Word>(cur >> 64);
    }
    U128 cur = static_cast<U128>(t[K]) + carry;
    t[K] = static_cast<Word>(cur);
    t[K + 1] = static_cast<Word>(cur >> 64);

    // t = (t + m*n) / 2^64 with m chosen so the low word cancels.
    const Word m = t[0] * mod.n0_inv;
    carry = static_cast<Word>((static_cast<U128>(m) * n[0] + t[0]) >> 64);
    for (std::size_t j = 1; j < K; ++j) {
      const U128 sum = static_cast<U128>(m) * n[j] + t[j] + carry;
      t[j - 1] = static_cast<Word>(sum);
      carry = static_cast<Word>(sum >> 64);
    }
    cur = static_cast<U128>(t[K]) + carry;
    t[K - 1] = static_cast<Word>(cur);
    t[K] = t[K + 1] + static_cast<Word>(cur >> 64);
  }

  // t < 2n here, so t[K] is 0 or 1. Subtract n once unless t < n, which is
  // when the K-word subtraction borrows and t[K] is 0.
  Word diff[K] = {};
  Word borrow = 0;
  for (std::size_t j = 0; j < K; ++j) {
    const Word d = t[j] - n[j];
    const Word under = t[j] < n[j] ? 1 : 0;
    diff[j] = d - borrow;
    borrow = under | (d < borrow ? 1 : 0);
  }
  std::copy_n(borrow > t[K] ? t : diff, K, out);
}

/// Bits [low, low + count) of a little-endian 32-bit limb array, count <= 32
/// and bit `low` inside the array: one 64-bit word from the two limbs the
/// range can touch.
Word exponent_bits(const std::vector<std::uint32_t>& limbs, std::size_t low,
                   std::size_t count) {
  const std::size_t i = low / 32;
  Word word = limbs[i];
  if (i + 1 < limbs.size()) word |= static_cast<Word>(limbs[i + 1]) << 32;
  return (word >> (low % 32)) & ((Word{1} << count) - 1);
}

/// x = x^exponent mod n for a K-word x below n and an exponent of `bits` > 0
/// bits, via a left-to-right sliding window over precomputed odd powers.
template <std::size_t K>
void mont_exp(const Modulus& mod, const std::vector<std::uint32_t>& exponent,
              std::size_t bits, Word* x) {
  // table[i] = x^(2i+1) in Montgomery form. Only the first 2^(width-1)
  // entries are used, and each is written before it is read.
  const std::size_t width = window_width(bits);
  Word table[kTableSize][K];
  mont_mul<K>(x, mod.r2, mod, table[0]);
  if (width > 1) {
    Word square[K] = {};
    mont_mul<K>(table[0], table[0], mod, square);
    for (std::size_t i = 1; i < (std::size_t{1} << (width - 1)); ++i) {
      mont_mul<K>(table[i - 1], square, mod, table[i]);
    }
  }

  // Left to right: a zero bit squares; a set bit opens a window of at most
  // `width` bits that ends on a set bit, whose odd value indexes the table.
  // The top bit is set, so the first window loads its power directly
  // instead of squaring one.
  Word acc[K] = {};
  bool started = false;
  for (std::size_t i = bits; i > 0;) {
    if (exponent_bits(exponent, i - 1, 1) == 0) {
      mont_mul<K>(acc, acc, mod, acc);
      --i;
      continue;
    }
    std::size_t low = i > width ? i - width : 0;
    Word window = exponent_bits(exponent, low, i - low);
    const int skip = std::countr_zero(window);
    window >>= skip;
    low += static_cast<std::size_t>(skip);
    if (started) {
      for (std::size_t j = low; j < i; ++j) mont_mul<K>(acc, acc, mod, acc);
      mont_mul<K>(acc, table[window >> 1], mod, acc);
    } else {
      std::copy_n(table[window >> 1], K, acc);
      started = true;
    }
    i = low;
  }

  // Convert out of Montgomery form: acc * 1 * R^{-1}.
  Word one[K] = {1};
  mont_mul<K>(acc, one, mod, x);
}

/// x = x * y mod n for K-word x and y below n: x*R^2*R^{-1} = x*R, then
/// x*R * y * R^{-1} = x*y.
template <std::size_t K>
void mont_mul_plain(const Modulus& mod, Word* x, const Word* y) {
  mont_mul<K>(x, mod.r2, mod, x);
  mont_mul<K>(x, y, mod, x);
}

/// The kernels at one width. Montgomery indexes the table below by k - 1,
/// so a call dispatches once and then runs at its modulus's width.
struct Kernels {
  void (*exp)(const Modulus&, const std::vector<std::uint32_t>&, std::size_t,
              Word*);
  void (*mul)(const Modulus&, Word*, const Word*);
};

template <std::size_t... I>
constexpr std::array<Kernels, sizeof...(I)> kernels_for(
    std::index_sequence<I...>) {
  return {Kernels{&mont_exp<I + 1>, &mont_mul_plain<I + 1>}...};
}

constexpr auto kKernels = kernels_for(std::make_index_sequence<kMaxWords>{});

}  // namespace

Montgomery::Montgomery(const BigUint& modulus) : modulus_(modulus) {
  if (!modulus.is_odd() || modulus.bit_length() < 2) {
    throw std::invalid_argument("Montgomery modulus must be odd and > 1");
  }
  if (modulus.bit_length() > 64 * kMaxWords) {
    throw std::invalid_argument("Montgomery modulus wider than 2048 bits");
  }
  k_ = (modulus.limbs().size() + 1) / 2;
  n_words_.resize(k_);
  to_words(modulus_, n_words_.data());

  // n0_inv = -n^{-1} mod 2^64 by Newton-Hensel lifting: inv = 1 is an
  // inverse mod 2, and each step doubles the number of correct low bits.
  const Word n0 = n_words_[0];
  Word inv = 1;
  for (int i = 0; i < 6; ++i) inv *= 2 - n0 * inv;
  n0_inv_ = 0 - inv;

  // R^2 mod n where R = 2^(64k).
  r2_.resize(k_);
  to_words(BigUint::mod(BigUint(1).shifted_left(128 * k_), modulus_),
           r2_.data());
}

void Montgomery::to_words(const BigUint& value, Word* out) const {
  std::fill_n(out, k_, Word{0});
  const std::vector<std::uint32_t>& limbs = value.limbs();
  for (std::size_t i = 0; i < limbs.size(); ++i) {
    out[i / 2] |= static_cast<Word>(limbs[i]) << (32 * (i % 2));
  }
}

BigUint Montgomery::from_words(const Word* words) const {
  BigUint out;
  out.limbs_.resize(2 * k_);
  for (std::size_t i = 0; i < k_; ++i) {
    out.limbs_[2 * i] = static_cast<std::uint32_t>(words[i]);
    out.limbs_[2 * i + 1] = static_cast<std::uint32_t>(words[i] >> 32);
  }
  out.normalize();
  return out;
}

BigUint Montgomery::mul(const BigUint& a, const BigUint& b) const {
  Word x[kMaxWords] = {};
  Word y[kMaxWords] = {};
  to_words(BigUint::mod(a, modulus_), x);
  to_words(BigUint::mod(b, modulus_), y);
  kKernels[k_ - 1].mul({n_words_.data(), n0_inv_, r2_.data()}, x, y);
  return from_words(x);
}

BigUint Montgomery::exp(const BigUint& base, const BigUint& exponent) const {
  const std::size_t bits = exponent.bit_length();
  if (bits == 0) return BigUint(1);  // n > 1, so 1 is already reduced
  Word x[kMaxWords] = {};
  to_words(BigUint::mod(base, modulus_), x);
  kKernels[k_ - 1].exp({n_words_.data(), n0_inv_, r2_.data()},
                       exponent.limbs(), bits, x);
  return from_words(x);
}

}  // namespace lookaside::crypto
