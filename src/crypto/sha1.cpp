#include "crypto/sha1.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>

namespace lookaside::crypto {

namespace {

// The round group's boolean function plus its constant.
template <int I>
inline std::uint32_t mix(std::uint32_t b, std::uint32_t c, std::uint32_t d) {
  if constexpr (I < 20) {
    return (d ^ (b & (c ^ d))) + 0x5a827999;  // choose
  } else if constexpr (I < 40) {
    return (b ^ c ^ d) + 0x6ed9eba1;  // parity
  } else if constexpr (I < 60) {
    return ((b & c) | (d & (b | c))) + 0x8f1bbcdc;  // majority
  } else {
    return (b ^ c ^ d) + 0xca62c1d6;  // parity
  }
}

// One of the 80 rounds, unrolled at compile time. The caller passes the
// working variables already renamed into (a, b, c, d, e) order: the round
// adds into e and rotates b, so no register is shuffled between rounds.
// From round 16 on the message word is expanded in place in a rolling
// 16-word window.
template <int I>
inline void round(std::uint32_t a, std::uint32_t& b, std::uint32_t c,
                  std::uint32_t d, std::uint32_t& e, std::uint32_t* w) {
  if constexpr (I >= 16) {
    w[I % 16] = std::rotl(
        w[(I - 3) % 16] ^ w[(I - 8) % 16] ^ w[(I - 14) % 16] ^ w[I % 16], 1);
  }
  e += std::rotl(a, 5) + mix<I>(b, c, d) + w[I % 16];
  b = std::rotl(b, 30);
}

template <int I>
inline void five_rounds(std::uint32_t* v, std::uint32_t* w) {
  std::uint32_t &a = v[0], &b = v[1], &c = v[2], &d = v[3], &e = v[4];
  round<I>(a, b, c, d, e, w);
  round<I + 1>(e, a, b, c, d, w);
  round<I + 2>(d, e, a, b, c, w);
  round<I + 3>(c, d, e, a, b, w);
  round<I + 4>(b, c, d, e, a, w);
}

template <std::size_t... Group>
inline void all_rounds(std::uint32_t* v, std::uint32_t* w,
                       std::index_sequence<Group...>) {
  (five_rounds<static_cast<int>(Group) * 5>(v, w), ...);
}

}  // namespace

void Sha1::compress(std::uint32_t* state, const std::uint8_t* block) {
  std::uint32_t w[16] = {};
  for (int i = 0; i < 16; ++i) w[i] = load_be32(block + 4 * i);
  std::uint32_t v[5] = {};
  std::memcpy(v, state, sizeof v);
  all_rounds(v, w, std::make_index_sequence<16>{});
  for (int i = 0; i < 5; ++i) state[i] += v[i];
}

void Sha1::update(const std::uint8_t* data, std::size_t len) {
  total_bytes_ += len;
  while (len > 0) {
    if (buffered_ == 0 && len >= kBlockSize) {
      compress(state_.data(), data);
      data += kBlockSize;
      len -= kBlockSize;
      continue;
    }
    const std::size_t take = std::min(kBlockSize - buffered_, len);
    std::memcpy(buffer_.data() + buffered_, data, take);
    buffered_ += take;
    data += take;
    len -= take;
    if (buffered_ == kBlockSize) {
      compress(state_.data(), buffer_.data());
      buffered_ = 0;
    }
  }
}

Bytes Sha1::finish() {
  // 0x80, zeros, then the 64-bit bit length in the last 8 bytes of a block;
  // a tail past byte 55 leaves no room for the length and takes a block of
  // its own.
  buffer_[buffered_++] = 0x80;
  if (buffered_ > kBlockSize - 8) {
    std::memset(buffer_.data() + buffered_, 0, kBlockSize - buffered_);
    compress(state_.data(), buffer_.data());
    buffered_ = 0;
  }
  std::memset(buffer_.data() + buffered_, 0, kBlockSize - 8 - buffered_);
  store_be64(buffer_.data() + kBlockSize - 8, total_bytes_ * 8);
  compress(state_.data(), buffer_.data());

  Bytes digest(kDigestSize);
  for (int i = 0; i < 5; ++i) store_be32(digest.data() + 4 * i, state_[i]);
  return digest;
}

Bytes Sha1::digest(const Bytes& data) {
  Sha1 ctx;
  ctx.update(data);
  return ctx.finish();
}

Bytes Sha1::digest(std::string_view text) {
  Sha1 ctx;
  ctx.update(text);
  return ctx.finish();
}

}  // namespace lookaside::crypto
