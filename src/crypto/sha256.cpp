#include "crypto/sha256.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>

namespace lookaside::crypto {

namespace {

constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

// One of the 64 rounds, unrolled at compile time. The caller passes the
// working variables already renamed into (a..h) order: the round adds T1
// into d and writes T1 + T2 into h, so no register is shuffled between
// rounds. From round 16 on the message word is expanded in place in a
// rolling 16-word window.
template <int I>
inline void round(std::uint32_t a, std::uint32_t b, std::uint32_t c,
                  std::uint32_t& d, std::uint32_t e, std::uint32_t f,
                  std::uint32_t g, std::uint32_t& h, std::uint32_t* w) {
  if constexpr (I >= 16) {
    const std::uint32_t w15 = w[(I - 15) % 16];
    const std::uint32_t w2 = w[(I - 2) % 16];
    w[I % 16] += (std::rotr(w15, 7) ^ std::rotr(w15, 18) ^ (w15 >> 3)) +
                 w[(I - 7) % 16] +
                 (std::rotr(w2, 17) ^ std::rotr(w2, 19) ^ (w2 >> 10));
  }
  const std::uint32_t t1 =
      h + (std::rotr(e, 6) ^ std::rotr(e, 11) ^ std::rotr(e, 25)) +
      (g ^ (e & (f ^ g))) + kRoundConstants[I] + w[I % 16];
  d += t1;
  h = t1 + (std::rotr(a, 2) ^ std::rotr(a, 13) ^ std::rotr(a, 22)) +
      ((a & b) | (c & (a | b)));
}

template <int I>
inline void eight_rounds(std::uint32_t* v, std::uint32_t* w) {
  std::uint32_t &a = v[0], &b = v[1], &c = v[2], &d = v[3];
  std::uint32_t &e = v[4], &f = v[5], &g = v[6], &h = v[7];
  round<I>(a, b, c, d, e, f, g, h, w);
  round<I + 1>(h, a, b, c, d, e, f, g, w);
  round<I + 2>(g, h, a, b, c, d, e, f, w);
  round<I + 3>(f, g, h, a, b, c, d, e, w);
  round<I + 4>(e, f, g, h, a, b, c, d, w);
  round<I + 5>(d, e, f, g, h, a, b, c, w);
  round<I + 6>(c, d, e, f, g, h, a, b, w);
  round<I + 7>(b, c, d, e, f, g, h, a, w);
}

template <std::size_t... Group>
inline void all_rounds(std::uint32_t* v, std::uint32_t* w,
                       std::index_sequence<Group...>) {
  (eight_rounds<static_cast<int>(Group) * 8>(v, w), ...);
}

}  // namespace

void Sha256::compress(std::uint32_t* state, const std::uint8_t* block) {
  std::uint32_t w[16] = {};
  for (int i = 0; i < 16; ++i) w[i] = load_be32(block + 4 * i);
  std::uint32_t v[8] = {};
  std::memcpy(v, state, sizeof v);
  all_rounds(v, w, std::make_index_sequence<8>{});
  for (int i = 0; i < 8; ++i) state[i] += v[i];
}

void Sha256::update(const std::uint8_t* data, std::size_t len) {
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

Bytes Sha256::finish() {
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
  for (int i = 0; i < 8; ++i) store_be32(digest.data() + 4 * i, state_[i]);
  return digest;
}

Bytes Sha256::digest(const Bytes& data) {
  Sha256 ctx;
  ctx.update(data);
  return ctx.finish();
}

Bytes Sha256::digest(std::string_view text) {
  Sha256 ctx;
  ctx.update(text);
  return ctx.finish();
}

}  // namespace lookaside::crypto
