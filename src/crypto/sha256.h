// SHA-256 (FIPS 180-4), implemented from scratch for the DNSSEC substrate.
//
// Used for RRSIG message digests (RSASHA256-style), DS digests (digest type
// 2), and the privacy-preserving DLV remedy's domain-name hashing.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "crypto/bytes.h"

namespace lookaside::crypto {

/// Incremental SHA-256 context.
class Sha256 {
 public:
  static constexpr std::size_t kDigestSize = 32;
  static constexpr std::size_t kBlockSize = 64;

  Sha256() = default;

  /// Absorbs `len` bytes at `data`. May be called repeatedly.
  void update(const std::uint8_t* data, std::size_t len);
  void update(const Bytes& data) { update(data.data(), data.size()); }
  void update(std::string_view text) {
    update(reinterpret_cast<const std::uint8_t*>(text.data()), text.size());
  }

  /// Finalizes and returns the 32-byte digest. The context must not be
  /// updated afterwards; construct a fresh one for a new message.
  [[nodiscard]] Bytes finish();

  /// One-shot convenience.
  [[nodiscard]] static Bytes digest(const Bytes& data);
  [[nodiscard]] static Bytes digest(std::string_view text);

 private:
  static constexpr std::array<std::uint32_t, 8> kInitialState = {
      0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
      0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

  /// The compression function: folds one 64-byte block into `state`
  /// (eight words).
  static void compress(std::uint32_t* state, const std::uint8_t* block);

  std::array<std::uint32_t, 8> state_ = kInitialState;
  std::array<std::uint8_t, kBlockSize> buffer_{};
  std::size_t buffered_ = 0;
  std::uint64_t total_bytes_ = 0;
};

}  // namespace lookaside::crypto
