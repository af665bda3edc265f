// SHA-1 (FIPS 180-4). Its one job in the library is the NSEC3 owner hash
// (RFC 5155 §5, zone::nsec3_hash): every NSEC3 chain, proof, validator
// closest-encloser probe and cache synthesis pays iterations+1 SHA-1 calls
// per name. Not used for signatures.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "crypto/bytes.h"

namespace lookaside::crypto {

/// Incremental SHA-1 context. Interface mirrors Sha256.
class Sha1 {
 public:
  static constexpr std::size_t kDigestSize = 20;
  static constexpr std::size_t kBlockSize = 64;
  static constexpr std::array<std::uint32_t, 5> kInitialState = {
      0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476, 0xc3d2e1f0};

  Sha1() = default;

  void update(const std::uint8_t* data, std::size_t len);
  void update(const Bytes& data) { update(data.data(), data.size()); }
  void update(std::string_view text) {
    update(reinterpret_cast<const std::uint8_t*>(text.data()), text.size());
  }

  /// Finalizes and returns the 20-byte digest; context is spent afterwards.
  [[nodiscard]] Bytes finish();

  [[nodiscard]] static Bytes digest(const Bytes& data);
  [[nodiscard]] static Bytes digest(std::string_view text);

  /// The compression function: folds one 64-byte block into `state` (five
  /// words). Public so a caller that lays out its own padded message, like
  /// the iterated NSEC3 hash, can run rounds without a context.
  static void compress(std::uint32_t* state, const std::uint8_t* block);

 private:
  std::array<std::uint32_t, 5> state_ = kInitialState;
  std::array<std::uint8_t, kBlockSize> buffer_{};
  std::size_t buffered_ = 0;
  std::uint64_t total_bytes_ = 0;
};

}  // namespace lookaside::crypto
