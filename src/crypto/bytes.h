// Shared byte-buffer alias and hex helpers used across the library.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace lookaside::crypto {

/// The library-wide octet buffer type (wire messages, digests, keys, ...).
using Bytes = std::vector<std::uint8_t>;

/// Lower-case hex encoding of `data`.
[[nodiscard]] std::string to_hex(const Bytes& data);

/// Parses lower/upper-case hex; throws std::invalid_argument on bad input.
[[nodiscard]] Bytes from_hex(std::string_view hex);

/// Converts a string's bytes verbatim.
[[nodiscard]] Bytes bytes_of(std::string_view text);

/// Big-endian word access for the hash kernels (FIPS 180-4 is big-endian).
[[nodiscard]] inline std::uint32_t load_be32(const std::uint8_t* in) {
  return static_cast<std::uint32_t>(in[0]) << 24 |
         static_cast<std::uint32_t>(in[1]) << 16 |
         static_cast<std::uint32_t>(in[2]) << 8 |
         static_cast<std::uint32_t>(in[3]);
}

inline void store_be32(std::uint8_t* out, std::uint32_t value) {
  out[0] = static_cast<std::uint8_t>(value >> 24);
  out[1] = static_cast<std::uint8_t>(value >> 16);
  out[2] = static_cast<std::uint8_t>(value >> 8);
  out[3] = static_cast<std::uint8_t>(value);
}

inline void store_be64(std::uint8_t* out, std::uint64_t value) {
  store_be32(out, static_cast<std::uint32_t>(value >> 32));
  store_be32(out + 4, static_cast<std::uint32_t>(value));
}

}  // namespace lookaside::crypto
