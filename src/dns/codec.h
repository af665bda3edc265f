// Full DNS message wire codec (RFC 1035 §4) with owner-name compression.
//
// The simulator's traffic-volume metrics (paper Tables 4-5, Figs 10-12) are
// computed from these encodings, so sizes track real packets: compression
// pointers, EDNS OPT records, and NSEC type bitmaps are all encoded
// faithfully.
#pragma once

#include "dns/message.h"
#include "dns/wire_io.h"

namespace lookaside::dns {

/// Encodes a message to wire format. Owner names and question names are
/// compressed; names inside RDATA are not (RFC 3597 rules).
[[nodiscard]] Bytes encode_message(const Message& message);

/// Decodes a wire-format message; throws WireFormatError on malformed input
/// (truncation, pointer loops, bad bitmaps, unknown RR types).
[[nodiscard]] Message decode_message(const Bytes& wire);

/// Encoded size in octets, counted by the same encoder (compression
/// included) without materializing any bytes.
[[nodiscard]] std::size_t wire_size(const Message& message);

}  // namespace lookaside::dns
