// Resource-record types, classes and response codes used by the simulator.
#pragma once

#include <cstdint>
#include <string>

namespace lookaside::dns {

/// RR TYPE values (IANA registry subset). DLV is 32769 per RFC 5074 and the
/// paper ("The type bit is set to DLV as 32769 in the DNS query").
enum class RRType : std::uint16_t {
  kA = 1,
  kNs = 2,
  kCname = 5,
  kSoa = 6,
  kPtr = 12,
  kMx = 15,
  kTxt = 16,
  kAaaa = 28,
  kOpt = 41,
  kDs = 43,
  kRrsig = 46,
  kNsec = 47,
  kDnskey = 48,
  kNsec3 = 50,
  kNsec3Param = 51,
  kDlv = 32769,
};

/// RR CLASS values. Zones here serve only IN; a decoded record keeps the
/// class its wire form carried, and the RRSIG image covers it.
enum class RRClass : std::uint16_t {
  kIn = 1,
};

/// Response codes (RFC 1035 §4.1.1 plus the paper's vocabulary:
/// "No error" == kNoError, "No such name" == kNxDomain).
enum class RCode : std::uint8_t {
  kNoError = 0,
  kFormErr = 1,
  kServFail = 2,
  kNxDomain = 3,
  kNotImp = 4,
  kRefused = 5,
};

/// Mnemonic text for an RR type ("A", "DLV", "TYPE123" for unknowns).
[[nodiscard]] std::string rr_type_name(RRType type);

/// Mnemonic text for a response code.
[[nodiscard]] std::string rcode_name(RCode rcode);

}  // namespace lookaside::dns
