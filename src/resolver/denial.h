// Unified denial-of-existence lookup API (DESIGN.md §4j).
//
// Every denial proof the resolver holds — RFC 2308 exact negatives,
// validated NSEC spans (RFC 8198 / RFC 5074 §5) in the private cache and in
// the cross-shard SharedProofStore, and NSEC3 closest-encloser evidence —
// answers through one call, ResolverCache::find_denial (cache.h). Its one
// ProofResult carries everything the caller's policy, accounting and
// leak-cause attribution need (what is denied, where the proof came from,
// until when it holds, and how many NSEC3 hash ops it cost). The span
// rules themselves live in one classifier, classify_nsec_span (cache.h),
// shared by the private chain and the store.
//
// Callers express *policy* with the sources bitmask instead of choosing an
// entry point: a paper-era resolver with aggressive_negative_caching off
// passes kNegative only; the production profile passes kAll and also gets
// RFC 8198 synthesis from cached NSEC3 closest-encloser evidence.
#pragma once

#include <cstdint>

#include "dns/name.h"
#include "dns/record.h"

namespace lookaside::resolver {

/// What a denial proof denies.
enum class DenialKind : std::uint8_t {
  kNone,      // no proof speaks to (qname, qtype)
  kNxDomain,  // the name does not exist
  kNoData,    // the name exists but the type is absent
};

/// Where the proof came from — the leak ledger and the synthesis study key
/// their attribution off this.
enum class ProofOrigin : std::uint8_t {
  kNone,         // no proof (coverage == kNone)
  kLocal,        // exact RFC 2308 negative-cache entry in this shard
  kShared,       // a sibling shard's span via the SharedProofStore
  kSynthesized,  // synthesized from a validated span or NSEC3 evidence
                 // (RFC 8198): no exact entry for qname existed
};

/// Result of one unified denial lookup.
struct ProofResult {
  DenialKind coverage = DenialKind::kNone;
  ProofOrigin origin = ProofOrigin::kNone;
  /// Deadline until which the proof keeps suppressing queries; leak-cause
  /// attribution ("ttl-expiry" vs "eviction") needs it on every hit.
  std::uint64_t expires_us = 0;
  /// NSEC3 hash invocations this lookup spent (0 for NSEC/negative paths).
  /// Charged even when coverage == kNone: a gated synthesis probe that
  /// misses still burned the CPU.
  std::uint64_t hash_ops = 0;

  [[nodiscard]] explicit operator bool() const {
    return coverage != DenialKind::kNone;
  }
};

/// Bitmask selecting which proof classes a lookup may consult.
struct DenialSources {
  enum : unsigned {
    kNegative = 1u << 0,  // exact RFC 2308 negative entries
    kSpans = 1u << 1,     // validated NSEC spans, private + shared
    kNsec3 = 1u << 2,     // NSEC3 closest-encloser evidence (hash-gated)
    kAll = kNegative | kSpans | kNsec3,
  };
};

}  // namespace lookaside::resolver
