// Test probes over the unified find_denial API (DESIGN.md §4j) that answer
// in the per-class enums, so cache suites can assert denial *semantics*
// (NXDOMAIN vs NODATA, covered vs type-absent) in one line per probe.
#pragma once

#include "resolver/cache.h"

namespace lookaside::resolver {

/// Exact negative-cache lookup (sources = kNegative).
inline NegativeEntry find_negative(ResolverCache& cache, const dns::Name& name,
                                   dns::RRType type) {
  const ProofResult proof =
      cache.find_denial(name, name, type, DenialSources::kNegative);
  if (!proof) return NegativeEntry::kNone;
  return proof.coverage == DenialKind::kNxDomain ? NegativeEntry::kNxDomain
                                                 : NegativeEntry::kNoData;
}

/// NSEC span lookup, private chain then shared store (sources = kSpans).
inline NsecCoverage nsec_check(ResolverCache& cache, const dns::Name& apex,
                               const dns::Name& qname, dns::RRType qtype) {
  const ProofResult proof =
      cache.find_denial(apex, qname, qtype, DenialSources::kSpans);
  if (!proof) return NsecCoverage::kNoProof;
  return proof.coverage == DenialKind::kNxDomain ? NsecCoverage::kNameCovered
                                                 : NsecCoverage::kTypeAbsent;
}

}  // namespace lookaside::resolver
