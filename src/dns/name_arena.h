// Name interning arena (DESIGN.md §4k): one canonical lowercase byte string
// per distinct name, addressed by a stable 32-bit id.
//
// The resolver cache, the shared proof store, and the signed zone's
// signature table all hold names that repeat heavily — an NSEC chain stores
// every owner a second time as its predecessor's "next" pointer, and a
// signature cache keys thousands of RRsets under a few hot owners. Interning
// collapses each distinct name to a single canonical Name plus a NameId
// where it is referenced, so the duplicate copies become pointer-width and
// compares against an interned name reuse the memoized canonical hash.
//
// Id contract: ids are dense indices, assigned in intern order, and remain
// valid until clear() — the arena never evicts or reorders (interned names
// for cache entries outlive the entries; the arena's footprint is bounded
// by the distinct-name working set, which the byte-capped caches already
// bound). bytes() reports the arena's true footprint for the
// truth-in-advertising accounting tests.
#pragma once

#include <cstdint>
#include <deque>

#include "dns/name.h"
#include "dns/name_map.h"

namespace lookaside::dns {

/// A 32-bit handle into a NameArena.
using NameId = std::uint32_t;
inline constexpr NameId kInvalidNameId = 0xFFFFFFFFu;

/// Interning arena. Single-owner: every holder (a resolver cache, the
/// shared proof store, a signed zone) is driven from one thread at a time,
/// so the arena carries no lock.
class NameArena {
 public:
  /// Id for `name`, interning it on first sight. Idempotent: the same
  /// canonical name always returns the same id.
  NameId intern(const Name& name);

  /// The canonical Name behind `id`. The reference is stable until clear().
  [[nodiscard]] const Name& name(NameId id) const { return names_[id]; }

  /// Id for `name` if already interned, else kInvalidNameId. Never inserts.
  [[nodiscard]] NameId find(const Name& name) const;

  /// Distinct names interned.
  [[nodiscard]] std::size_t size() const { return names_.size(); }

  /// Approximate true footprint in bytes: canonical Name objects (including
  /// heap text and label offsets) plus the id index. This is the number the
  /// malloc-shim accounting test compares against.
  [[nodiscard]] std::uint64_t bytes() const;

  /// Drops every interned name. All outstanding ids become invalid.
  void clear();

 private:
  std::deque<Name> names_;      // id -> canonical name; never reordered
  NameHashMap<NameId> index_;   // canonical name -> id
  std::uint64_t heap_bytes_ = 0;
};

}  // namespace lookaside::dns
