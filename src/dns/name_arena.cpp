#include "dns/name_arena.h"

#include <stdexcept>

namespace lookaside::dns {

namespace {

// Heap bytes one canonical Name pins beyond its own object: text storage
// past the SSO buffer.
std::uint64_t name_heap_bytes(const Name& name) {
  const std::string& text = name.internal_text();
  return text.capacity() > sizeof(std::string) ? text.capacity() : 0;
}

}  // namespace

NameId NameArena::intern(const Name& name) {
  if (names_.size() >= kInvalidNameId) {
    throw std::length_error("NameArena: id space exhausted");
  }
  NameId& slot = index_.get_or_insert(name);
  // get_or_insert value-initializes absent slots; id 0 is a real id, so an
  // absent slot is detected by comparing against the current size instead
  // of a sentinel: a fresh slot can only hold a stale zero.
  if (slot < names_.size() && names_[slot] == name) return slot;
  slot = static_cast<NameId>(names_.size());
  names_.push_back(name);
  heap_bytes_ += name_heap_bytes(names_.back());
  return slot;
}

NameId NameArena::find(const Name& name) const {
  const NameId* slot = index_.find(name);
  return slot == nullptr ? kInvalidNameId : *slot;
}

std::uint64_t NameArena::bytes() const {
  return static_cast<std::uint64_t>(names_.size()) * sizeof(Name) +
         heap_bytes_ +
         static_cast<std::uint64_t>(index_.slot_count()) *
             (sizeof(Name) + sizeof(NameId) + 1);
}

void NameArena::clear() {
  names_.clear();
  index_.clear();
  heap_bytes_ = 0;
}

}  // namespace lookaside::dns
