// Allocation budget of a cold validated resolution.
//
// This executable replaces the global operator new with a counting one and
// resolves a fixed set of cold names (one resolve() each, every name new to
// the cache) on a small UniverseWorld with DLV look-aside on: the path the
// paper's Case-2 leak takes. Heap allocations are a property of the code,
// not of the host, so the ceiling below is exact on any machine and does
// not flake the way a wall-clock gate can on a loaded host.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "serve/scenario.h"

namespace {

// A plain counter: the resolver under test starts no threads.
std::uint64_t g_allocations = 0;

void* counted_alloc(std::size_t size) {
  ++g_allocations;
  if (size == 0) size = 1;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  ++g_allocations;
  const auto alignment = static_cast<std::size_t>(align);
  // aligned_alloc needs a size that is a multiple of the alignment.
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  if (void* p = std::aligned_alloc(alignment, rounded == 0 ? alignment : rounded)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

// Every replaceable form is defined, so none is left to a sanitizer
// runtime's own replacement (which would then clash with these).
void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return operator new(size, std::nothrow);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  try {
    return counted_aligned_alloc(size, align);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return operator new(size, align, std::nothrow);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace lookaside {
namespace {

// Names resolved before counting starts: they fill the root, TLD and DLV
// key material every later resolution reuses, as in a serving steady state.
constexpr std::uint64_t kWarmNames = 16;
constexpr std::uint64_t kCountedNames = 200;

// Ceiling on heap allocations per cold resolution: half the count measured
// before the allocation-lean exchange path (see CHANGES.md for both).
constexpr std::uint64_t kAllocationsPerResolutionCeiling = 435;

TEST(AllocBudgetTest, ColdValidatedResolutionStaysUnderCeiling) {
  serve::ScenarioOptions options;
  options.universe_size = 2'000;
  options.seed = 11;
  serve::ServeStack stack(options, nullptr, nullptr, nullptr, 0, "");
  const workload::Universe& universe = stack.world->universe();

  // Ranks with a stride coprime to the universe size visit distinct SLDs.
  auto name_at = [&](std::uint64_t i) {
    return universe.domain_at(1 + (i * 7919) % universe.size());
  };
  for (std::uint64_t i = 0; i < kWarmNames; ++i) {
    (void)stack.resolver->resolve({name_at(i), dns::RRType::kA});
  }
  std::vector<dns::Name> names;
  names.reserve(kCountedNames);
  for (std::uint64_t i = kWarmNames; i < kWarmNames + kCountedNames; ++i) {
    names.push_back(name_at(i));
  }

  const std::uint64_t dlv_before = stack.world->registry().total_queries();
  const std::uint64_t before = g_allocations;
  for (const dns::Name& name : names) {
    (void)stack.resolver->resolve({name, dns::RRType::kA});
  }
  const std::uint64_t allocations = g_allocations - before;
  const std::uint64_t per_resolution = allocations / kCountedNames;
  const std::uint64_t dlv_queries =
      stack.world->registry().total_queries() - dlv_before;
  std::printf("allocations per cold resolution: %llu (%llu over %llu, "
              "%llu DLV queries)\n",
              static_cast<unsigned long long>(per_resolution),
              static_cast<unsigned long long>(allocations),
              static_cast<unsigned long long>(kCountedNames),
              static_cast<unsigned long long>(dlv_queries));

  // The budget only means something if the names really took the
  // look-aside path: most of them must have reached the DLV registry.
  EXPECT_GE(dlv_queries, kCountedNames / 4);
  EXPECT_LE(per_resolution, kAllocationsPerResolutionCeiling);
}

}  // namespace
}  // namespace lookaside
