// The serving runner (DESIGN.md §4i): N thread-per-resolver shards behind
// one consistent-hash router, following PowerDNS recursor's
// thread-per-resolver model. A single shared resolver is the shards = 1
// case; the sequential reference it is checked against is
// run_sequential_reference (serve/scenario.h).
//
// Each shard is a complete, shared-nothing ServeStack — its own virtual
// clock, network, signed world, validating resolver, bounded private cache
// and coalescing frontend — so shards never contend on the serving hot
// path. Clients (default) or qnames are routed to shards via a consistent
// hash ring, so adding a shard moves ~1/N of the keys instead of reshuffling
// everything.
//
// Two execution modes:
//
//   Shard-private (shared_store = false). Shards run genuinely in parallel,
//   one worker thread per shard (engine::for_each_shard); nothing is shared,
//   so the run is deterministic *and* wall-clock scalable — this is the mode
//   the QPS scaling study measures. The privacy cost: shards independently
//   re-prove (and re-leak to the DLV registry) denial spans their siblings
//   already proved, so merged Case-2 exceeds the single-resolver count.
//
//   Shared proof store (shared_store = true). Shards attach one
//   SharedProofStore: validated NSEC spans and zone cuts are written
//   through, so a shard skips the registry round trip for any span a
//   sibling already proved. Whether shard B sees shard A's proof depends on
//   execution order, so this mode dispatches arrivals in global
//   (time, client, seq) order on one thread — the deterministic schedule a
//   conservative parallel discrete-event simulation would also produce.
//   Proofs then become visible in exactly arrival order, which restores the
//   single-resolver Case-2 profile: the merged leak output is invariant
//   across shard counts (byte-identical canonical merge), and equals the
//   sequential reference. Because that one thread is the store's only
//   caller, the store is a plain single-owner structure with no locks.
//
// The merged summary is assembled in canonical shard-index order (the
// engine idiom from DESIGN.md §4d), so all virtual-time outputs are
// byte-identical for any worker-thread count. Per-shard and merged latency
// figures come from the one summarizer, summarize_served, so with one shard
// the merged summary equals that shard's.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "resolver/shared_store.h"
#include "serve/scenario.h"

namespace lookaside::serve {

/// What the router hashes to pick a shard.
enum class ShardRoute {
  kClient,  // per-client affinity (PowerDNS pdns-distributes-queries style)
  kQname,   // per-name affinity (maximizes cross-client cache sharing)
};

[[nodiscard]] const char* route_name(ShardRoute route);
[[nodiscard]] std::optional<ShardRoute> parse_route(std::string_view text);

/// Consistent-hash router: `virtual_nodes` ring points per shard, keyed by
/// SplitMix64-derived hashes, lookup = first ring point clockwise of the
/// key's hash. Deterministic across platforms and runs.
class ShardRouter {
 public:
  ShardRouter(std::uint32_t shards, ShardRoute route,
              std::uint32_t virtual_nodes = 64);

  [[nodiscard]] std::uint32_t shards() const { return shards_; }
  [[nodiscard]] ShardRoute route() const { return route_; }

  [[nodiscard]] std::uint32_t shard_for(
      const workload::ClientQuery& query) const;
  [[nodiscard]] std::uint32_t shard_for_client(std::uint32_t client) const;
  [[nodiscard]] std::uint32_t shard_for_name(const dns::Name& name) const;

 private:
  [[nodiscard]] std::uint32_t lookup(std::uint64_t point) const;

  std::uint32_t shards_;
  ShardRoute route_;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> ring_;  // sorted
};

/// Options for one sharded serving run.
struct ShardedOptions {
  /// Per-shard stack shape (universe, mix, frontend, resolver config). The
  /// mix describes the *whole* client population; the router partitions it.
  ScenarioOptions base;
  std::uint32_t shards = 1;
  ShardRoute route = ShardRoute::kClient;
  /// Attach one SharedProofStore across all shards (and switch to the
  /// deterministic single-thread global-order dispatch described above).
  bool shared_store = false;
  /// Worker threads for shard-private parallel serving; 0 = one per shard.
  unsigned jobs = 0;
  /// Optional per-shard observability (empty, or exactly `shards` entries,
  /// any of which may be null). Worker threads must never share a sink.
  std::vector<obs::Tracer*> shard_tracers;
  std::vector<obs::MetricsRegistry*> shard_metrics;
};

/// Per-shard view of one run.
struct ShardReport {
  ScenarioSummary summary;             // registry side = this shard's world
  std::uint32_t shard = 0;
  std::uint32_t clients_routed = 0;    // distinct clients this shard served
  std::uint64_t queries_routed = 0;
};

/// Merged + per-shard results of one sharded run.
struct ShardedSummary {
  /// Canonical merge: sums for counts, union for leaked domains,
  /// percentiles over the pooled latency sample, QPS over the global
  /// virtual makespan, max of per-shard queue depths.
  ScenarioSummary merged;
  std::vector<ShardReport> shards;
  double serve_wall_ms = 0.0;  // host time for the whole serving phase
  resolver::SharedProofStore::Stats store;  // zeros in private mode
  /// Structural acceptance: per-shard routed and served counts each sum to
  /// the schedule size, and per-client attribution sums to merged Case-2.
  bool sums_consistent = true;
};

/// Owns N ServeStacks and runs one serving experiment (single-shot: build,
/// run, read).
class ShardedServeScenario {
 public:
  explicit ShardedServeScenario(ShardedOptions options);
  ~ShardedServeScenario();

  [[nodiscard]] ShardedSummary run();

  [[nodiscard]] const ShardRouter& router() const { return router_; }
  [[nodiscard]] std::uint32_t shard_count() const {
    return static_cast<std::uint32_t>(stacks_.size());
  }
  [[nodiscard]] ServeStack& stack(std::uint32_t shard) {
    return *stacks_[shard];
  }
  /// Null in shard-private mode.
  [[nodiscard]] resolver::SharedProofStore* shared_store() {
    return store_.get();
  }

 private:
  ShardedOptions options_;
  ShardRouter router_;
  std::unique_ptr<resolver::SharedProofStore> store_;
  std::vector<std::unique_ptr<ServeStack>> stacks_;
  bool used_ = false;
};

}  // namespace lookaside::serve
