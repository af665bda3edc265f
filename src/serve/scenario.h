// Building blocks of one serving run: ScenarioOptions, the ScenarioSummary
// every run reports, ServeStack (clock, network, UniverseWorld, validating
// resolver, LeakageAnalyzer and FrontendServer) and the summarizer that turns
// Served records into latency and QPS figures. ShardedServeScenario
// (serve/sharded.h) owns one ServeStack per shard and is the only serving
// runner; a single shared resolver is its shards = 1 case.
//
// The sequential reference model, run_sequential_reference, is the falsifier
// for coalescing and sharding: it replays the exact same arrival-ordered
// schedule through a fresh identical world with one resolve() per query and
// no in-flight sharing. Coalescing must not change *what leaks* — a
// coalesced duplicate would have been a resolver cache hit in the sequential
// world, and neither path reaches the DLV registry — so the Case-2 totals
// and the leaked-domain sets of the two runs must be identical.
// bench_serve_throughput exits nonzero when they are not.
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "core/leakage.h"
#include "dlv/registry.h"
#include "resolver/config.h"
#include "serve/frontend.h"
#include "workload/client_mix.h"
#include "workload/universe_world.h"

namespace lookaside::obs {
class Tracer;
class MetricsRegistry;
}
namespace lookaside::resolver {
class SharedProofStore;
}

namespace lookaside::serve {

/// Everything that defines one serving run.
struct ScenarioOptions {
  std::uint64_t universe_size = 100'000;
  std::uint64_t seed = 7;
  workload::ClientMixOptions mix;
  FrontendOptions frontend;
  /// DLV registry options (NSEC3 mode, salt, iteration count) passed
  /// through to the UniverseWorld's registry.
  dlv::DlvRegistry::Options dlv;
  resolver::ResolverConfig resolver_config =
      resolver::ResolverConfig::bind_yum();
};

/// Aggregates one serving run (a shard, a merged sharded run, or the
/// sequential reference).
struct ScenarioSummary {
  std::uint64_t served = 0;
  std::uint64_t coalesce_hits = 0;
  std::uint64_t coalesce_misses = 0;
  std::uint64_t overload_drops = 0;
  std::uint64_t cpu_drops = 0;          // shed by the per-client CPU budget
  std::uint64_t max_queue_depth = 0;
  std::uint64_t validation_cpu_us = 0;  // modeled validator CPU billed
  double qps = 0.0;      // served / virtual makespan
  double p50_ms = 0.0;   // client-observed virtual latency
  double p99_ms = 0.0;
  double benign_p99_ms = 0.0;  // p99 over non-attacker clients' answers
  std::uint64_t case2_total = 0;            // registry-side Case-2 queries
  std::uint64_t distinct_leaked = 0;
  std::set<std::string> leaked_domains;     // identity check vs reference
  std::vector<std::uint64_t> case2_per_client;

  [[nodiscard]] double coalesce_rate() const {
    const std::uint64_t resolved = coalesce_hits + coalesce_misses;
    return resolved == 0 ? 0.0
                         : static_cast<double>(coalesce_hits) /
                               static_cast<double>(resolved);
  }
};

/// Encodes an arrival schedule to wire queries with the deterministic
/// per-query id contract ((client << 10) ^ seq ^ 0x5117).
[[nodiscard]] std::vector<WireQuery> encode_schedule(
    const std::vector<workload::ClientQuery>& schedule);

/// One full serving stack: private clock, network, world, analyzer,
/// resolver and frontend. The sharded runner owns one per shard
/// (shared-nothing except the optional SharedProofStore attached to the
/// resolver cache); the sequential reference builds one of its own.
struct ServeStack {
  /// `shard_id`/`shard_label` feed the shared store's sibling accounting
  /// and the frontend's per-shard metric labels; `shared_store` (nullable)
  /// attaches the cross-shard proof store to this stack's resolver cache.
  ServeStack(const ScenarioOptions& options, obs::Tracer* tracer,
             obs::MetricsRegistry* metrics,
             resolver::SharedProofStore* shared_store,
             std::uint32_t shard_id, const std::string& shard_label);
  ~ServeStack();

  ServeStack(const ServeStack&) = delete;
  ServeStack& operator=(const ServeStack&) = delete;

  /// Registry-side Case-2 count so far (total minus deposited).
  [[nodiscard]] std::uint64_t case2() const;
  /// Copies the registry-side leak fields into `summary`.
  void fill_registry_side(ScenarioSummary& summary) const;

  sim::SimClock clock;
  sim::Network network;
  std::unique_ptr<workload::UniverseWorld> world;
  std::unique_ptr<core::LeakageAnalyzer> analyzer;
  std::unique_ptr<resolver::RecursiveResolver> resolver;
  std::unique_ptr<FrontendServer> frontend;
};

/// Fills the latency side of `summary` from the Served records of one or
/// more runs: `served` (every record), p50/p99 over answered queries,
/// benign p99 over clients below `attack_start`, and QPS over the virtual
/// makespan from the first answered arrival to the last completion. Shed
/// queries (SERVFAIL at arrival, zero latency) are excluded from the
/// latency sample — they would otherwise make an overloaded run look fast.
/// Percentiles are nearest-rank over integer latencies, so the result does
/// not depend on how the records are split across runs.
void summarize_served(std::span<const std::vector<Served>> runs,
                      std::uint32_t attack_start, ScenarioSummary& summary);

/// Serves the schedule `options` generates with one resolve() per query,
/// in arrival order and without coalescing, on a freshly built ServeStack.
/// Every query counts as answered at arrival + its resolution cost.
[[nodiscard]] ScenarioSummary run_sequential_reference(
    const ScenarioOptions& options);

}  // namespace lookaside::serve
