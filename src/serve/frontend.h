// The concurrent serving frontend: wire-format queries in, coalesced
// resolutions out.
//
// This is the piece that turns the single-stub resolver into a *shared*
// resolver — the deployment shape the paper's privacy argument is about
// (one campus/ISP recursive aggregating many users against the DLV
// registry). The frontend:
//
//   - decodes untrusted wire bytes with dns/codec (FORMERR on garbage);
//   - keeps an in-flight table keyed by (qname, qtype): a query that
//     arrives while an identical resolution is still outstanding joins it
//     as a waiter and receives the same answer at the same fan-out time,
//     without any upstream traffic (BIND's recursing-clients table /
//     Unbound's mesh, reduced to its privacy-relevant essence);
//   - applies admission control: when outstanding client queries reach
//     max_pending, new work is shed with SERVFAIL (paper §8.4's overload
//     behavior) and charged to the offending client;
//   - attributes Case-2 DLV leaks to the client whose query initiated the
//     resolution, by snapshotting the registry's counters around it.
//
// Concurrency under a synchronous resolver. RecursiveResolver::resolve()
// runs to completion on the shared virtual clock, so the frontend models
// overlap with *logical* time: each resolution's cost is the clock delta it
// consumed, and its fan-out instant is arrival + cost. A later arrival
// coalesces iff it lands before that instant. Arrivals are processed in
// (time, client, seq) order, which makes every output — answers, counters,
// per-client attribution — a pure function of the input schedule,
// independent of host, thread count, or --jobs sharding. The one
// approximation: cache TTLs run on the resolver's work clock, which
// excludes idle gaps between arrivals; at simulated TTLs (>= 1 h) versus
// schedule spans (<< 1 min of virtual time) the difference is unobservable.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "dns/codec.h"
#include "metrics/counters.h"
#include "resolver/resolver.h"
#include "sim/network.h"

namespace lookaside::dlv {
class DlvRegistry;
}
namespace lookaside::obs {
class MetricsRegistry;
class Tracer;
}

namespace lookaside::serve {

/// Frontend tuning knobs.
struct FrontendOptions {
  /// Outstanding client queries (initiators + coalesced waiters) admitted
  /// at once; the next arrival beyond this is shed with SERVFAIL.
  std::size_t max_pending = 128;

  /// Per-client validator-CPU budget: a token bucket refilled at this many
  /// µs of modeled validation CPU per second of virtual time. A client
  /// whose bucket is empty at arrival is shed with SERVFAIL before any
  /// upstream work — the graceful-degradation defense against
  /// proof-of-nonexistence CPU exhaustion (NSEC3 iteration floods). 0
  /// disables the budget.
  std::uint64_t cpu_budget_us_per_s = 0;

  /// Bucket capacity (burst allowance) for the CPU budget.
  std::uint64_t cpu_burst_us = 50'000;
};

/// One wire-format query arriving from a stub client at a virtual instant.
struct WireQuery {
  std::uint64_t time_us = 0;
  std::uint32_t client = 0;
  std::uint32_t seq = 0;  // per-client sequence (deterministic tie-break)
  dns::Bytes wire;
};

/// What the frontend did with one query: the response bytes plus the
/// bookkeeping the bench and tests read back.
struct Served {
  std::uint64_t arrival_us = 0;
  std::uint64_t completion_us = 0;  // when the response leaves the frontend
  std::uint32_t client = 0;
  bool has_question = false;
  dns::Name qname;
  dns::RRType qtype = dns::RRType::kA;
  dns::RCode rcode = dns::RCode::kNoError;
  bool coalesced = false;      // joined an in-flight resolution
  bool from_cache = false;     // initiator answered from the resolver cache
  bool overload_drop = false;  // shed by admission control (queue depth)
  bool cpu_drop = false;       // shed by the per-client CPU budget
  bool formerr = false;        // undecodable or question-less wire
  std::uint64_t case2_leaks = 0;  // Case-2 DLV queries this query caused
  std::size_t response_bytes = 0;
  dns::Bytes response_wire;

  [[nodiscard]] std::uint64_t latency_us() const {
    return completion_us - arrival_us;
  }
};

/// Per-client accounting (indexed by client id).
struct ClientAccount {
  std::uint64_t queries = 0;
  std::uint64_t answered = 0;
  std::uint64_t coalesce_hits = 0;
  std::uint64_t overload_drops = 0;
  std::uint64_t cpu_drops = 0;        // shed by the CPU budget
  std::uint64_t formerr = 0;
  std::uint64_t case2_leaks = 0;  // leaks attributed to this client
  std::uint64_t cpu_spent_us = 0;     // validation CPU billed to this client
};

/// The serving frontend: run()/submit() serve wire queries from many
/// clients.
class FrontendServer {
 public:
  FrontendServer(sim::Network& network, resolver::RecursiveResolver& resolver,
                 FrontendOptions options = {});

  /// Attaches the DLV registry whose counters attribute Case-2 leaks to
  /// initiating clients (nullable; null disables attribution).
  void set_registry(const dlv::DlvRegistry* registry) { registry_ = registry; }

  /// Mirrors the frontend's counters into a labeled registry as they
  /// happen: serve_coalesce{result=hit|miss}, serve_overload_drops,
  /// serve_formerr, and a serve_queue_depth histogram sampled per arrival
  /// (the queue-depth gauge). Nullable.
  void set_metrics(obs::MetricsRegistry* metrics) { metrics_ = metrics; }

  /// Tags every emitted metric with {shard=<label>} when non-empty, so a
  /// sharded run's merged registry keeps per-shard serving series apart
  /// (serve_coalesce{result=hit,shard=2}, ...). Empty (the default)
  /// preserves the single-resolver series names byte for byte.
  void set_shard_label(std::string label) { shard_label_ = std::move(label); }

  /// Attaches a structured tracer (nullable). The frontend then opens one
  /// span per client query (client_query .. client_response), pushes the
  /// trace context (query_id, client) so every downstream resolver / cache
  /// / registry event carries it, and emits coalesce_join lineage events
  /// when a query joins an in-flight resolution — N coalesced queries give
  /// the shared resolver span N recorded parents.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Deterministic, client-recoverable trace id for one wire query.
  [[nodiscard]] static std::uint64_t make_query_id(std::uint32_t client,
                                                   std::uint32_t seq) {
    return ((static_cast<std::uint64_t>(client) + 1) << 32) | seq;
  }

  /// Serves one query. Arrivals must be submitted in nondecreasing
  /// (time, client, seq) order — run() sorts for you.
  Served submit(const WireQuery& query);

  /// Sorts `arrivals` into the canonical order and serves them all.
  std::vector<Served> run(std::vector<WireQuery> arrivals);

  /// Counters: "serve.queries", "serve.answered", "serve.coalesce.hits",
  /// "serve.coalesce.misses", "serve.overload.drops", "serve.cpu.drops",
  /// "serve.formerr", "serve.bytes.query", "serve.bytes.response",
  /// "serve.case2.leaks".
  [[nodiscard]] const metrics::CounterSet& stats() const { return stats_; }

  [[nodiscard]] const std::vector<ClientAccount>& clients() const {
    return clients_;
  }

  /// High-water mark of outstanding client queries.
  [[nodiscard]] std::size_t max_queue_depth() const { return max_depth_; }

 private:
  /// One upstream resolution shared by every coalesced waiter.
  struct InFlight {
    std::uint64_t completion_us = 0;  // logical fan-out instant
    std::uint32_t waiters = 1;        // initiator included
    resolver::ResolveResult result;
  };
  struct Key {
    dns::Name name;
    dns::RRType type;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& key) const {
      return key.name.hash() ^
             (static_cast<std::size_t>(key.type) * 0x9e3779b97f4a7c15ULL);
    }
  };

  /// Retires every in-flight entry whose fan-out instant is <= now.
  void expire(std::uint64_t now_us);

  Served serve_decoded(const WireQuery& query, const dns::Message& message);
  Served make_formerr(const WireQuery& query);
  /// SERVFAIL shed shared by the queue-depth and CPU-budget admission paths.
  Served make_shed(const WireQuery& query, const dns::Message& message,
                   Served served);
  /// Refills `client`'s CPU bucket up to `now_us` and reports whether it
  /// still has tokens (always true when the budget is disabled).
  bool cpu_admit(std::uint32_t client, std::uint64_t now_us);
  /// Bills `cost_us` of validation CPU against `client`'s bucket.
  void cpu_charge(std::uint32_t client, std::uint64_t cost_us);
  void finish(Served& served, const dns::Message& request,
              const resolver::ResolveResult& result);
  ClientAccount& account(std::uint32_t client);
  void note_depth();

  sim::Network* network_;
  resolver::RecursiveResolver* resolver_;
  FrontendOptions options_;
  std::string shard_label_;
  const dlv::DlvRegistry* registry_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  /// Token bucket for one client's validation-CPU budget. Charges are
  /// post-paid and may drive the balance negative (debt): the client is
  /// then shed until the refill repays it, so one expensive proof denies
  /// the *next* queries, never retroactively the one that incurred it.
  struct CpuBucket {
    std::int64_t tokens_us = 0;
    std::uint64_t last_refill_us = 0;
    bool initialized = false;
  };

  std::unordered_map<Key, InFlight, KeyHash> inflight_;
  std::vector<CpuBucket> cpu_buckets_;
  std::size_t depth_ = 0;      // outstanding client queries across entries
  std::size_t max_depth_ = 0;
  metrics::CounterSet stats_;
  std::vector<ClientAccount> clients_;
  std::uint64_t last_arrival_us_ = 0;
};

}  // namespace lookaside::serve
