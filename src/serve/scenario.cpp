#include "serve/scenario.h"

#include <algorithm>
#include <limits>

#include "crypto/rng.h"
#include "obs/tracer.h"
#include "resolver/shared_store.h"

namespace lookaside::serve {

namespace {

/// Deterministic quantile over sorted virtual latencies (nearest-rank;
/// integer inputs, so no float-order sensitivity).
double quantile_ms(const std::vector<std::uint64_t>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto index = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1));
  return static_cast<double>(sorted[index]) / 1000.0;
}

}  // namespace

std::vector<WireQuery> encode_schedule(
    const std::vector<workload::ClientQuery>& schedule) {
  std::vector<WireQuery> wire;
  wire.reserve(schedule.size());
  for (const workload::ClientQuery& query : schedule) {
    // Deterministic per-query id: the stub side of the determinism contract.
    const auto id = static_cast<std::uint16_t>(
        (query.client << 10) ^ query.seq ^ 0x5117);
    wire.push_back({query.time_us, query.client, query.seq,
                    dns::encode_message(dns::Message::make_query(
                        id, query.name, query.type,
                        /*recursion_desired=*/true, /*dnssec_ok=*/true))});
  }
  return wire;
}

// -- ServeStack ---------------------------------------------------------------

ServeStack::ServeStack(const ScenarioOptions& options, obs::Tracer* tracer,
                       obs::MetricsRegistry* metrics,
                       resolver::SharedProofStore* shared_store,
                       std::uint32_t shard_id, const std::string& shard_label)
    : network(clock) {
  workload::WorldOptions world_options;
  world_options.universe.size = options.universe_size;
  world_options.universe.seed = options.seed;
  world_options.seed = crypto::derive_seed(options.seed, 0x0F0F);
  world_options.dlv = options.dlv;
  // Deposits beyond the sampled head never get queried; capping the scan
  // keeps small scenario builds fast without changing any observable.
  world_options.deposit_scan_limit = options.universe_size;

  world = std::make_unique<workload::UniverseWorld>(world_options);
  world->registry().attach_clock(clock);
  world->registry().set_store_observations(false);
  analyzer = std::make_unique<core::LeakageAnalyzer>(world->registry());

  resolver = std::make_unique<resolver::RecursiveResolver>(
      network, world->directory(), options.resolver_config);
  resolver->set_root_trust_anchor(world->root_trust_anchor());
  resolver->set_dlv_trust_anchor(world->registry().trust_anchor());
  if (shared_store != nullptr) {
    resolver->attach_shared(shared_store, shard_id);
  }

  frontend = std::make_unique<FrontendServer>(network, *resolver,
                                              options.frontend);
  frontend->set_registry(&world->registry());
  frontend->set_metrics(metrics);
  frontend->set_shard_label(shard_label);

  if (tracer != nullptr) {
    tracer->attach_clock(clock);
    tracer->attach_network(network);
    world->set_tracer(tracer);
    resolver->set_tracer(tracer);
    frontend->set_tracer(tracer);
  }
}

ServeStack::~ServeStack() = default;

std::uint64_t ServeStack::case2() const {
  return world->registry().total_queries() -
         world->registry().queries_with_record();
}

void ServeStack::fill_registry_side(ScenarioSummary& summary) const {
  const core::LeakageReport& report = analyzer->report();
  summary.case2_total = report.case2_queries;
  summary.distinct_leaked = report.distinct_leaked_domains;
  summary.leaked_domains = analyzer->leaked_domains();
}

// -- Summaries ----------------------------------------------------------------

void summarize_served(std::span<const std::vector<Served>> runs,
                      std::uint32_t attack_start, ScenarioSummary& summary) {
  std::vector<std::uint64_t> latencies;
  std::vector<std::uint64_t> benign_latencies;
  std::uint64_t first_arrival = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t last_completion = 0;
  summary.served = 0;
  for (const std::vector<Served>& run : runs) {
    summary.served += run.size();
    for (const Served& one : run) {
      if (one.overload_drop || one.cpu_drop || one.formerr) continue;
      latencies.push_back(one.latency_us());
      if (one.client < attack_start) {
        benign_latencies.push_back(one.latency_us());
      }
      first_arrival = std::min(first_arrival, one.arrival_us);
      last_completion = std::max(last_completion, one.completion_us);
    }
  }
  std::sort(latencies.begin(), latencies.end());
  std::sort(benign_latencies.begin(), benign_latencies.end());
  summary.p50_ms = quantile_ms(latencies, 0.50);
  summary.p99_ms = quantile_ms(latencies, 0.99);
  summary.benign_p99_ms = quantile_ms(benign_latencies, 0.99);
  const std::uint64_t makespan_us =
      latencies.empty() ? 0 : last_completion - first_arrival;
  summary.qps = makespan_us == 0
                    ? 0.0
                    : static_cast<double>(summary.served) /
                          (static_cast<double>(makespan_us) / 1e6);
}

// -- Sequential reference -----------------------------------------------------

ScenarioSummary run_sequential_reference(const ScenarioOptions& options) {
  ServeStack stack(options, /*tracer=*/nullptr, /*metrics=*/nullptr,
                   /*shared_store=*/nullptr, /*shard_id=*/0,
                   /*shard_label=*/{});
  const workload::ClientMix mix(options.mix);
  const std::vector<workload::ClientQuery> schedule =
      mix.generate(stack.world->universe());

  ScenarioSummary summary;
  summary.case2_per_client.assign(options.mix.clients, 0);
  std::vector<Served> served(schedule.size());
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const workload::ClientQuery& query = schedule[i];
    const std::uint64_t before = stack.case2();
    const std::uint64_t start_us = stack.clock.now_us();
    (void)stack.resolver->resolve({query.name, query.type});
    served[i].client = query.client;
    served[i].arrival_us = query.time_us;
    served[i].completion_us = query.time_us + stack.clock.now_us() - start_us;
    if (query.client < summary.case2_per_client.size()) {
      summary.case2_per_client[query.client] += stack.case2() - before;
    }
  }
  summarize_served({&served, 1}, mix.first_attacker(), summary);
  stack.fill_registry_side(summary);
  return summary;
}

}  // namespace lookaside::serve
