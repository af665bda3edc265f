// Multi-core sharded serving throughput (DESIGN.md §4i), with the
// sequential reference model as a built-in falsifier.
//
// Every cell of the clients grid is served three ways:
//
//   shared    N shards attached to one SharedProofStore, arrivals
//             dispatched in global order on one thread — the
//             privacy-preserving sharded deployment. That thread is the
//             store's only caller, so the store takes no locks. Its merged
//             Case-2 set must equal the sequential reference *exactly*, for
//             any --shards value, or the bench exits nonzero.
//   private   N shard-private stacks served genuinely in parallel (one
//             worker per shard) — the fast but re-leaking deployment. Its
//             merged Case-2 must be >= the reference; when it re-leaks,
//             the shared store must strictly reduce it.
//   reference one resolve() per query on a single fresh stack.
//
// All figures in BENCH_serve.json are virtual-time quantities, so the file
// is byte-identical for any --jobs value (worker threads for the private
// mode; 0 = one per shard). It is *not* invariant across --shards — cache
// locality legitimately shifts latency — which is what --merged-out is
// for: a canonical leak file carrying only shard-count-invariant fields
// (shared-mode Case-2 totals, leaked-set digest, causes, reference), so CI
// can `cmp` the files from --shards=1 and --shards=4.
//
// Host-time measurements (wall-clock scaling of the private mode) never
// touch stdout or BENCH_serve.json; they go to --host-out, and
// --expect-scaling=P enforces mean speedup >= (P/100)*min(shards, cores).
//
// Flags: --shards=N, --route=client|qname, --jobs N, --smoke, --out=PATH,
// --merged-out=PATH, --host-out=PATH, --expect-scaling=P.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "metrics/table.h"
#include "obs/leak_ledger.h"
#include "serve/sharded.h"

namespace {

using namespace lookaside;

std::string fixed(double value, int digits) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.*f", digits, value);
  return buffer;
}

/// FNV-1a over the sorted leaked-domain set: a compact, shard-count-stable
/// identity for the merged leak file.
std::string leaked_digest(const std::set<std::string>& domains) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const std::string& domain : domains) {
    for (const char c : domain) {
      hash ^= static_cast<unsigned char>(c);
      hash *= 0x100000001b3ULL;
    }
    hash ^= '\n';
    hash *= 0x100000001b3ULL;
  }
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(hash));
  return buffer;
}

serve::ScenarioOptions cell_options(std::uint32_t clients, bool smoke,
                                    std::size_t index) {
  serve::ScenarioOptions options;
  options.universe_size = smoke ? 2'000 : 10'000;
  options.seed = 7 + index;  // pure function of the cell index
  options.mix.clients = clients;
  options.mix.queries_per_client = smoke ? 20 : 64;
  options.mix.seed = 23 + index;
  options.mix.zipf_support = smoke ? 300 : 1'000;
  // Drop-free sizing (Little's law): one uncached resolution occupies the
  // frontend for ~200 virtual ms, so the aggregate gap is held at 25 ms
  // per client and the expected in-flight depth stays near 8 — far below
  // the admission limit of 128. Shedding would void the identity check.
  options.mix.mean_gap_us = 25'000ULL * clients;
  return options;
}

/// One serving mode's sharded run plus its per-shard observability.
struct ModeRun {
  serve::ShardedSummary summary;
  std::vector<std::unique_ptr<bench::ShardObs>> obs;  // one per shard
};

ModeRun run_mode(const serve::ScenarioOptions& base, std::uint32_t shards,
                 serve::ShardRoute route, bool shared, unsigned jobs,
                 bench::ObsSession& session, bool primary) {
  ModeRun run;
  serve::ShardedOptions options;
  options.base = base;
  options.shards = shards;
  options.route = route;
  options.shared_store = shared;
  options.jobs = jobs;
  for (std::uint32_t s = 0; s < shards; ++s) {
    run.obs.push_back(std::make_unique<bench::ShardObs>(
        session, /*primary=*/primary && s == 0));
    options.shard_tracers.push_back(run.obs.back()->tracer());
    options.shard_metrics.push_back(run.obs.back()->metrics());
  }
  serve::ShardedServeScenario scenario(std::move(options));
  run.summary = scenario.run();
  return run;
}

/// Per-shard trace acceptance: ledger == that shard's registry Case-2 and
/// every record has a complete frontend -> resolver -> DLV span chain.
/// Shard ledgers are additionally folded into `cell_ledger` for the
/// per-cause breakdown.
bool check_shards(const ModeRun& run, const char* mode, std::uint32_t clients,
                  obs::LeakLedger* cell_ledger) {
  bool ok = true;
  for (std::size_t s = 0; s < run.summary.shards.size(); ++s) {
    const serve::ShardReport& report = run.summary.shards[s];
    const obs::LeakLedger* ledger =
        const_cast<bench::ShardObs&>(*run.obs[s]).ledger();
    if (ledger == nullptr) continue;
    if (ledger->case2_total() != report.summary.case2_total) {
      std::cout << "[serve] FAIL: clients=" << clients << " mode=" << mode
                << " shard=" << s << " ledger saw " << ledger->case2_total()
                << " Case-2 records, registry saw "
                << report.summary.case2_total << "\n";
      ok = false;
    }
    const obs::SpanTimeline* timeline = run.obs[s]->timeline();
    const std::size_t broken =
        timeline == nullptr
            ? ledger->records().size()
            : obs::broken_leak_chains(*timeline, ledger->records());
    if (broken != 0) {
      std::cout << "[serve] FAIL: clients=" << clients << " mode=" << mode
                << " shard=" << s << " " << broken
                << " ledger records lack a complete query->resolver->DLV "
                   "chain\n";
      ok = false;
    }
    if (cell_ledger != nullptr) cell_ledger->merge_from(*ledger);
  }
  return ok;
}

std::string causes_json(const obs::LeakLedger& ledger) {
  std::string out = "{";
  bool first = true;
  for (const auto& [cause, count] : ledger.cause_totals()) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + cause + "\": " + std::to_string(count);
  }
  return out + "}";
}

/// Everything one cell contributes to the three output files.
struct CellOutcome {
  std::uint32_t clients = 0;
  std::uint64_t queries = 0;
  ModeRun shared;
  ModeRun priv;
  serve::ScenarioSummary reference;
  std::string causes;  // shared-mode per-cause Case-2 breakdown
  bool leak_identity = false;   // shared merged == reference, exactly
  bool reduction_ok = false;    // shared < private whenever private re-leaks
  bool ledger_ok = false;
  // Host-mode wall times (absent from stdout/BENCH_serve.json).
  double serial_wall_ms = 0.0;
  double parallel_wall_ms = 0.0;
};

std::string cell_json(const CellOutcome& cell) {
  const serve::ScenarioSummary& shared = cell.shared.summary.merged;
  const serve::ScenarioSummary& priv = cell.priv.summary.merged;
  const resolver::SharedProofStore::Stats& store = cell.shared.summary.store;
  std::string out = "    {\"clients\": " + std::to_string(cell.clients) +
                    ", \"queries\": " + std::to_string(cell.queries) +
                    ",\n     \"qps\": " + fixed(shared.qps, 2) +
                    ", \"p50_ms\": " + fixed(shared.p50_ms, 3) +
                    ", \"p99_ms\": " + fixed(shared.p99_ms, 3) +
                    ",\n     \"coalesce_rate\": " +
                    fixed(shared.coalesce_rate(), 4) +
                    ", \"coalesce_hits\": " +
                    std::to_string(shared.coalesce_hits) +
                    ", \"overload_drops\": " +
                    std::to_string(shared.overload_drops) +
                    ", \"max_queue_depth\": " +
                    std::to_string(shared.max_queue_depth) +
                    ",\n     \"case2_total\": " +
                    std::to_string(shared.case2_total) +
                    ", \"distinct_leaked\": " +
                    std::to_string(shared.distinct_leaked) +
                    ",\n     \"case2_per_client\": [";
  for (std::size_t i = 0; i < shared.case2_per_client.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(shared.case2_per_client[i]);
  }
  out += "],\n     \"reference\": {\"case2_total\": " +
         std::to_string(cell.reference.case2_total) +
         ", \"distinct_leaked\": " +
         std::to_string(cell.reference.distinct_leaked) +
         "},\n     \"private\": {\"case2_total\": " +
         std::to_string(priv.case2_total) + ", \"distinct_leaked\": " +
         std::to_string(priv.distinct_leaked) + ", \"reexposure\": " +
         std::to_string(priv.case2_total - cell.reference.case2_total) +
         "},\n     \"store\": {\"nsec_hits\": " +
         std::to_string(store.nsec_hits) + ", \"nsec_sibling_hits\": " +
         std::to_string(store.nsec_sibling_hits) + ", \"cut_hits\": " +
         std::to_string(store.cut_hits) + ", \"cut_sibling_hits\": " +
         std::to_string(store.cut_sibling_hits) + "},\n     \"per_shard\": [";
  for (std::size_t s = 0; s < cell.shared.summary.shards.size(); ++s) {
    const serve::ShardReport& sh = cell.shared.summary.shards[s];
    const serve::ShardReport& pv = cell.priv.summary.shards[s];
    if (s > 0) out += ", ";
    out += "{\"shard\": " + std::to_string(sh.shard) +
           ", \"clients\": " + std::to_string(sh.clients_routed) +
           ", \"queries\": " + std::to_string(sh.queries_routed) +
           ", \"qps\": " + fixed(sh.summary.qps, 2) +
           ", \"p99_ms\": " + fixed(sh.summary.p99_ms, 3) +
           ", \"case2_shared\": " + std::to_string(sh.summary.case2_total) +
           ", \"case2_private\": " + std::to_string(pv.summary.case2_total) +
           "}";
  }
  out += "],\n     \"ledger\": {\"causes\": " + cell.causes +
         ", \"chains_ok\": " + (cell.ledger_ok ? "true" : "false") +
         "},\n     \"leak_identity\": " +
         (cell.leak_identity ? "true" : "false") +
         ", \"reduction_ok\": " + (cell.reduction_ok ? "true" : "false") +
         ", \"sums_consistent\": " +
         (cell.shared.summary.sums_consistent &&
                  cell.priv.summary.sums_consistent
              ? "true"
              : "false") +
         "}";
  return out;
}

/// One cell of the shard-count-invariant merged leak file: only fields the
/// shared mode provably holds constant across --shards (registry-side leak
/// identity), never latency/QPS (cache locality shifts those).
std::string merged_cell_json(const CellOutcome& cell) {
  const serve::ScenarioSummary& shared = cell.shared.summary.merged;
  return "    {\"clients\": " + std::to_string(cell.clients) +
         ", \"queries\": " + std::to_string(cell.queries) +
         ", \"case2_total\": " + std::to_string(shared.case2_total) +
         ", \"distinct_leaked\": " + std::to_string(shared.distinct_leaked) +
         ",\n     \"leaked_sha\": \"" + leaked_digest(shared.leaked_domains) +
         "\", \"causes\": " + cell.causes +
         ",\n     \"reference\": {\"case2_total\": " +
         std::to_string(cell.reference.case2_total) +
         ", \"distinct_leaked\": " +
         std::to_string(cell.reference.distinct_leaked) +
         ", \"leaked_sha\": \"" + leaked_digest(cell.reference.leaked_domains) +
         "\"},\n     \"leak_identity\": " +
         (cell.leak_identity ? "true" : "false") + "}";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lookaside;

  const bench::ArgParser args(
      argc, argv,
      {"shards", "route", "merged-out", "host-out", "expect-scaling"});
  const bool smoke = args.smoke();
  const std::string out_path = args.out("BENCH_serve.json");
  const std::string merged_path = args.value("merged-out");
  const std::string host_path = args.value("host-out");
  const std::uint64_t expect_scaling = args.numeric("expect-scaling", 0);
  const bool host_mode = !host_path.empty() || expect_scaling > 0;
  const unsigned jobs = args.jobs();
  const auto shards =
      static_cast<std::uint32_t>(args.numeric("shards", 1));
  if (shards == 0 || shards > 64) {
    std::cerr << "error: --shards expects 1..64\n";
    return 2;
  }
  const std::optional<serve::ShardRoute> route =
      serve::parse_route(args.value("route", "client"));
  if (!route.has_value()) {
    std::cerr << "error: --route expects 'client' or 'qname'\n";
    return 2;
  }

  bench::banner("Sharded serving: shared proof store vs. private vs. sequential");
  std::cout << "Each cell routes a ClientMix schedule across " << shards
            << " resolver shard(s) (" << serve::route_name(*route)
            << " consistent-hash), twice: once with the shared proof store,\n"
               "dispatched on one thread (must leak exactly the sequential\n"
               "reference's Case-2 set), once shard-private in parallel\n"
               "(re-leaks; the store must strictly reduce it). --shards N,\n"
               "--route, --jobs N (private-mode workers), --smoke for\n"
               "CI-sized cells.\n";

  const std::vector<std::uint32_t> client_grid =
      smoke ? std::vector<std::uint32_t>{2, 4}
            : std::vector<std::uint32_t>{4, 8, 16};

  bench::ObsSession obs_session(args.obs());
  // The ledger is always on: BENCH_serve.json carries the per-cause Case-2
  // breakdown, and each shard's trace-derived ledger must equal its
  // registry-side count (a second falsifier next to the reference).
  obs_session.enable_ledger();

  metrics::Table table({"Clients", "Queries", "QPS(virt)", "p99 ms",
                        "Coalesce", "C2 shared", "C2 priv", "C2 ref",
                        "Sib hits", "Identity"});
  std::vector<CellOutcome> cells;
  std::uint64_t total_hits = 0;
  std::uint64_t total_shared_case2 = 0;
  std::uint64_t total_private_case2 = 0;
  std::uint64_t total_reference_case2 = 0;
  bool all_identical = true;
  bool all_reduced = true;
  bool ledger_ok = true;
  bool sums_ok = true;
  for (std::size_t i = 0; i < client_grid.size(); ++i) {
    CellOutcome cell;
    cell.clients = client_grid[i];
    const serve::ScenarioOptions base = cell_options(cell.clients, smoke, i);
    cell.queries =
        static_cast<std::uint64_t>(cell.clients) * base.mix.queries_per_client;

    // Shared-store leg: deterministic global-order dispatch; this is the
    // run whose observability feeds the session outputs (merging the
    // private leg's ledgers too would double every leak).
    cell.shared = run_mode(base, shards, *route, /*shared=*/true, jobs,
                           obs_session, /*primary=*/i == 0);
    // Private leg: parallel, shard-private caches, re-leaks.
    cell.priv = run_mode(base, shards, *route, /*shared=*/false, jobs,
                         obs_session, /*primary=*/false);
    // Sequential reference on a fresh identical world, untraced.
    cell.reference = serve::run_sequential_reference(base);

    obs::LeakLedger cell_ledger;
    cell.ledger_ok =
        check_shards(cell.shared, "shared", cell.clients, &cell_ledger) &&
        check_shards(cell.priv, "private", cell.clients, nullptr);
    cell.causes = causes_json(cell_ledger);
    for (auto& shard_obs : cell.shared.obs) {
      shard_obs->merge_into(obs_session);
    }

    const serve::ScenarioSummary& shared = cell.shared.summary.merged;
    const serve::ScenarioSummary& priv = cell.priv.summary.merged;
    cell.leak_identity =
        shared.case2_total == cell.reference.case2_total &&
        shared.leaked_domains == cell.reference.leaked_domains;
    // The private mode can only add leaks; when it does, the store must
    // win strictly. (With 1 shard the two modes coincide — nothing to
    // reduce.)
    cell.reduction_ok =
        priv.case2_total >= cell.reference.case2_total &&
        (priv.case2_total == cell.reference.case2_total ||
         shared.case2_total < priv.case2_total);

    if (host_mode) {
      // Untraced timing legs: same private-mode config serially (one
      // worker) and fully parallel, so the speedup compares identical
      // virtual work and no tracer overhead skews either side.
      serve::ShardedOptions timing;
      timing.base = base;
      timing.shards = shards;
      timing.route = *route;
      timing.jobs = 1;
      serve::ShardedServeScenario serial(timing);
      cell.serial_wall_ms = serial.run().serve_wall_ms;
      timing.jobs = 0;  // one worker per shard
      serve::ShardedServeScenario parallel_leg(timing);
      cell.parallel_wall_ms = parallel_leg.run().serve_wall_ms;
    }

    total_hits += shared.coalesce_hits;
    total_shared_case2 += shared.case2_total;
    total_private_case2 += priv.case2_total;
    total_reference_case2 += cell.reference.case2_total;
    all_identical = all_identical && cell.leak_identity;
    all_reduced = all_reduced && cell.reduction_ok;
    ledger_ok = ledger_ok && cell.ledger_ok;
    sums_ok = sums_ok && cell.shared.summary.sums_consistent &&
              cell.priv.summary.sums_consistent;
    table.row()
        .cell(std::to_string(cell.clients))
        .cell(std::to_string(cell.queries))
        .cell(fixed(shared.qps, 1))
        .cell(fixed(shared.p99_ms, 1))
        .cell(fixed(100.0 * shared.coalesce_rate(), 1) + "%")
        .cell(std::to_string(shared.case2_total))
        .cell(std::to_string(priv.case2_total))
        .cell(std::to_string(cell.reference.case2_total))
        .cell(std::to_string(cell.shared.summary.store.nsec_sibling_hits +
                             cell.shared.summary.store.cut_sibling_hits))
        .cell(cell.leak_identity ? "ok" : "MISMATCH");
    cells.push_back(std::move(cell));
  }
  table.print(std::cout);

  std::string json = "{\n  \"schema\": \"lookaside.bench_serve.v3\",\n";
  json += std::string("  \"smoke\": ") + (smoke ? "true" : "false") + ",\n";
  json += "  \"shards\": " + std::to_string(shards) + ",\n";
  json += std::string("  \"route\": \"") + serve::route_name(*route) + "\",\n";
  json += "  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    json += cell_json(cells[i]);
    json += (i + 1 < cells.size()) ? ",\n" : "\n";
  }
  json += "  ],\n  \"total\": {\"coalesce_hits\": " +
          std::to_string(total_hits) +
          ", \"case2_shared\": " + std::to_string(total_shared_case2) +
          ", \"case2_private\": " + std::to_string(total_private_case2) +
          ", \"case2_reference\": " + std::to_string(total_reference_case2) +
          ",\n            \"leak_identity\": " +
          (all_identical ? "true" : "false") +
          ", \"reduction_ok\": " + (all_reduced ? "true" : "false") +
          ", \"ledger_ok\": " + (ledger_ok ? "true" : "false") +
          ", \"sums_consistent\": " + (sums_ok ? "true" : "false") + "}\n}\n";

  std::ofstream out(out_path);
  out << json;
  std::cout << "\n[serve] wrote " << out_path
            << (out.good() ? "" : " (WRITE FAILED)") << "\n";

  if (!merged_path.empty()) {
    // Canonical merged leak file: byte-identical for any --shards/--jobs
    // value in shared mode (the CI shard-smoke `cmp` artifact). No shard
    // count, no latency, no host quantities.
    std::string merged = "{\n  \"schema\": \"lookaside.bench_serve.merged.v1\",\n";
    merged += std::string("  \"smoke\": ") + (smoke ? "true" : "false") + ",\n";
    merged += "  \"cells\": [\n";
    for (std::size_t i = 0; i < cells.size(); ++i) {
      merged += merged_cell_json(cells[i]);
      merged += (i + 1 < cells.size()) ? ",\n" : "\n";
    }
    merged += "  ]\n}\n";
    std::ofstream merged_out(merged_path);
    merged_out << merged;
    std::cout << "[serve] wrote " << merged_path
              << (merged_out.good() ? "" : " (WRITE FAILED)") << "\n";
  }

  double mean_speedup = 0.0;
  const unsigned cores = std::thread::hardware_concurrency();
  if (host_mode) {
    std::string host = "{\n  \"schema\": \"lookaside.bench_serve.host.v1\",\n";
    host += "  \"hardware_concurrency\": " + std::to_string(cores) + ",\n";
    host += "  \"shards\": " + std::to_string(shards) + ",\n  \"cells\": [\n";
    std::size_t counted = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const double speedup = cells[i].parallel_wall_ms > 0.0
                                 ? cells[i].serial_wall_ms /
                                       cells[i].parallel_wall_ms
                                 : 0.0;
      if (speedup > 0.0) {
        mean_speedup += speedup;
        ++counted;
      }
      host += "    {\"clients\": " + std::to_string(cells[i].clients) +
              ", \"serial_wall_ms\": " + fixed(cells[i].serial_wall_ms, 2) +
              ", \"parallel_wall_ms\": " +
              fixed(cells[i].parallel_wall_ms, 2) +
              ", \"speedup\": " + fixed(speedup, 3) + "}";
      host += (i + 1 < cells.size()) ? ",\n" : "\n";
    }
    mean_speedup = counted == 0 ? 0.0 : mean_speedup / counted;
    host += "  ],\n  \"mean_speedup\": " + fixed(mean_speedup, 3) + "\n}\n";
    if (!host_path.empty()) {
      std::ofstream host_out(host_path);
      host_out << host;
      std::cout << "[serve] wrote " << host_path
                << (host_out.good() ? "" : " (WRITE FAILED)") << "\n";
    }
    std::cout << "[serve] host: " << cores << " cores, mean private-mode "
              << "speedup " << fixed(mean_speedup, 2) << "x over " << shards
              << " shard(s)\n";
  }

  obs_session.finish(std::cout);

  if (!ledger_ok) {
    std::cout << "[serve] FAIL: trace-derived ledgers disagree with the "
                 "per-shard registries (see above)\n";
    return 1;
  }
  if (!all_identical) {
    std::cout << "[serve] FAIL: shared-store sharded run leaked differently "
                 "from the sequential reference\n";
    return 1;
  }
  if (!all_reduced) {
    std::cout << "[serve] FAIL: shared proof store failed to strictly reduce "
                 "the private mode's re-leaks\n";
    return 1;
  }
  if (!sums_ok) {
    std::cout << "[serve] FAIL: per-shard counts do not sum to the merged "
                 "totals\n";
    return 1;
  }
  if (total_hits == 0) {
    std::cout << "[serve] FAIL: no query was ever coalesced — the workload "
                 "no longer overlaps\n";
    return 1;
  }
  if (shards > 1 && total_private_case2 == total_reference_case2) {
    std::cout << "[serve] FAIL: private sharding never re-leaked — the "
                 "workload no longer overlaps across shards\n";
    return 1;
  }
  if (expect_scaling > 0) {
    if (cores < 2) {
      std::cout << "[serve] NOTE: --expect-scaling skipped; only " << cores
                << " core(s) — wall-clock speedup is not authoritative here\n";
    } else {
      const double effective =
          static_cast<double>(std::min<unsigned>(shards, cores));
      const double floor_speedup =
          (static_cast<double>(expect_scaling) / 100.0) * effective;
      if (mean_speedup < floor_speedup) {
        std::cout << "[serve] FAIL: mean speedup " << fixed(mean_speedup, 2)
                  << "x < required " << fixed(floor_speedup, 2) << "x ("
                  << expect_scaling << "% of " << fixed(effective, 0)
                  << " effective cores)\n";
        return 1;
      }
      std::cout << "[serve] scaling ok: " << fixed(mean_speedup, 2)
                << "x >= " << fixed(floor_speedup, 2) << "x\n";
    }
  }
  std::cout << "[serve] leak identity holds across all cells (" << total_hits
            << " coalesced hits, " << total_private_case2 - total_reference_case2
            << " private re-leaks suppressed by the shared store)\n";
  return 0;
}
