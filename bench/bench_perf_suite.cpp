// Machine-readable performance suite for the hot paths the sweep engine
// and the hashed resolver cache optimize (PERF baseline tracking).
//
// Measures, with wall-clock timing:
//   - name.parse_ns:  dns::Name::parse over a realistic domain corpus
//   - name.hash_ns:   cached canonical-hash access on constructed names
//   - name.intern_ns: steady-state NameArena intern (the dedup path)
//   - cache.probe_hit_ns:            positive-cache hit probes
//   - cache.arena_probe_hit_ns:      bare retuned NameHashMap probe hits
//   - cache.probe_negative_nsec_ns:  aggressive NSEC coverage probes
//   - verify.batch_lookup_ns:        VerifyBatch memo hit (a deduped RSA)
//   - verify.batch_unique / batch_deduped: exact virtual counts from a
//     fixed churn workload — the gate holds these exactly, so a change in
//     how many RSA verifications batching skips cannot land silently
//   - crypto.rsa_sign_ns / rsa_verify_ns / keygen_ns: RSA unit costs on
//     256-bit keys (the simulator's key size), and crypto.divmod_ns: one
//     512-by-256-bit BigUint::divmod
//   - resolutions/sec for a fixed grid of independent experiments, run
//     once at --jobs 1 and once at --jobs N, with the speedup ratio
//
// and writes them as BENCH_perf.json (schema "lookaside.bench_perf.v4",
// documented in EXPERIMENTS.md) so CI can diff runs across commits.
//
// Parallel speedup is only meaningful when the host actually has cores to
// scale onto: on a single-hardware-thread runner the "parallel" leg is a
// context-switching re-measurement of the serial one, so the JSON records
// hardware_concurrency up front, emits "speedup": null with
// "parallelism_authoritative": false, and the CI gate skips the speedup
// band entirely (FlatJson ignores null values).
//
// Flags: --jobs N (worker threads for the parallel leg; default hardware
// concurrency), --out=PATH (default BENCH_perf.json), --quick (smaller
// workloads for CI smoke jobs). LOOKASIDE_SCALE caps the resolution grid.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/experiment.h"
#include "crypto/bigint.h"
#include "crypto/rng.h"
#include "crypto/rsa.h"
#include "crypto/sha256.h"
#include "crypto/verify_batch.h"
#include "dns/name.h"
#include "dns/name_arena.h"
#include "dns/record.h"
#include "engine/sweep.h"
#include "metrics/table.h"
#include "resolver/cache.h"
#include "resolver/resolver.h"
#include "sim/clock.h"

namespace {

using WallClock = std::chrono::steady_clock;

double seconds_since(WallClock::time_point start) {
  return std::chrono::duration<double>(WallClock::now() - start).count();
}

/// Keeps a computed value alive so timed loops are not optimized away.
void sink(std::uint64_t value) {
  volatile std::uint64_t keep = value;
  (void)keep;
}

std::string fixed(double value, int digits) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.*f", digits, value);
  return buffer;
}

/// A corpus of plausible second-level + host names.
std::vector<std::string> make_corpus(std::size_t count) {
  std::vector<std::string> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back("host" + std::to_string(i % 97) + ".Example" +
                  std::to_string(i) + ".COM");
  }
  return out;
}

struct ThroughputLeg {
  std::uint64_t resolutions = 0;
  double seconds = 0;
  double rate = 0;  // resolutions per second
};

/// Runs `cells` independent top-N experiments through the engine at the
/// given job count and reports aggregate resolution throughput.
ThroughputLeg run_throughput(std::size_t cells, std::uint64_t n,
                             unsigned jobs) {
  using namespace lookaside;
  const auto start = WallClock::now();
  const std::vector<std::uint64_t> leaked = engine::run_sharded(
      cells, jobs, [&](std::size_t i) {
        core::UniverseExperiment::Options options;
        options.universe_size = std::max<std::uint64_t>(n, 10'000);
        options.seed = 7 + i;  // distinct worlds, same workload size
        core::UniverseExperiment experiment(options);
        return experiment.run_topn(n).distinct_leaked_domains;
      });
  ThroughputLeg leg;
  leg.seconds = seconds_since(start);
  leg.resolutions = static_cast<std::uint64_t>(cells) * n;
  leg.rate = leg.seconds > 0 ? static_cast<double>(leg.resolutions) /
                                   leg.seconds
                             : 0;
  std::uint64_t checksum = 0;
  for (const std::uint64_t v : leaked) checksum += v;
  sink(checksum);
  return leg;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lookaside;

  const bench::ArgParser args(argc, argv);
  const bool quick = args.quick();
  const std::string out_path = args.out("BENCH_perf.json");
  const unsigned jobs = args.jobs();
  const unsigned cores = std::thread::hardware_concurrency();
  // One hardware thread cannot demonstrate parallel scaling; everything
  // downstream (table, JSON, CI gate) treats the speedup as unmeasured.
  const bool parallelism_authoritative = cores > 1;

  bench::banner("Performance suite: hot-path latencies and sweep throughput");
  std::cout << "Host: " << cores << " hardware thread(s); parallel speedup "
            << (parallelism_authoritative ? "is authoritative here.\n"
                                          : "is NOT authoritative here.\n");

  // --- dns::Name parse + memoized hash ----------------------------------
  const std::size_t corpus_size = quick ? 2'000 : 20'000;
  const std::size_t parse_rounds = quick ? 5 : 25;
  const std::vector<std::string> corpus = make_corpus(corpus_size);

  auto start = WallClock::now();
  std::uint64_t checksum = 0;
  for (std::size_t round = 0; round < parse_rounds; ++round) {
    for (const std::string& text : corpus) {
      checksum += dns::Name::parse(text).hash();
    }
  }
  const double parse_ns = seconds_since(start) * 1e9 /
                          static_cast<double>(corpus_size * parse_rounds);
  sink(checksum);

  std::vector<dns::Name> names;
  names.reserve(corpus_size);
  for (const std::string& text : corpus) names.push_back(dns::Name::parse(text));

  const std::size_t hash_rounds = quick ? 200 : 2'000;
  start = WallClock::now();
  checksum = 0;
  for (std::size_t round = 0; round < hash_rounds; ++round) {
    for (const dns::Name& name : names) checksum += name.hash();
  }
  const double hash_ns = seconds_since(start) * 1e9 /
                         static_cast<double>(corpus_size * hash_rounds);
  sink(checksum);

  // --- name interning arena (§4k) ----------------------------------------
  dns::NameArena arena;
  for (const dns::Name& name : names) (void)arena.intern(name);
  const std::size_t intern_rounds = quick ? 100 : 1'000;
  start = WallClock::now();
  checksum = 0;
  for (std::size_t round = 0; round < intern_rounds; ++round) {
    for (const dns::Name& name : names) checksum += arena.intern(name);
  }
  const double intern_ns = seconds_since(start) * 1e9 /
                           static_cast<double>(corpus_size * intern_rounds);
  sink(checksum);

  // Bare NameHashMap probe hit through the arena index: no cache sections,
  // no TTL checks — the number the <30ns probe-hit target is judged on.
  start = WallClock::now();
  checksum = 0;
  for (std::size_t round = 0; round < intern_rounds; ++round) {
    for (const dns::Name& name : names) checksum += arena.find(name);
  }
  const double arena_probe_ns =
      seconds_since(start) * 1e9 /
      static_cast<double>(corpus_size * intern_rounds);
  sink(checksum);

  // --- resolver cache probes ---------------------------------------------
  sim::SimClock clock;
  resolver::ResolverCache cache(clock);
  for (const dns::Name& name : names) {
    dns::RRset rrset(name, dns::RRType::kA);
    rrset.add(dns::ResourceRecord::make(name, 3600, dns::ARdata{0x5DB8D822}));
    cache.store(rrset, /*validated=*/false);
  }
  const std::size_t probe_rounds = quick ? 20 : 200;
  start = WallClock::now();
  checksum = 0;
  for (std::size_t round = 0; round < probe_rounds; ++round) {
    for (const dns::Name& name : names) {
      checksum += cache.find(name, dns::RRType::kA) != nullptr;
    }
  }
  const double probe_hit_ns = seconds_since(start) * 1e9 /
                              static_cast<double>(corpus_size * probe_rounds);
  sink(checksum);

  // Aggressive NSEC chain: owners at even indices, probes at odd indices
  // (every probe lands strictly between two chain entries -> kNameCovered).
  const dns::Name zone = dns::Name::parse("example");
  const std::size_t chain_size = quick ? 500 : 5'000;
  std::vector<dns::Name> covered;
  covered.reserve(chain_size);
  for (std::size_t i = 0; i < chain_size; ++i) {
    char owner[32];
    std::snprintf(owner, sizeof owner, "n%06zu.example", 2 * i);
    char next[32];
    std::snprintf(next, sizeof next, "n%06zu.example", 2 * i + 2);
    cache.store_nsec(
        zone, dns::ResourceRecord::make(
                  dns::Name::parse(owner), 3600,
                  dns::NsecRdata{dns::Name::parse(next), {dns::RRType::kA}}));
    char probe[32];
    std::snprintf(probe, sizeof probe, "n%06zu.example", 2 * i + 1);
    covered.push_back(dns::Name::parse(probe));
  }
  const std::size_t nsec_rounds = quick ? 20 : 200;
  start = WallClock::now();
  checksum = 0;
  for (std::size_t round = 0; round < nsec_rounds; ++round) {
    for (const dns::Name& name : covered) {
      checksum += cache
                      .find_denial(zone, name, dns::RRType::kA,
                                   resolver::DenialSources::kSpans)
                      .coverage == resolver::DenialKind::kNxDomain;
    }
  }
  const double probe_nsec_ns = seconds_since(start) * 1e9 /
                               static_cast<double>(chain_size * nsec_rounds);
  sink(checksum);

  // --- batched RSA verification (§4k) ------------------------------------
  // Memo-hit latency: the cost a deduped verification pays instead of the
  // modular exponentiation (compare crypto.rsa_verify_ns ~ microseconds).
  crypto::VerifyBatch batch;
  {
    crypto::VerifyBatchScope scope(batch);
    for (std::uint64_t k = 0; k < 64; ++k) {
      batch.record(k * 0x9E3779B97F4A7C15ULL, true);
    }
    const std::size_t lookup_rounds = quick ? 200'000 : 2'000'000;
    start = WallClock::now();
    checksum = 0;
    for (std::size_t i = 0; i < lookup_rounds; ++i) {
      checksum += batch.lookup((i % 64) * 0x9E3779B97F4A7C15ULL).value_or(false);
    }
    sink(checksum);
  }
  const double batch_lookup_ns =
      seconds_since(start) * 1e9 / static_cast<double>(quick ? 200'000 : 2'000'000);

  // Exact dedupe counts on a fixed churn-style workload with the verdict
  // cache off: every skipped verification here is the within-resolution
  // batch alone (NSEC RRsets verified for validation and again when cached,
  // DNSKEY self-sig re-checks). Virtual-clock deterministic, so the gate
  // compares these exactly.
  std::uint64_t batch_unique = 0;
  std::uint64_t batch_deduped = 0;
  {
    core::UniverseExperiment::Options churn_options;
    churn_options.universe_size = 10'000;
    churn_options.resolver_config = resolver::ResolverConfig::bind_yum();
    churn_options.resolver_config.ns_fetch_probability = 0.0;
    core::UniverseExperiment churn(churn_options);
    for (std::uint64_t round = 0; round < 2; ++round) {
      for (std::uint64_t rank = 1; rank <= 40; ++rank) {
        (void)churn.stub().visit(churn.world().universe().domain_at(rank));
      }
      // Miss traffic: nonexistent SLDs under the signed TLDs. The chained
      // NXDOMAIN is where the within-resolution repeat lives — the authority
      // NSECs are verified once for validation and once more when cached
      // (resolver.cpp validate_response + cache_validated_nsecs).
      for (std::uint64_t rank = 1; rank <= 8; ++rank) {
        const dns::Name tld =
            churn.world().universe().domain_at(rank).parent();
        (void)churn.stub().visit(tld.with_prefix_label(
            "nxprobe-" + std::to_string(round) + "-" + std::to_string(rank)));
      }
      churn.clock().advance_seconds(2'100.0);
    }
    const auto& counters = churn.resolver().validator().counters();
    batch_unique = counters.value("verify.batch_unique");
    batch_deduped = counters.value("verify.batch_deduped");
  }

  // --- RSA unit costs on 256-bit keys (DESIGN.md §4l) --------------------
  // What signing on line, validating and building a world cost per call.
  crypto::SplitMix64 key_rng(0x525341);
  const std::size_t keygen_rounds = quick ? 20 : 200;
  start = WallClock::now();
  checksum = 0;
  for (std::size_t i = 0; i < keygen_rounds; ++i) {
    checksum += crypto::generate_rsa_keypair(256, key_rng)
                    .public_key.modulus()
                    .low_u64();
  }
  const double keygen_ns = seconds_since(start) * 1e9 /
                           static_cast<double>(keygen_rounds);
  sink(checksum);

  const crypto::RsaKeyPair keys = crypto::generate_rsa_keypair(256, key_rng);
  const crypto::Bytes digest = crypto::Sha256::digest("bench_perf_suite");
  const std::size_t rsa_rounds = quick ? 2'000 : 20'000;
  crypto::Bytes signature;
  start = WallClock::now();
  checksum = 0;
  for (std::size_t i = 0; i < rsa_rounds; ++i) {
    signature = keys.private_key.sign_digest(digest);
    checksum += signature.back();
  }
  const double rsa_sign_ns =
      seconds_since(start) * 1e9 / static_cast<double>(rsa_rounds);
  sink(checksum);

  start = WallClock::now();
  checksum = 0;
  for (std::size_t i = 0; i < rsa_rounds; ++i) {
    checksum += keys.public_key.verify_digest(digest, signature);
  }
  const double rsa_verify_ns =
      seconds_since(start) * 1e9 / static_cast<double>(rsa_rounds);
  sink(checksum);

  crypto::Bytes dividend(64);
  crypto::Bytes divisor(32);
  key_rng.fill(dividend);
  key_rng.fill(divisor);
  divisor[0] |= 0x80;
  const crypto::BigUint wide = crypto::BigUint::from_bytes_be(dividend);
  const crypto::BigUint narrow = crypto::BigUint::from_bytes_be(divisor);
  const std::size_t divmod_rounds = quick ? 100'000 : 1'000'000;
  crypto::BigUint quotient;
  crypto::BigUint remainder;
  start = WallClock::now();
  checksum = 0;
  for (std::size_t i = 0; i < divmod_rounds; ++i) {
    crypto::BigUint::divmod(wide, narrow, quotient, remainder);
    checksum += remainder.low_u64();
  }
  const double divmod_ns =
      seconds_since(start) * 1e9 / static_cast<double>(divmod_rounds);
  sink(checksum);

  // --- end-to-end resolution throughput, single vs. sharded --------------
  const std::size_t cells = quick ? 4 : 8;
  const std::uint64_t n = quick ? 300 : bench::max_scale(1'000);
  std::cout << "Throughput grid: " << cells << " independent experiments x "
            << n << " resolutions each.\n";
  const ThroughputLeg single = run_throughput(cells, n, /*jobs=*/1);
  const ThroughputLeg parallel = run_throughput(cells, n, jobs);
  const double speedup = single.rate > 0 ? parallel.rate / single.rate : 0;

  metrics::Table table({"Metric", "Value"});
  table.row().cell("name parse (ns)").cell(fixed(parse_ns, 1));
  table.row().cell("name cached hash (ns)").cell(fixed(hash_ns, 2));
  table.row().cell("name intern, steady state (ns)").cell(fixed(intern_ns, 1));
  table.row().cell("cache probe hit (ns)").cell(fixed(probe_hit_ns, 1));
  table.row().cell("arena map probe hit (ns)").cell(fixed(arena_probe_ns, 1));
  table.row().cell("NSEC cover probe (ns)").cell(fixed(probe_nsec_ns, 1));
  table.row().cell("batch verify memo hit (ns)").cell(fixed(batch_lookup_ns, 1));
  table.row()
      .cell("churn RSA verifies unique/deduped")
      .cell(std::to_string(batch_unique) + " / " +
            std::to_string(batch_deduped));
  table.row().cell("RSA-256 sign (ns)").cell(fixed(rsa_sign_ns, 0));
  table.row().cell("RSA-256 verify (ns)").cell(fixed(rsa_verify_ns, 0));
  table.row().cell("RSA-256 keygen (ns)").cell(fixed(keygen_ns, 0));
  table.row().cell("divmod 512/256 bits (ns)").cell(fixed(divmod_ns, 1));
  table.row()
      .cell("resolutions/sec (1 thread)")
      .cell(fixed(single.rate, 0));
  table.row()
      .cell("resolutions/sec (" + std::to_string(jobs) + " jobs)")
      .cell(fixed(parallel.rate, 0));
  table.row()
      .cell("hardware threads")
      .cell(std::to_string(cores));
  table.row()
      .cell("speedup")
      .cell(parallelism_authoritative ? fixed(speedup, 2) + "x"
                                      : "n/a (1 core)");
  table.print(std::cout);

  const std::string json =
      std::string("{\n") +
      "  \"schema\": \"lookaside.bench_perf.v4\",\n" +
      "  \"hardware_concurrency\": " + std::to_string(cores) + ",\n" +
      "  \"jobs\": " + std::to_string(jobs) + ",\n" +
      "  \"single_thread\": {\"resolutions\": " +
      std::to_string(single.resolutions) + ", \"seconds\": " +
      fixed(single.seconds, 4) + ", \"resolutions_per_sec\": " +
      fixed(single.rate, 1) + "},\n" +
      "  \"parallel\": {\"jobs\": " + std::to_string(jobs) +
      ", \"resolutions\": " + std::to_string(parallel.resolutions) +
      ", \"seconds\": " + fixed(parallel.seconds, 4) +
      ", \"resolutions_per_sec\": " + fixed(parallel.rate, 1) +
      ", \"speedup\": " +
      (parallelism_authoritative ? fixed(speedup, 2) : "null") +
      ", \"parallelism_authoritative\": " +
      (parallelism_authoritative ? "true" : "false") + "},\n" +
      "  \"cache\": {\"probe_hit_ns\": " + fixed(probe_hit_ns, 2) +
      ", \"arena_probe_hit_ns\": " + fixed(arena_probe_ns, 2) +
      ", \"probe_negative_nsec_ns\": " + fixed(probe_nsec_ns, 2) + "},\n" +
      "  \"name\": {\"parse_ns\": " + fixed(parse_ns, 2) +
      ", \"hash_ns\": " + fixed(hash_ns, 3) +
      ", \"intern_ns\": " + fixed(intern_ns, 2) + "},\n" +
      "  \"verify\": {\"batch_lookup_ns\": " + fixed(batch_lookup_ns, 2) +
      ", \"batch_unique\": " + std::to_string(batch_unique) +
      ", \"batch_deduped\": " + std::to_string(batch_deduped) + "},\n" +
      "  \"crypto\": {\"rsa_sign_ns\": " + fixed(rsa_sign_ns, 1) +
      ", \"rsa_verify_ns\": " + fixed(rsa_verify_ns, 1) +
      ", \"keygen_ns\": " + fixed(keygen_ns, 0) +
      ", \"divmod_ns\": " + fixed(divmod_ns, 2) + "}\n" +
      "}\n";
  std::ofstream out(out_path);
  out << json;
  std::cout << "\n[perf] wrote " << out_path
            << (out.good() ? "" : " (WRITE FAILED)") << "\n";
  return 0;
}
