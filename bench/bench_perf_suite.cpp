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
//   - crypto.sha1_ns: one SHA-1 inside zone::nsec3_hash at 100 iterations
//     (the call's time divided by its nsec3_hash_ops), and
//     crypto.sha256_1kib_ns: one Sha256::digest of 1 KiB
//   - resolutions/sec for a fixed grid of independent experiments, run
//     once at --jobs 1 and once at --jobs N, with the speedup ratio
//
// and writes them as BENCH_perf.json (schema "lookaside.bench_perf.v4",
// documented in EXPERIMENTS.md) so CI can diff runs across commits.
//
// Every per-operation latency is the fastest of kRounds equal rounds, the
// same rule perfbench applies to submit(): a round that a loaded host
// descheduled is discarded instead of averaged in.
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
#include <limits>
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
#include "zone/nsec3.h"

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

constexpr int kRounds = 5;

/// Host ns per call of `op`: the fastest of kRounds rounds, each calling
/// op(0) .. op(ops - 1) and summing the results into a kept checksum.
template <typename Op>
double fastest_ns_per_op(std::size_t ops, Op op) {
  double best = std::numeric_limits<double>::infinity();
  for (int round = 0; round < kRounds; ++round) {
    std::uint64_t checksum = 0;
    const auto start = WallClock::now();
    for (std::size_t i = 0; i < ops; ++i) checksum += op(i);
    best = std::min(best,
                    seconds_since(start) * 1e9 / static_cast<double>(ops));
    sink(checksum);
  }
  return best;
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
  // Each count below is per timed round; fastest_ns_per_op runs kRounds.
  const std::size_t corpus_size = quick ? 2'000 : 20'000;
  const std::vector<std::string> corpus = make_corpus(corpus_size);
  std::vector<dns::Name> names;
  names.reserve(corpus_size);
  for (const std::string& text : corpus) names.push_back(dns::Name::parse(text));

  // ns per element of `items` for `passes` passes of `per_item` over it.
  const auto per_item_ns = [](std::size_t passes, const auto& items,
                              auto per_item) {
    return fastest_ns_per_op(passes, [&](std::size_t) {
             std::uint64_t sum = 0;
             for (const auto& item : items) sum += per_item(item);
             return sum;
           }) /
           static_cast<double>(items.size());
  };

  const double parse_ns =
      per_item_ns(quick ? 1 : 5, corpus, [](const std::string& text) {
        return dns::Name::parse(text).hash();
      });
  const double hash_ns =
      per_item_ns(quick ? 40 : 400, names,
                  [](const dns::Name& name) { return name.hash(); });

  // --- name interning arena (§4k) ----------------------------------------
  dns::NameArena arena;
  for (const dns::Name& name : names) (void)arena.intern(name);
  const std::size_t intern_passes = quick ? 20 : 200;
  const double intern_ns =
      per_item_ns(intern_passes, names,
                  [&](const dns::Name& name) { return arena.intern(name); });

  // Bare NameHashMap probe hit through the arena index: no cache sections,
  // no TTL checks — the number the <30ns probe-hit target is judged on.
  const double arena_probe_ns =
      per_item_ns(intern_passes, names,
                  [&](const dns::Name& name) { return arena.find(name); });

  // --- resolver cache probes ---------------------------------------------
  sim::SimClock clock;
  resolver::ResolverCache cache(clock);
  for (const dns::Name& name : names) {
    dns::RRset rrset(name, dns::RRType::kA);
    rrset.add(dns::ResourceRecord::make(name, 3600, dns::ARdata{0x5DB8D822}));
    cache.store(rrset, /*validated=*/false);
  }
  const double probe_hit_ns =
      per_item_ns(quick ? 4 : 40, names, [&](const dns::Name& name) {
        return cache.find(name, dns::RRType::kA) != nullptr;
      });

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
  const double probe_nsec_ns =
      per_item_ns(quick ? 4 : 40, covered, [&](const dns::Name& name) {
        return cache
                   .find_denial(zone, name, dns::RRType::kA,
                                resolver::DenialSources::kSpans)
                   .coverage == resolver::DenialKind::kNxDomain;
      });

  // --- batched RSA verification (§4k) ------------------------------------
  // Memo-hit latency: the cost a deduped verification pays instead of the
  // modular exponentiation (compare crypto.rsa_verify_ns ~ microseconds).
  crypto::VerifyBatch batch;
  double batch_lookup_ns = 0;
  {
    crypto::VerifyBatchScope scope(batch);
    for (std::uint64_t k = 0; k < 64; ++k) {
      batch.record(k * 0x9E3779B97F4A7C15ULL, true);
    }
    batch_lookup_ns =
        fastest_ns_per_op(quick ? 40'000 : 400'000, [&](std::size_t i) {
          return batch.lookup((i % 64) * 0x9E3779B97F4A7C15ULL)
              .value_or(false);
        });
  }

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
  // Key i is drawn from a generator seeded by i, so every round searches
  // the same primes.
  const double keygen_ns =
      fastest_ns_per_op(quick ? 4 : 40, [](std::size_t i) {
        crypto::SplitMix64 key_rng(0x525341 + i);
        return crypto::generate_rsa_keypair(256, key_rng)
            .public_key.modulus()
            .low_u64();
      });

  crypto::SplitMix64 key_rng(0x4B4559);
  const crypto::RsaKeyPair keys = crypto::generate_rsa_keypair(256, key_rng);
  const crypto::Bytes digest = crypto::Sha256::digest("bench_perf_suite");
  const crypto::Bytes signature = keys.private_key.sign_digest(digest);
  const std::size_t rsa_ops = quick ? 400 : 4'000;
  const double rsa_sign_ns = fastest_ns_per_op(rsa_ops, [&](std::size_t) {
    return keys.private_key.sign_digest(digest).back();
  });
  const double rsa_verify_ns = fastest_ns_per_op(rsa_ops, [&](std::size_t) {
    return keys.public_key.verify_digest(digest, signature);
  });

  crypto::Bytes dividend(64);
  crypto::Bytes divisor(32);
  key_rng.fill(dividend);
  key_rng.fill(divisor);
  divisor[0] |= 0x80;
  const crypto::BigUint wide = crypto::BigUint::from_bytes_be(dividend);
  const crypto::BigUint narrow = crypto::BigUint::from_bytes_be(divisor);
  crypto::BigUint quotient;
  crypto::BigUint remainder;
  const double divmod_ns =
      fastest_ns_per_op(quick ? 20'000 : 200'000, [&](std::size_t) {
        crypto::BigUint::divmod(wide, narrow, quotient, remainder);
        return remainder.low_u64();
      });

  // --- SHA kernels (DESIGN.md §4l) ----------------------------------------
  // SHA-1 as NSEC3 pays it: per call inside a 100-iteration owner hash.
  const dns::Name nsec3_name = dns::Name::parse("example.dlv.isc.org");
  const crypto::Bytes nsec3_salt = {0xaa, 0xbb, 0xcc, 0xdd};
  constexpr std::uint16_t kNsec3Iterations = 100;
  const double sha1_ns =
      fastest_ns_per_op(quick ? 200 : 2'000,
                        [&](std::size_t) {
                          return zone::nsec3_hash(nsec3_name, nsec3_salt,
                                                  kNsec3Iterations)[0];
                        }) /
      static_cast<double>(zone::nsec3_hash_ops(kNsec3Iterations));
  const crypto::Bytes kibibyte(1024, 0xAB);
  const double sha256_1kib_ns =
      fastest_ns_per_op(quick ? 2'000 : 20'000, [&](std::size_t) {
        return crypto::Sha256::digest(kibibyte)[0];
      });

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
  table.row().cell("SHA-1 in NSEC3 hash (ns)").cell(fixed(sha1_ns, 1));
  table.row().cell("SHA-256 of 1 KiB (ns)").cell(fixed(sha256_1kib_ns, 0));
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
      ", \"divmod_ns\": " + fixed(divmod_ns, 2) +
      ", \"sha1_ns\": " + fixed(sha1_ns, 2) +
      ", \"sha256_1kib_ns\": " + fixed(sha256_1kib_ns, 1) + "}\n" +
      "}\n";
  std::ofstream out(out_path);
  out << json;
  std::cout << "\n[perf] wrote " << out_path
            << (out.good() ? "" : " (WRITE FAILED)") << "\n";
  return 0;
}
