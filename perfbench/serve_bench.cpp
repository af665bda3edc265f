// Host-time serving benchmark.
//
// Builds a serving stack through its public constructors, replays a
// generated workload::ClientMix schedule through FrontendServer::submit one
// query at a time, and reports host time. Load model: a closed loop with one
// caller, this thread, which submits the next wire query when the previous
// submit() returns. Virtual arrival times drive only the simulation, never
// host pacing, so every figure is work done per host-second at the
// workload's stated size.
//
// Every run is checked against a sequential reference (one resolve() per
// query on a fresh identical stack, untimed): the Case-2 total, the leaked
// domain set, and each query's rcode, AD bit, answer records (TTLs aside)
// and Case-2 queries caused must agree. A query fails when it is answered
// SERVFAIL or FORMERR, is shed by admission control, or disagrees with the
// reference. Every pass replays the same queries doing the same work, so
// the run keeps each query's fastest submit() over its passes and reports
// qps and percentiles over those.
//
// --trace 0 reports the end-to-end metrics. --trace 1 spends half the run
// untraced and half traced, and reports the per-layer breakdown: counts
// from the layers' public counters, host self time from spans recorded
// here around the calls into each layer, and crypto unit costs timed on
// the world's own keys.
//
// Usage: serve_bench --workload NAME --seed N --seconds S --trace 0|1
//                    [--trace-out PATH]
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics. Exit code 0 only when every check passed.
#include <sched.h>
#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "crypto/dnssec_algo.h"
#include "crypto/rng.h"
#include "crypto/sha1.h"
#include "dns/codec.h"
#include "measure.h"
#include "serve/scenario.h"
#include "serve/sharded.h"
#include "workload/universe_world.h"
#include "zone/nsec3.h"

namespace {

using namespace lookaside;
using perfbench::Figures;
using perfbench::Interval;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

std::uint64_t fnv1a(const dns::Bytes& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const std::uint8_t byte : bytes) {
    hash ^= byte;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

// -- Workloads ----------------------------------------------------------------

/// One workload: the stack it builds and how passes reuse it.
struct Shape {
  serve::ScenarioOptions options;
  std::uint32_t shards = 0;  // 0: one ServeStack; N: N shards, shared store
  /// Serve timed passes on a stack warmed by an untimed pass, rebuilt and
  /// warmed again every kWarmStackSeconds; otherwise every pass starts
  /// from a freshly built stack.
  bool warm = false;
  /// Keep only the first query for each (name, type): no query can then
  /// join an in-flight resolution or hit an answer an earlier query cached.
  bool distinct_keys = false;
};

serve::ScenarioOptions base_options(std::uint64_t seed,
                                    std::uint64_t universe,
                                    std::uint32_t clients,
                                    std::uint32_t queries_per_client) {
  serve::ScenarioOptions options;
  options.universe_size = universe;
  options.seed = crypto::derive_seed(seed, 0x574f524c44);  // world
  options.mix.seed = crypto::derive_seed(seed, 0x4d4958);  // schedule
  options.mix.clients = clients;
  options.mix.queries_per_client = queries_per_client;
  // Drop-free sizing (as in bench_serve_throughput): an uncached resolution
  // holds the frontend ~200 virtual ms, so 25 ms per client keeps about 8
  // resolutions in flight, far below the admission limit. A shed query
  // would count as a failure.
  options.mix.mean_gap_us = 25'000ULL * clients;
  return options;
}

/// Schedules are sized so every pass holds at least 1000 queries: the p99
/// over them then has at least ten samples beyond it.
std::optional<Shape> make_shape(const std::string& name, std::uint64_t seed) {
  Shape shape;
  if (name == "hot-head" || name == "shard4-shared") {
    shape.options = base_options(seed, 10'000, 32, 160);
    shape.options.mix.zipf_support = 1'000;
    shape.warm = name == "hot-head";
    if (name == "shard4-shared") shape.shards = 4;
  } else if (name == "cold-tail" || name == "cold-tail-repeats") {
    shape.options = base_options(seed, 100'000, 8, 400);
    // Every client draws uniform ranks over distinct keys: each query is a
    // full validated resolution with a DLV look-aside. cold-tail-repeats
    // keeps the repeated keys; it is not a benchmark workload but shows the
    // capped frontend's known divergence from the reference (seed 7 fails).
    shape.options.mix.attack_fraction = 1.0;
    shape.options.resolver_config.max_cache_bytes = 2ULL << 20;
    shape.distinct_keys = name == "cold-tail";
  } else if (name == "nsec3-flood") {
    shape.options = base_options(seed, 100'000, 16, 120);
    shape.options.mix.zipf_support = 2'000;
    shape.options.mix.attack_fraction = 0.25;
    shape.options.dlv.nsec3_enabled = true;
    shape.options.dlv.nsec3_iterations = 100;
    shape.options.dlv.nsec3_salt = {0xab, 0xcd, 0xef, 0x01};
    // Pre-RFC-9276 resolver, no CPU budget: the attack is undefended.
    shape.options.resolver_config.nsec3_iteration_cap = 0;
    shape.options.resolver_config.nsec3_strict = false;
  } else {
    return std::nullopt;
  }
  return shape;
}

std::vector<workload::ClientQuery> first_of_each_key(
    const std::vector<workload::ClientQuery>& schedule) {
  std::set<std::pair<std::string, dns::RRType>> seen;
  std::vector<workload::ClientQuery> out;
  for (const workload::ClientQuery& query : schedule) {
    if (seen.emplace(query.name.to_text(), query.type).second) {
      out.push_back(query);
    }
  }
  return out;
}

// -- Serving targets ----------------------------------------------------------

/// The stack(s) one pass is served by.
class Target {
 public:
  explicit Target(const Shape& shape) {
    if (shape.shards == 0) {
      single_ = std::make_unique<serve::ServeStack>(
          shape.options, nullptr, nullptr, nullptr, 0, std::string());
      stacks_.push_back(single_.get());
      return;
    }
    serve::ShardedOptions options;
    options.base = shape.options;
    options.shards = shape.shards;
    options.route = serve::ShardRoute::kClient;
    options.shared_store = true;
    sharded_ = std::make_unique<serve::ShardedServeScenario>(options);
    for (std::uint32_t s = 0; s < sharded_->shard_count(); ++s) {
      stacks_.push_back(&sharded_->stack(s));
    }
  }

  [[nodiscard]] const std::vector<serve::ServeStack*>& stacks() const {
    return stacks_;
  }

  /// The frontend each query of `schedule` is dispatched to.
  [[nodiscard]] std::vector<serve::FrontendServer*> route(
      const std::vector<workload::ClientQuery>& schedule) const {
    std::vector<serve::FrontendServer*> out;
    out.reserve(schedule.size());
    for (const workload::ClientQuery& query : schedule) {
      out.push_back(
          single_ != nullptr
              ? single_->frontend.get()
              : sharded_->stack(sharded_->router().shard_for(query))
                    .frontend.get());
    }
    return out;
  }

  [[nodiscard]] resolver::SharedProofStore* store() const {
    return sharded_ == nullptr ? nullptr : sharded_->shared_store();
  }

 private:
  std::unique_ptr<serve::ServeStack> single_;
  std::unique_ptr<serve::ShardedServeScenario> sharded_;
  std::vector<serve::ServeStack*> stacks_;
};

struct LeakSide {
  std::uint64_t case2 = 0;
  std::set<std::string> leaked;
  bool operator==(const LeakSide&) const = default;
};

LeakSide leak_side(const std::vector<serve::ServeStack*>& stacks) {
  LeakSide out;
  for (const serve::ServeStack* stack : stacks) {
    serve::ScenarioSummary summary;
    stack->fill_registry_side(summary);
    out.case2 += summary.case2_total;
    out.leaked.insert(summary.leaked_domains.begin(),
                      summary.leaked_domains.end());
  }
  return out;
}

// -- Correctness oracle -------------------------------------------------------

/// What a stub must see for one query: rcode, AD and the answer records
/// with TTLs zeroed (cache hits legitimately age them).
struct Expected {
  dns::RCode rcode = dns::RCode::kNoError;
  bool ad = false;
  std::vector<dns::ResourceRecord> answers;
  bool operator==(const Expected&) const = default;
};

Expected expected_of(const dns::Message& response) {
  Expected out{response.header.rcode, response.header.ad, response.answers};
  for (dns::ResourceRecord& record : out.answers) record.ttl = 0;
  return out;
}

struct Reference {
  std::vector<Expected> expected;
  std::vector<std::uint64_t> case2;  // Case-2 queries each query caused
  LeakSide leaks;
};

/// Sequential reference: one resolve() per query, arrival order, no
/// coalescing, on `stack` (fresh).
Reference run_reference(serve::ServeStack& stack,
                        const std::vector<workload::ClientQuery>& schedule) {
  Reference ref;
  ref.expected.reserve(schedule.size());
  ref.case2.reserve(schedule.size());
  for (const workload::ClientQuery& query : schedule) {
    const std::uint64_t before = stack.case2();
    ref.expected.push_back(
        expected_of(stack.resolver->resolve({query.name, query.type}).response));
    ref.case2.push_back(stack.case2() - before);
  }
  ref.leaks = leak_side({&stack});
  return ref;
}

/// Per-query verdicts. The answer verdict is memoized on the response
/// bytes: a pass whose response for query i is byte-identical to one
/// already judged reuses it instead of decoding again. On a fresh stack a
/// query must also cause exactly the reference's Case-2 queries; on a
/// warmed stack it must cause none.
class Checker {
 public:
  explicit Checker(const Reference& ref)
      : ref_(&ref), memo_(ref.expected.size()) {}

  bool ok(std::size_t index, const serve::Served& served, bool fresh) {
    if (served.overload_drop || served.cpu_drop || served.formerr ||
        served.rcode == dns::RCode::kServFail ||
        served.rcode == dns::RCode::kFormErr ||
        served.case2_leaks != (fresh ? ref_->case2[index] : 0)) {
      return false;
    }
    const std::uint64_t digest = fnv1a(served.response_wire);
    Memo& memo = memo_[index];
    if (!memo.seen || memo.digest != digest) {
      memo.seen = true;
      memo.digest = digest;
      try {
        memo.ok = expected_of(dns::decode_message(served.response_wire)) ==
                  ref_->expected[index];
      } catch (const dns::WireFormatError&) {
        memo.ok = false;
      }
    }
    return memo.ok;
  }

 private:
  struct Memo {
    bool seen = false;
    bool ok = false;
    std::uint64_t digest = 0;
  };
  const Reference* ref_;
  std::vector<Memo> memo_;
};

// -- Per-layer counts ---------------------------------------------------------

/// The layers' public counters summed over a target's stacks, under the
/// names the per-layer metrics use. "cache.peak_bytes" is a high-water mark
/// in a snapshot but comes out as a difference in a delta; readers of a
/// delta take it from the later snapshot.
metrics::CounterSet snapshot(const Target& target) {
  metrics::CounterSet c;
  for (serve::ServeStack* stack : target.stacks()) {
    const metrics::CounterSet& cache = stack->resolver->cache().counters();
    c.add("cache.hit", cache.value("cache.hit"));
    c.add("cache.miss", cache.value("cache.miss"));
    c.add("cache.evicted", cache.value("cache.evicted"));
    c.add("cache.expired_swept", cache.value("cache.expired_swept"));
    c.add("cache.peak_bytes", stack->resolver->cache().peak_bytes());
    const metrics::CounterSet& validator =
        stack->resolver->validator().counters();
    c.add("validator.rsa_verifies", validator.value("verify.batch_unique"));
    c.add("validator.rsa_skipped", validator.value("verdict.rsa_skipped") +
                                       validator.value("verify.batch_deduped"));
    c.add("validator.nsec3_hash_ops",
          stack->resolver->stats().value("nsec3.hash_ops"));
    const metrics::CounterSet& net = stack->network.counters();
    const std::uint64_t to_dlv = net.value(
        "dest." + stack->world->registry().endpoint_id() + ".queries");
    c.add("sim.exchanges", net.value("packets.query"));
    c.add("sim.bytes_total", net.value("bytes.total"));
    c.add("server.exchanges", net.value("packets.query") - to_dlv);
    c.add("dlv.queries", stack->world->registry().total_queries());
    c.add("dlv.case2", stack->case2());
    const metrics::CounterSet& serve = stack->frontend->stats();
    c.add("serve.coalesce.hits", serve.value("serve.coalesce.hits"));
    c.add("serve.coalesce.misses", serve.value("serve.coalesce.misses"));
    c.add("serve.shed", serve.value("serve.overload.drops") +
                            serve.value("serve.cpu.drops"));
  }
  if (const resolver::SharedProofStore* store = target.store()) {
    const resolver::SharedProofStore::Stats stats = store->stats();
    c.add("store.nsec_hits", stats.nsec_hits);
    c.add("store.cut_hits", stats.cut_hits);
    c.add("store.sibling_hits", stats.nsec_sibling_hits + stats.cut_sibling_hits);
  }
  return c;
}

// -- Tracing ------------------------------------------------------------------

/// One recorded span (kept for the first traced pass, written at the end).
struct SpanRecord {
  std::uint64_t query_id = 0;
  std::string name;
  std::string to;
  Interval span;
  bool timed_out = false;
};

/// Host time per layer, summed over traced queries.
struct LayerTotals {
  std::uint64_t queries = 0;
  std::uint64_t submit = 0;      // serve.submit root spans
  std::uint64_t serve_self = 0;  // root minus the union of its children
  std::uint64_t decode = 0, encode = 0;
  std::uint64_t server = 0, dlv = 0;  // exchange spans by destination
  std::uint64_t timed_out = 0;
};

/// Spans recorded from outside the program: serve.submit around each call,
/// sim.exchange children from Network observer records, and dns.decode /
/// dns.encode replayed on the identical query and response bytes and placed
/// where submit() runs them, at its start and end.
class Tracing {
 public:
  void attach(const Target& target) {
    for (serve::ServeStack* stack : target.stacks()) {
      dlv_id_ = stack->world->registry().endpoint_id();
      stack->network.add_observer([this](const sim::PacketRecord& record) {
        if (!recording_) return;
        const std::uint64_t now = now_ns();
        if (record.is_query) {
          pairer_.on_query(record.to, now);
        } else {
          pairer_.on_response(record.from, now);
        }
      });
    }
  }

  void set_recording(bool on) { recording_ = on; }

  void on_query(const serve::WireQuery& query, const serve::Served& served,
                Interval root, bool keep) {
    const std::vector<perfbench::Exchange> exchanges =
        pairer_.finish(root.end);

    std::uint64_t start = now_ns();
    const dns::Message request = dns::decode_message(query.wire);
    const std::uint64_t decode_ns = now_ns() - start;
    const dns::Message response = dns::decode_message(served.response_wire);
    start = now_ns();
    const dns::Bytes reencoded = dns::encode_message(response);
    const std::uint64_t encode_ns = now_ns() - start;
    if (request.questions.size() != 1 ||
        reencoded.size() != served.response_wire.size()) {
      ++codec_mismatches_;
    }

    std::vector<Interval> children;
    children.reserve(exchanges.size() + 2);
    children.push_back({root.start, root.start + decode_ns});
    children.push_back({root.end - std::min(encode_ns, root.end), root.end});
    LayerTotals& t = totals_;
    for (const perfbench::Exchange& exchange : exchanges) {
      children.push_back(exchange.span);
      const std::uint64_t length = exchange.span.end - exchange.span.start;
      (exchange.to == dlv_id_ ? t.dlv : t.server) += length;
      t.timed_out += exchange.timed_out ? 1 : 0;
    }
    t.queries += 1;
    t.submit += root.end - root.start;
    t.serve_self += perfbench::self_time(root, children);
    t.decode += decode_ns;
    t.encode += encode_ns;

    if (!keep) return;
    const std::uint64_t id =
        serve::FrontendServer::make_query_id(query.client, query.seq);
    kept_.push_back({id, "serve.submit", "", root, false});
    kept_.push_back({id, "dns.decode", "", children[0], false});
    kept_.push_back({id, "dns.encode", "", children[1], false});
    for (const perfbench::Exchange& exchange : exchanges) {
      kept_.push_back(
          {id, "sim.exchange", exchange.to, exchange.span, exchange.timed_out});
    }
  }

  void keep_setup(const char* name, Interval span) {
    kept_.push_back({0, name, "", span, false});
  }

  [[nodiscard]] const LayerTotals& totals() const { return totals_; }
  [[nodiscard]] std::uint64_t unpaired() const {
    return pairer_.unpaired_responses();
  }
  [[nodiscard]] std::uint64_t codec_mismatches() const {
    return codec_mismatches_;
  }

  /// Writes the kept spans as JSON lines, times relative to the first span.
  bool write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    const std::uint64_t origin = kept_.empty() ? 0 : kept_.front().span.start;
    for (const SpanRecord& s : kept_) {
      out << "{\"query_id\":" << s.query_id << ",\"name\":\"" << s.name
          << "\",\"start_ns\":" << (s.span.start - origin)
          << ",\"end_ns\":" << (s.span.end - origin);
      if (!s.to.empty()) out << ",\"to\":\"" << s.to << "\"";
      if (s.timed_out) out << ",\"timed_out\":true";
      out << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  bool recording_ = false;
  std::string dlv_id_;
  perfbench::ExchangePairer pairer_;
  LayerTotals totals_;
  std::vector<SpanRecord> kept_;
  std::uint64_t codec_mismatches_ = 0;
};

// -- Passes and phases --------------------------------------------------------

/// The fixed inputs of one run.
struct Inputs {
  Shape shape;
  std::vector<workload::ClientQuery> schedule;
  std::vector<serve::WireQuery> wire;  // arrival times rewritten per pass
  std::vector<std::uint64_t> arrival_us;
  std::uint64_t pass_span_us = 0;      // virtual shift between replays
  Reference ref;
};

/// Moves the calling thread to the next allowed CPU, between submit()
/// calls, every half second. A shared host's CPUs change speed from second
/// to second as their sibling hyperthreads take on other load, so a run
/// that stayed on one CPU would report that CPU's luck; rotating gives each
/// query's repeats fresh draws.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof allowed_, &allowed_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed_)) cpus_.push_back(cpu);
    }
  }
  ~CpuRotation() { release(); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pins to the next CPU once half a second has passed since the last move.
  void pin_next() {
    if (cpus_.size() < 2) return;
    const std::uint64_t now = now_ns();
    if (moved_ns_ != 0 && now - moved_ns_ < 500'000'000) return;
    moved_ns_ = now;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }

  /// Back to every allowed CPU (stack builds run on worker threads, which
  /// inherit the caller's mask).
  void release() {
    if (cpus_.size() >= 2) sched_setaffinity(0, sizeof allowed_, &allowed_);
    moved_ns_ = 0;
  }

 private:
  cpu_set_t allowed_{};
  std::vector<int> cpus_;
  std::size_t next_ = 0;
  std::uint64_t moved_ns_ = 0;
};

struct PassStats {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Serves one pass. Each answered query's submit() time lowers its entry
/// in `fastest_ns` when it beats it.
PassStats serve_pass(Inputs& in,
                     const std::vector<serve::FrontendServer*>& route,
                     std::uint64_t shift_us, bool fresh, Checker& checker,
                     Tracing* tracing, bool keep_spans,
                     std::vector<std::uint64_t>& fastest_ns,
                     CpuRotation& rotation) {
  PassStats pass;
  if (tracing != nullptr) tracing->set_recording(true);
  for (std::size_t i = 0; i < in.wire.size(); ++i) {
    if (i % 64 == 0) rotation.pin_next();
    serve::WireQuery& query = in.wire[i];
    query.time_us = in.arrival_us[i] + shift_us;
    const std::uint64_t start = now_ns();
    const serve::Served served = route[i]->submit(query);
    const std::uint64_t end = now_ns();
    if (tracing != nullptr) {
      tracing->on_query(query, served, {start, end}, keep_spans);
    }
    pass.attempted += 1;
    if (checker.ok(i, served, fresh)) {
      fastest_ns[i] = std::min(fastest_ns[i], end - start);
    } else {
      pass.failed += 1;
    }
  }
  if (tracing != nullptr) tracing->set_recording(false);
  return pass;
}

struct Phase {
  std::size_t passes = 0;
  std::vector<std::uint64_t> fastest_ns;  // per query, over the passes
  metrics::CounterSet first_pass;  // counter deltas over the first pass
  std::uint64_t peak_bytes = 0;    // cache high-water mark after it
  std::uint64_t attempted = 0, failed = 0;
  std::set<std::string> problems;
};

/// Replays of a warmed stack are cache hits: they must leak nothing more.
void check_replays(const Target& target, const Inputs& in, Phase& phase) {
  if (leak_side(target.stacks()) != in.ref.leaks) {
    phase.problems.insert("replays changed the Case-2 total or leaked set");
  }
}

std::unique_ptr<Target> build_target(const Shape& shape,
                                     std::vector<double>& setup_s,
                                     Tracing* tracing) {
  const std::uint64_t start = now_ns();
  auto target = std::make_unique<Target>(shape);
  const std::uint64_t end = now_ns();
  setup_s.push_back(static_cast<double>(end - start) / 1e9);
  if (tracing != nullptr) {
    tracing->keep_setup("setup.stack", {start, end});
    tracing->attach(*target);
  }
  return target;
}

/// How long a warmed stack serves before it is replaced. Rebuilding spreads
/// the set-up samples over the run, and gives the replays of a query more
/// than one heap layout.
constexpr double kWarmStackSeconds = 2.0;

/// Serves passes until `seconds` of wall time have gone (at least
/// `min_passes`). Set-up, warm-up and checks happen between submit() calls
/// and are never inside a timed interval.
Phase run_phase(Inputs& in, double seconds, std::size_t min_passes,
                std::vector<double>& setup_s, Tracing* tracing) {
  Phase phase;
  phase.fastest_ns.assign(in.wire.size(), UINT64_MAX);
  Checker checker(in.ref);
  const std::uint64_t start = now_ns();
  std::unique_ptr<Target> target;
  std::vector<serve::FrontendServer*> route;
  std::uint64_t replay = 0;
  std::uint64_t built_ns = 0;
  CpuRotation rotation;
  while (phase.passes < min_passes || seconds_since(start) < seconds) {
    if (target == nullptr || !in.shape.warm ||
        seconds_since(built_ns) >= kWarmStackSeconds) {
      if (in.shape.warm && target != nullptr) check_replays(*target, in, phase);
      target.reset();
      rotation.release();
      target = build_target(in.shape, setup_s, tracing);
      built_ns = now_ns();
      route = target->route(in.schedule);
      replay = 0;
      rotation.pin_next();
      if (in.shape.warm) {
        std::vector<std::uint64_t> untimed(in.wire.size(), UINT64_MAX);
        const PassStats warm =
            serve_pass(in, route, 0, true, checker, nullptr, false, untimed,
                       rotation);
        if (warm.failed != 0) {
          phase.problems.insert("warm-up pass had failed queries");
        }
        if (leak_side(target->stacks()) != in.ref.leaks) {
          phase.problems.insert("warm-up Case-2 differs from reference");
        }
        replay = 1;
      }
    }
    const metrics::CounterSet before = snapshot(*target);
    const bool first = phase.passes == 0;
    const PassStats pass =
        serve_pass(in, route, replay * in.pass_span_us, replay == 0, checker,
                   tracing, first, phase.fastest_ns, rotation);
    ++replay;
    if (first) {
      const metrics::CounterSet after = snapshot(*target);
      phase.first_pass = after.delta_since(before);
      phase.peak_bytes = after.value("cache.peak_bytes");
    }
    ++phase.passes;
    phase.attempted += pass.attempted;
    phase.failed += pass.failed;
    if (!in.shape.warm) {
      const LeakSide leaks = leak_side(target->stacks());
      if (leaks != in.ref.leaks) {
        phase.problems.insert(
            "pass Case-2 " + std::to_string(leaks.case2) + " (" +
            std::to_string(leaks.leaked.size()) + " domains) differs from "
            "the reference's " + std::to_string(in.ref.leaks.case2) + " (" +
            std::to_string(in.ref.leaks.leaked.size()) + " domains)");
      }
    }
  }
  if (in.shape.warm) check_replays(*target, in, phase);
  return phase;
}

// -- Unit costs ---------------------------------------------------------------

/// Median over `batches` of the mean host ns per call of `op`.
template <typename Op>
double unit_ns(int batches, int per_batch, Op op) {
  std::vector<double> means;
  for (int b = 0; b < batches; ++b) {
    const std::uint64_t start = now_ns();
    for (int i = 0; i < per_batch; ++i) op();
    means.push_back(static_cast<double>(now_ns() - start) / per_batch);
  }
  return perfbench::median(means);
}

struct UnitCosts {
  double rsa_verify_ns = 0, rsa_sign_ns = 0, sha1_ns = 0;
};

/// Times the public crypto calls the layers make, on the world's own SLD
/// keys and the workload's NSEC3 salt. Empty if a verification fails.
std::optional<UnitCosts> time_crypto(workload::UniverseWorld& world,
                                     const Shape& shape,
                                     const dns::Name& sample) {
  const zone::ZoneKeys& keys = world.sld_keys().keys_for(0);
  crypto::Bytes message(96);
  for (std::size_t i = 0; i < message.size(); ++i) {
    message[i] = static_cast<std::uint8_t>(i * 37 + 11);
  }
  const crypto::Bytes signature =
      crypto::sign_message(keys.zsk_private(), message);
  UnitCosts costs;
  bool verified = true;
  costs.rsa_verify_ns = unit_ns(5, 200, [&] {
    verified = crypto::verify_message(keys.zsk_private().public_key(),
                                      message, signature) &&
               verified;
  });
  crypto::Bytes output;
  costs.rsa_sign_ns = unit_ns(5, 40, [&] {
    output = crypto::sign_message(keys.zsk_private(), message);
  });
  verified = verified && output == signature;
  constexpr std::uint16_t kIterations = 100;
  costs.sha1_ns = unit_ns(5, 40, [&] {
                    output = zone::nsec3_hash(
                        sample, shape.options.dlv.nsec3_salt, kIterations);
                  }) /
                  static_cast<double>(zone::nsec3_hash_ops(kIterations));
  if (!verified || output.size() != crypto::Sha1::kDigestSize) {
    return std::nullopt;
  }
  return costs;
}

/// Builds a UniverseWorld with the options ServeStack derives (kept in step
/// with serve/scenario.cpp by hand).
std::unique_ptr<workload::UniverseWorld> build_world(
    const serve::ScenarioOptions& options) {
  workload::WorldOptions world;
  world.universe.size = options.universe_size;
  world.universe.seed = options.seed;
  world.seed = crypto::derive_seed(options.seed, 0x0F0F);
  world.dlv = options.dlv;
  world.deposit_scan_limit = options.universe_size;
  return std::make_unique<workload::UniverseWorld>(world);
}

// -- Output -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

double ratio(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

#if defined(__clang__)
constexpr const char* kCompiler = "clang ";
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc ";
#else
constexpr const char* kCompiler = "";
#endif

bool optimized_build() {
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  return true;
#else
  return false;
#endif
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string trace_out;
};

std::optional<Args> parse(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value);
      } else if (flag == "--trace-out") {
        args.trace_out = value;
      } else {
        return std::nullopt;
      }
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || args.workload.empty() || !have_seed ||
      args.seconds <= 0 || (args.trace != 0 && args.trace != 1)) {
    return std::nullopt;
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse(argc, argv);
  if (!args) {
    std::cerr << "usage: serve_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-out PATH]\n";
    return 2;
  }
  std::optional<Shape> shape = make_shape(args->workload, args->seed);
  if (!shape) {
    std::cerr << "unknown workload " << args->workload << "\n";
    return 2;
  }
  std::cout << "provenance {\"hardware_concurrency\": "
            << std::thread::hardware_concurrency() << ", \"compiler\": \""
            << kCompiler << __VERSION__ << "\", \"cplusplus\": " << __cplusplus
            << ", \"optimized\": " << (optimized_build() ? "true" : "false")
            << "}\n";
  if (!optimized_build()) {
    std::cerr << "refusing to report timings from an unoptimised build\n";
    return 3;
  }

  // Inputs: the schedule is generated from the seed; the program under test
  // only ever receives its wire encoding.
  Inputs in;
  in.shape = *shape;
  std::vector<double> setup_s;
  std::set<std::string> problems;
  {
    serve::ServeStack reference_stack(in.shape.options, nullptr, nullptr,
                                      nullptr, 0, std::string());
    in.schedule = workload::ClientMix(in.shape.options.mix)
                      .generate(reference_stack.world->universe());
    if (in.shape.distinct_keys) in.schedule = first_of_each_key(in.schedule);
    in.ref = run_reference(reference_stack, in.schedule);
  }
  if (in.schedule.empty()) {
    std::cerr << "empty schedule\n";
    return 2;
  }
  in.wire = serve::encode_schedule(in.schedule);
  for (const serve::WireQuery& query : in.wire) {
    in.arrival_us.push_back(query.time_us);
  }
  // Replays start well after the previous pass's last fan-out instant.
  in.pass_span_us = in.arrival_us.back() + 600'000'000ULL;
  std::cout << "workload " << args->workload << " seed " << args->seed
            << " queries_per_pass " << in.wire.size() << " case2_total "
            << in.ref.leaks.case2 << " leaked_domains "
            << in.ref.leaks.leaked.size() << "\n";

  constexpr std::size_t kMinPasses = 3;
  constexpr std::size_t kMinSetups = 7;
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const auto absorb = [&](const Phase& phase) {
    attempted += phase.attempted;
    failed += phase.failed;
    problems.insert(phase.problems.begin(), phase.problems.end());
  };

  if (args->trace == 0) {
    const Phase phase =
        run_phase(in, args->seconds, kMinPasses, setup_s, nullptr);
    absorb(phase);
    while (setup_s.size() < kMinSetups) build_target(in.shape, setup_s, nullptr);
    const std::optional<Figures> f = perfbench::figures_of(phase.fastest_ns);
    if (!f) {
      problems.insert("too few queries answered to support a p99");
    } else {
      metrics = {{"qps", f->qps, "1/s"},
                 {"p50_us", f->p50_us, "us"},
                 {"p99_us", f->p99_us, "us"},
                 {"setup_s", perfbench::median(setup_s), "s"},
                 {"peak_rss_mb", peak_rss_mb(), "MB"}};
    }
    std::cout << "passes " << phase.passes << " samples_per_pass "
              << in.wire.size() << " setups " << setup_s.size()
              << " fail_ratio " << number(ratio(failed, attempted)) << "\n";
  } else {
    const Phase plain =
        run_phase(in, args->seconds / 2, kMinPasses, setup_s, nullptr);
    absorb(plain);
    Tracing tracing;
    std::vector<double> traced_setup_s;
    const Phase traced = run_phase(in, args->seconds / 2, kMinPasses,
                                   traced_setup_s, &tracing);
    absorb(traced);
    const std::optional<Figures> plain_f =
        perfbench::figures_of(plain.fastest_ns);
    const std::optional<Figures> traced_f =
        perfbench::figures_of(traced.fastest_ns);

    const std::uint64_t world_start = now_ns();
    const std::unique_ptr<workload::UniverseWorld> world =
        build_world(in.shape.options);
    const double world_s = seconds_since(world_start);
    tracing.keep_setup("setup.world", {world_start, now_ns()});
    const std::optional<UnitCosts> timed_unit =
        time_crypto(*world, in.shape, in.schedule.front().name);
    if (!timed_unit) problems.insert("crypto unit-cost calls gave wrong results");
    const UnitCosts unit = timed_unit.value_or(UnitCosts{});

    const LayerTotals& t = tracing.totals();
    const double q = static_cast<double>(std::max<std::uint64_t>(t.queries, 1));
    const metrics::CounterSet& c = traced.first_pass;
    const auto count = [&c](const char* name) {
      return static_cast<double>(c.value(name));
    };
    const double pass_queries = static_cast<double>(in.wire.size());
    const double layer_sum = static_cast<double>(t.serve_self + t.decode +
                                                 t.encode + t.server + t.dlv);
    const double layer_dev =
        t.submit == 0 ? 1.0
                      : layer_sum / static_cast<double>(t.submit) - 1.0;
    if (layer_dev > 0.10 || layer_dev < -0.10) {
      problems.insert("layer self-times do not sum to serve.submit");
    }
    if (tracing.unpaired() != 0 || tracing.codec_mismatches() != 0) {
      problems.insert("trace saw unpaired responses or codec mismatches");
    }
    if (!plain_f || !traced_f) {
      problems.insert("too few queries answered to support a p99");
    }
    const double overhead_pct =
        plain_f && traced_f ? 100.0 * (plain_f->qps - traced_f->qps) / plain_f->qps
                            : 0.0;
    metrics = {
        {"serve.submit_ns", static_cast<double>(t.submit) / q, "ns"},
        {"serve.self_ns", static_cast<double>(t.serve_self) / q, "ns"},
        {"serve.coalesce_rate",
         ratio(c.value("serve.coalesce.hits"),
               c.value("serve.coalesce.hits") +
                   c.value("serve.coalesce.misses")),
         "ratio"},
        {"serve.shed", count("serve.shed"), "count"},
        {"dns.decode_ns", static_cast<double>(t.decode) / q, "ns"},
        {"dns.encode_ns", static_cast<double>(t.encode) / q, "ns"},
        {"cache.hit_ratio",
         ratio(c.value("cache.hit"),
               c.value("cache.hit") + c.value("cache.miss")),
         "ratio"},
        {"cache.miss", count("cache.miss"), "count"},
        {"cache.evicted", count("cache.evicted"), "count"},
        {"cache.expired_swept", count("cache.expired_swept"), "count"},
        {"cache.peak_bytes", static_cast<double>(traced.peak_bytes), "bytes"},
        {"validator.rsa_verifies", count("validator.rsa_verifies"), "count"},
        {"validator.rsa_skipped", count("validator.rsa_skipped"), "count"},
        {"validator.nsec3_hash_ops", count("validator.nsec3_hash_ops"),
         "count"},
        {"validator.est_ns",
         (count("validator.rsa_verifies") * unit.rsa_verify_ns +
          count("validator.nsec3_hash_ops") * unit.sha1_ns) /
             pass_queries,
         "ns"},
        {"crypto.rsa_verify_ns", unit.rsa_verify_ns, "ns"},
        {"crypto.rsa_sign_ns", unit.rsa_sign_ns, "ns"},
        {"crypto.sha1_ns", unit.sha1_ns, "ns"},
        {"server.answer_ns", static_cast<double>(t.server) / q, "ns"},
        {"server.exchanges", count("server.exchanges"), "count"},
        {"dlv.answer_ns", static_cast<double>(t.dlv) / q, "ns"},
        {"dlv.queries", count("dlv.queries"), "count"},
        {"dlv.case2", count("dlv.case2"), "count"},
        {"sim.exchanges", count("sim.exchanges"), "count"},
        {"sim.bytes_total", count("sim.bytes_total"), "bytes"},
        {"store.nsec_hits", count("store.nsec_hits"), "count"},
        {"store.cut_hits", count("store.cut_hits"), "count"},
        {"store.sibling_ratio",
         ratio(c.value("store.sibling_hits"),
               c.value("store.nsec_hits") + c.value("store.cut_hits")),
         "ratio"},
        {"setup.world_s", world_s, "s"},
        {"setup.stack_s", perfbench::median(traced_setup_s), "s"},
        {"trace.overhead_pct", overhead_pct, "%"},
    };
    std::cout << "traced_queries " << t.queries << " timed_out_exchanges "
              << t.timed_out << " layer_sum_deviation_pct "
              << number(100.0 * layer_dev) << " fail_ratio "
              << number(ratio(failed, attempted)) << "\n";
    if (!args->trace_out.empty() && !tracing.write(args->trace_out)) {
      problems.insert("could not write " + args->trace_out);
    }
  }

  for (const Metric& m : metrics) {
    std::cout << "metric " << m.name << " " << number(m.value) << " " << m.unit
              << "\n";
  }
  for (const std::string& problem : problems) {
    std::cout << "FAIL " << problem << "\n";
  }
  const bool correct = problems.empty() && failed == 0 && attempted > 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
              << "\": {\"value\": " << number(metrics[i].value)
              << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}
