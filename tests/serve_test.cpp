// Serving-frontend tests: query coalescing (two waiters, one upstream
// resolution), post-completion misses, fault-driven SERVFAIL fan-out,
// admission control, FORMERR handling, plain-stub stripping, and the
// scenario-level identity between the coalescing frontend (a one-shard
// serving run) and the sequential reference model.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <sstream>

#include "dlv/registry.h"
#include "obs/leak_ledger.h"
#include "obs/span_timeline.h"
#include "obs/tracer.h"
#include "resolver/resolver.h"
#include "serve/frontend.h"
#include "serve/sharded.h"
#include "server/testbed.h"
#include "sim/clock.h"

namespace lookaside {
namespace {

using resolver::RecursiveResolver;
using resolver::ResolverConfig;
using serve::FrontendOptions;
using serve::FrontendServer;
using serve::ScenarioOptions;
using serve::ScenarioSummary;
using serve::Served;
using serve::WireQuery;

dns::Bytes wire_query(const std::string& name, dns::RRType type,
                      std::uint16_t id, bool dnssec_ok = true) {
  return dns::encode_message(
      dns::Message::make_query(id, dns::Name::parse(name), type,
                               /*recursion_desired=*/true, dnssec_ok));
}

/// Full serving stack on the small integration testbed.
class ServeFixture {
 public:
  explicit ServeFixture(FrontendOptions options = {},
                        ResolverConfig config = ResolverConfig::bind_yum())
      : network_(clock_),
        testbed_(server::TestbedOptions{},
                 {
                     {"unsigned.com", false, false, false, {"www"}},
                     {"another.com", false, false, false, {}},
                     {"chained.com", true, true, false, {}},
                     {"island.com", true, false, false, {}},
                 }),
        registry_(dlv::DlvRegistry::Options{}) {
    registry_.attach_clock(clock_);
    registry_.deposit(dns::Name::parse("island.com"),
                      testbed_.signed_sld("island.com")->ds_for_parent());
    testbed_.directory().register_zone(
        registry_.apex(),
        std::shared_ptr<sim::Endpoint>(&registry_, [](sim::Endpoint*) {}));
    resolver_ = std::make_unique<RecursiveResolver>(
        network_, testbed_.directory(), std::move(config));
    resolver_->set_root_trust_anchor(testbed_.root_trust_anchor());
    resolver_->set_dlv_trust_anchor(registry_.trust_anchor());
    frontend_ =
        std::make_unique<FrontendServer>(network_, *resolver_, options);
    frontend_->set_registry(&registry_);
  }

  Served submit(std::uint64_t time_us, std::uint32_t client,
                const std::string& name,
                dns::RRType type = dns::RRType::kA) {
    const auto id = static_cast<std::uint16_t>(0x4000 + client);
    return frontend_->submit(
        {time_us, client, client, wire_query(name, type, id)});
  }

  sim::SimClock clock_;
  sim::Network network_;
  server::Testbed testbed_;
  dlv::DlvRegistry registry_;
  std::unique_ptr<RecursiveResolver> resolver_;
  std::unique_ptr<FrontendServer> frontend_;
};

TEST(ServeTest, TwoWaitersShareOneUpstreamResolution) {
  ServeFixture fixture;
  const Served first = fixture.submit(0, 0, "island.com");
  EXPECT_FALSE(first.coalesced);
  EXPECT_EQ(first.rcode, dns::RCode::kNoError);
  EXPECT_GT(first.completion_us, first.arrival_us);

  const std::uint64_t upstream_packets =
      fixture.network_.counters().value("packets.query");
  const std::uint64_t registry_queries = fixture.registry_.total_queries();

  // Second client asks the same name while the first resolution is still
  // logically in flight: it must join it, not resolve again.
  const Served second = fixture.submit(5'000, 1, "island.com");
  EXPECT_TRUE(second.coalesced);
  EXPECT_EQ(second.rcode, dns::RCode::kNoError);
  EXPECT_EQ(second.completion_us, first.completion_us);
  EXPECT_EQ(fixture.network_.counters().value("packets.query"),
            upstream_packets);
  EXPECT_EQ(fixture.registry_.total_queries(), registry_queries);
  EXPECT_EQ(fixture.frontend_->stats().value("serve.coalesce.hits"), 1u);
  EXPECT_EQ(fixture.frontend_->stats().value("serve.coalesce.misses"), 1u);
  EXPECT_EQ(fixture.frontend_->clients()[1].coalesce_hits, 1u);
  // Only the initiator is charged for the leak-side effects.
  EXPECT_EQ(fixture.frontend_->clients()[1].case2_leaks, 0u);
}

TEST(ServeTest, WaiterAfterCompletionMissesAndHitsTheCache) {
  ServeFixture fixture;
  const Served first = fixture.submit(0, 0, "island.com");
  // Arrives well after the fan-out instant: the in-flight entry is retired,
  // so this is a fresh (cache-served) resolution, not a coalesce hit.
  const Served late = fixture.submit(first.completion_us + 1'000'000, 1,
                                     "island.com");
  EXPECT_FALSE(late.coalesced);
  EXPECT_TRUE(late.from_cache);
  EXPECT_EQ(late.rcode, dns::RCode::kNoError);
  EXPECT_EQ(fixture.frontend_->stats().value("serve.coalesce.hits"), 0u);
  EXPECT_EQ(fixture.frontend_->stats().value("serve.coalesce.misses"), 2u);
}

TEST(ServeTest, UpstreamTimeoutFansServfailToAllWaiters) {
  ServeFixture fixture;
  fixture.network_.set_unreachable("root", true);
  const Served first = fixture.submit(0, 0, "unsigned.com");
  const Served second = fixture.submit(2'000, 1, "unsigned.com");
  EXPECT_EQ(first.rcode, dns::RCode::kServFail);
  EXPECT_TRUE(second.coalesced);
  EXPECT_EQ(second.rcode, dns::RCode::kServFail);
  EXPECT_EQ(second.completion_us, first.completion_us);
}

TEST(ServeTest, AdmissionControlShedsWithServfail) {
  ServeFixture fixture(FrontendOptions{.max_pending = 1});
  const Served first = fixture.submit(0, 0, "island.com");
  EXPECT_FALSE(first.overload_drop);
  // A different name cannot coalesce and the queue is full: shed.
  const Served shed = fixture.submit(1'000, 1, "unsigned.com");
  EXPECT_TRUE(shed.overload_drop);
  EXPECT_EQ(shed.rcode, dns::RCode::kServFail);
  EXPECT_EQ(shed.completion_us, shed.arrival_us);
  EXPECT_EQ(fixture.frontend_->stats().value("serve.overload.drops"), 1u);
  EXPECT_EQ(fixture.frontend_->clients()[1].overload_drops, 1u);
  // An identical query still coalesces even at the admission limit — it
  // consumes no new upstream work.
  const Served joined = fixture.submit(1'500, 2, "island.com");
  EXPECT_TRUE(joined.coalesced);
  // After the fan-out instant the queue drains and admission reopens.
  const Served after =
      fixture.submit(first.completion_us + 1, 1, "unsigned.com");
  EXPECT_FALSE(after.overload_drop);
  EXPECT_EQ(after.rcode, dns::RCode::kNoError);
  EXPECT_EQ(fixture.frontend_->max_queue_depth(), 2u);
}

TEST(ServeTest, MalformedWireGetsFormerr) {
  ServeFixture fixture;
  const Served garbage =
      fixture.frontend_->submit({0, 0, 0, dns::Bytes{0xde, 0xad, 0xbe}});
  EXPECT_TRUE(garbage.formerr);
  EXPECT_EQ(garbage.rcode, dns::RCode::kFormErr);
  // The FORMERR response echoes the two id bytes that did arrive.
  const dns::Message response = dns::decode_message(garbage.response_wire);
  EXPECT_EQ(response.header.id, 0xdead);
  EXPECT_TRUE(response.header.qr);

  // A structurally valid message without a question is equally unusable.
  dns::Message empty;
  empty.header.id = 7;
  const Served no_question =
      fixture.frontend_->submit({10, 1, 0, dns::encode_message(empty)});
  EXPECT_TRUE(no_question.formerr);
  EXPECT_EQ(fixture.frontend_->stats().value("serve.formerr"), 2u);
}

TEST(ServeTest, PlainStubResponsesAreStripped) {
  ServeFixture fixture;
  const Served plain = fixture.frontend_->submit(
      {0, 0, 0, wire_query("chained.com", dns::RRType::kA, 1,
                           /*dnssec_ok=*/false)});
  const dns::Message response = dns::decode_message(plain.response_wire);
  EXPECT_FALSE(response.header.ad);
  EXPECT_FALSE(response.dnssec_ok);
  for (const dns::ResourceRecord& record : response.answers) {
    EXPECT_NE(record.type, dns::RRType::kRrsig);
  }

  // A DO=1 stub coalescing onto the same (cached) data keeps signatures.
  const Served aware = fixture.frontend_->submit(
      {10'000'000, 1, 0, wire_query("chained.com", dns::RRType::kA, 2)});
  const dns::Message full = dns::decode_message(aware.response_wire);
  EXPECT_TRUE(full.header.ad);
  EXPECT_NE(full.first_answer(dns::RRType::kRrsig), nullptr);
}

ScenarioOptions small_scenario() {
  ScenarioOptions options;
  options.universe_size = 2'000;
  options.seed = 11;
  options.mix.clients = 6;
  options.mix.queries_per_client = 25;
  options.mix.zipf_support = 300;  // heavy head overlap across clients
  // Keep offered load below capacity (Little's law: depth ~ rate x ~200 ms
  // resolution occupancy). The identity contract below only covers
  // drop-free schedules — a shed query resolves in the reference model but
  // never upstream in the frontend.
  options.mix.mean_gap_us = 150'000;
  options.mix.seed = 23;
  return options;
}

/// One shared resolver behind the frontend: a one-shard serving run.
ScenarioSummary serve_one(ScenarioOptions options,
                          obs::Tracer* tracer = nullptr) {
  serve::ShardedOptions sharded;
  sharded.base = std::move(options);
  sharded.shard_tracers = {tracer};
  return serve::ShardedServeScenario(std::move(sharded)).run().merged;
}

TEST(ServeScenarioTest, CoalescedRunLeaksExactlyWhatSequentialWould) {
  ScenarioSummary coalesced = serve_one(small_scenario());
  ScenarioSummary reference = serve::run_sequential_reference(small_scenario());

  // The overlapping Zipf head must actually produce sharing, or this test
  // proves nothing — and nothing may be shed, or the comparison is void.
  EXPECT_GT(coalesced.coalesce_hits, 0u);
  EXPECT_GT(coalesced.coalesce_rate(), 0.0);
  EXPECT_EQ(coalesced.overload_drops, 0u);

  // Coalescing must not change what reaches the DLV registry: same Case-2
  // totals, same leaked-domain identity.
  EXPECT_EQ(coalesced.case2_total, reference.case2_total);
  EXPECT_EQ(coalesced.distinct_leaked, reference.distinct_leaked);
  EXPECT_EQ(coalesced.leaked_domains, reference.leaked_domains);

  // Per-client attribution is complete: every registry-observed Case-2
  // query is charged to exactly one client.
  const std::uint64_t attributed =
      std::accumulate(coalesced.case2_per_client.begin(),
                      coalesced.case2_per_client.end(), std::uint64_t{0});
  EXPECT_EQ(attributed, coalesced.case2_total);
}

TEST(ServeTest, BoundedSharedCacheStaysUnderCapAcrossClients) {
  // Every client behind the frontend populates one shared resolver cache;
  // a configured cap must hold its footprint down (evicting under
  // pressure) without breaking service.
  ResolverConfig config = ResolverConfig::bind_yum();
  config.max_cache_bytes = 2 * 1024;
  ServeFixture fixture(FrontendOptions{}, config);
  std::uint64_t t = 0;
  const char* names[] = {"island.com", "unsigned.com", "another.com",
                         "chained.com", "www.unsigned.com"};
  for (int round = 0; round < 20; ++round) {
    for (std::uint32_t client = 0; client < 4; ++client) {
      const Served served = fixture.submit(
          t, client, names[(round + client) % 5],
          round % 2 == 0 ? dns::RRType::kA : dns::RRType::kTxt);
      t = served.completion_us + 400'000;
    }
  }
  const resolver::ResolverCache& cache = fixture.resolver_->cache();
  EXPECT_LE(cache.bytes(), config.max_cache_bytes);
  EXPECT_GT(cache.peak_bytes(), 0u);
}

TEST(ServeTraceTest, CoalescedResolutionRecordsEveryWaiterAsParent) {
  // N identical concurrent queries -> one resolver span whose recorded
  // parentage names all N frontend spans: the initiator via the stub_query
  // parent stamp, each waiter via its coalesce_join event.
  ServeFixture fixture;
  obs::Tracer tracer;
  tracer.attach_clock(fixture.clock_);
  tracer.attach_network(fixture.network_);
  auto timeline = std::make_shared<obs::TimelineSink>();
  tracer.add_sink(timeline);
  fixture.resolver_->set_tracer(&tracer);
  fixture.frontend_->set_tracer(&tracer);
  fixture.registry_.set_tracer(&tracer);

  const Served first = fixture.submit(0, 0, "island.com");
  ASSERT_FALSE(first.coalesced);
  const Served second = fixture.submit(2'000, 1, "island.com");
  const Served third = fixture.submit(4'000, 2, "island.com");
  ASSERT_TRUE(second.coalesced);
  ASSERT_TRUE(third.coalesced);

  ASSERT_EQ(timeline->timeline().spans().size(), 1u);
  const obs::ResolutionSpan& span = timeline->timeline().spans().front();
  ASSERT_EQ(timeline->timeline().client_spans().size(), 3u);
  ASSERT_EQ(span.parent_span_ids.size(), 3u);
  for (const obs::ClientQuerySpan& client : timeline->timeline().client_spans()) {
    EXPECT_TRUE(client.closed);
    EXPECT_EQ(client.resolver_span_id, span.span_id);
    EXPECT_EQ(std::count(span.parent_span_ids.begin(),
                         span.parent_span_ids.end(), client.span_id),
              1);
  }
  // Trace context survives the whole chain: the span carries the
  // initiator's query_id and the 1-based client tag.
  EXPECT_EQ(span.query_id, serve::FrontendServer::make_query_id(0, 0));
  EXPECT_EQ(span.client, 1u);
}

TEST(ServeTraceTest, LedgerAgreesWithScenarioCase2Accounting) {
  obs::Tracer tracer;
  auto ledger = std::make_shared<obs::LeakLedger>();
  auto timeline = std::make_shared<obs::TimelineSink>();
  tracer.add_sink(ledger);
  tracer.add_sink(timeline);

  const ScenarioSummary summary = serve_one(small_scenario(), &tracer);

  EXPECT_GT(summary.case2_total, 0u);
  EXPECT_EQ(ledger->case2_total(), summary.case2_total);
  // Every ledger record chains query -> frontend span -> resolver span ->
  // a hop that actually reached the DLV registry vantage it names.
  EXPECT_EQ(obs::broken_leak_chains(timeline->timeline(), ledger->records()),
            0u);
  // Per-client attribution agrees record-by-record with the frontend's
  // own accounting (records carry 1-based client tags).
  std::vector<std::uint64_t> per_client(summary.case2_per_client.size(), 0);
  for (const obs::LeakRecord& record : ledger->records()) {
    ASSERT_GT(record.client, 0u);
    ASSERT_LE(record.client, per_client.size());
    per_client[record.client - 1] += 1;
  }
  EXPECT_EQ(per_client, summary.case2_per_client);
}

TEST(ServeTraceTest, ProfilesAndLedgerAreRunToRunIdentical) {
  // The per-query profile and ledger JSONL must be pure functions of the
  // schedule — byte-identical across independent runs (the cross---jobs
  // byte-identity in the bench drivers reduces to exactly this plus
  // in-order shard merging).
  const auto capture = [] {
    obs::Tracer tracer;
    auto ledger = std::make_shared<obs::LeakLedger>();
    auto timeline = std::make_shared<obs::TimelineSink>();
    tracer.add_sink(ledger);
    tracer.add_sink(timeline);
    (void)serve_one(small_scenario(), &tracer);

    std::string blob;
    for (const obs::QueryProfile& profile :
         timeline->timeline().query_profiles()) {
      blob += obs::profile_jsonl(profile);
      blob += "\n";
    }
    std::ostringstream records;
    ledger->write_jsonl(records);
    blob += records.str();
    return blob;
  };
  const std::string first = capture();
  const std::string second = capture();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(ServeScenarioTest, RunsAreDeterministic) {
  const ScenarioSummary a = serve_one(small_scenario());
  const ScenarioSummary b = serve_one(small_scenario());
  EXPECT_EQ(a.served, b.served);
  EXPECT_EQ(a.coalesce_hits, b.coalesce_hits);
  EXPECT_EQ(a.coalesce_misses, b.coalesce_misses);
  EXPECT_EQ(a.case2_total, b.case2_total);
  EXPECT_EQ(a.case2_per_client, b.case2_per_client);
  EXPECT_EQ(a.leaked_domains, b.leaked_domains);
  EXPECT_EQ(a.p50_ms, b.p50_ms);
  EXPECT_EQ(a.p99_ms, b.p99_ms);
  EXPECT_EQ(a.qps, b.qps);
}

}  // namespace
}  // namespace lookaside
