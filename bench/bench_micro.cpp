// Micro-benchmarks (google-benchmark) for the substrate hot paths: hashing,
// RSA, name canonicalization, the wire codec, caches, and full resolutions.
// Not a paper artifact — these guard the simulator's own performance.
#include <benchmark/benchmark.h>

#include "crypto/bigint.h"
#include "crypto/rsa.h"
#include "crypto/sha256.h"
#include "crypto/verify_batch.h"
#include "dns/name_arena.h"
#include "dlv/registry.h"
#include "dns/codec.h"
#include "resolver/cache.h"
#include "resolver/resolver.h"
#include "server/testbed.h"
#include "workload/stub.h"
#include "workload/universe_world.h"
#include "zone/nsec3.h"

namespace {

using namespace lookaside;

void BM_Sha256_1KiB(benchmark::State& state) {
  const crypto::Bytes data(1024, 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::digest(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Sha256_1KiB);

void BM_Nsec3Hash100(benchmark::State& state) {
  // One NSEC3 owner hash at 100 iterations: 101 SHA-1 calls (RFC 5155 §5).
  const dns::Name name = dns::Name::parse("example.dlv.isc.org");
  const crypto::Bytes salt = {0xaa, 0xbb, 0xcc, 0xdd};
  for (auto _ : state) {
    benchmark::DoNotOptimize(zone::nsec3_hash(name, salt, 100));
  }
}
BENCHMARK(BM_Nsec3Hash100);

void BM_RsaSign256(benchmark::State& state) {
  crypto::SplitMix64 rng(1);
  const auto kp = crypto::generate_rsa_keypair(256, rng);
  const auto digest = crypto::Sha256::digest("bench");
  for (auto _ : state) {
    benchmark::DoNotOptimize(kp.private_key.sign_digest(digest));
  }
}
BENCHMARK(BM_RsaSign256);

void BM_RsaVerify256(benchmark::State& state) {
  crypto::SplitMix64 rng(1);
  const auto kp = crypto::generate_rsa_keypair(256, rng);
  const auto digest = crypto::Sha256::digest("bench");
  const auto sig = kp.private_key.sign_digest(digest);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kp.public_key.verify_digest(digest, sig));
  }
}
BENCHMARK(BM_RsaVerify256);

void BM_RsaSign512(benchmark::State& state) {
  crypto::SplitMix64 rng(1);
  const auto kp = crypto::generate_rsa_keypair(512, rng);
  const auto digest = crypto::Sha256::digest("bench");
  for (auto _ : state) {
    benchmark::DoNotOptimize(kp.private_key.sign_digest(digest));
  }
}
BENCHMARK(BM_RsaSign512);

void BM_DivMod512By256(benchmark::State& state) {
  // The division behind BigUint::mod: Montgomery setup (R^2 mod n), the CRT
  // reduction of a signature input mod p, and keygen's inverses.
  crypto::SplitMix64 rng(1);
  crypto::Bytes dividend(64);
  crypto::Bytes divisor(32);
  rng.fill(dividend);
  rng.fill(divisor);
  divisor[0] |= 0x80;
  const auto a = crypto::BigUint::from_bytes_be(dividend);
  const auto b = crypto::BigUint::from_bytes_be(divisor);
  crypto::BigUint quotient;
  crypto::BigUint remainder;
  for (auto _ : state) {
    crypto::BigUint::divmod(a, b, quotient, remainder);
    benchmark::DoNotOptimize(quotient);
    benchmark::DoNotOptimize(remainder);
  }
}
BENCHMARK(BM_DivMod512By256);

void BM_NameParse(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(dns::Name::parse("www.some-domain-name.example.com"));
  }
}
BENCHMARK(BM_NameParse);

void BM_NameCanonicalCompare(benchmark::State& state) {
  const dns::Name a = dns::Name::parse("alpha.example.com.dlv.isc.org");
  const dns::Name b = dns::Name::parse("omega.example.net.dlv.isc.org");
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.canonical_compare(b));
  }
}
BENCHMARK(BM_NameCanonicalCompare);

dns::Message sample_response() {
  dns::Message message = dns::Message::make_response(dns::Message::make_query(
      1, dns::Name::parse("example.com"), dns::RRType::kA, true, true));
  const dns::Name owner = dns::Name::parse("example.com");
  message.answers.push_back(
      dns::ResourceRecord::make(owner, 300, dns::ARdata{0x01020304}));
  dns::RrsigRdata sig;
  sig.type_covered = dns::RRType::kA;
  sig.signer = owner;
  sig.signature = dns::Bytes(32, 0x55);
  message.answers.push_back(dns::ResourceRecord::make(owner, 300, sig));
  message.authorities.push_back(dns::ResourceRecord::make(
      owner, 3600, dns::NsRdata{dns::Name::parse("ns1.example.com")}));
  return message;
}

void BM_MessageEncode(benchmark::State& state) {
  const dns::Message message = sample_response();
  for (auto _ : state) {
    benchmark::DoNotOptimize(dns::encode_message(message));
  }
}
BENCHMARK(BM_MessageEncode);

void BM_MessageDecode(benchmark::State& state) {
  const dns::Bytes wire = dns::encode_message(sample_response());
  for (auto _ : state) {
    benchmark::DoNotOptimize(dns::decode_message(wire));
  }
}
BENCHMARK(BM_MessageDecode);

void BM_NameHash(benchmark::State& state) {
  // The hash is memoized at construction; this measures the probe-time
  // cost cache lookups actually pay (a field read, not an FNV pass).
  const dns::Name name = dns::Name::parse("www.some-domain-name.example.com");
  for (auto _ : state) {
    benchmark::DoNotOptimize(name.hash());
  }
}
BENCHMARK(BM_NameHash);

void BM_NameIntern(benchmark::State& state) {
  // Steady-state intern: every name is already in the arena, so this is
  // the dedup path (one retuned-map probe + an id return) that store_nsec
  // and rrsig_for pay per repeated owner.
  dns::NameArena arena;
  std::vector<dns::Name> names;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    names.push_back(
        dns::Name::parse("host" + std::to_string(i) + ".example.com"));
    (void)arena.intern(names.back());
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(arena.intern(names[i]));
    i = (i + 1) % names.size();
  }
}
BENCHMARK(BM_NameIntern)->Arg(100)->Arg(10000);

void BM_ProbeHit_arena(benchmark::State& state) {
  // The bare retuned NameHashMap probe (control-byte prefilter + one Slot
  // load), measured through the arena's find(): no cache sections, no TTL
  // checks — the floor the <30ns probe-hit target is judged against.
  dns::NameArena arena;
  std::vector<dns::Name> names;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    names.push_back(
        dns::Name::parse("host" + std::to_string(i) + ".example.com"));
    (void)arena.intern(names.back());
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(arena.find(names[i]));
    i = (i + 1) % names.size();
  }
}
BENCHMARK(BM_ProbeHit_arena)->Arg(100)->Arg(10000);

void BM_RsaBatch(benchmark::State& state) {
  // A deduped verification: the batch memo hit that replaces a full RSA
  // verify when the same (signed data, signature, key) repeats within one
  // resolve step. Compare against BM_RsaVerify256 for the per-repeat win.
  crypto::VerifyBatch batch;
  crypto::VerifyBatchScope scope(batch);
  for (std::uint64_t k = 0; k < 64; ++k) batch.record(k * 0x9E3779B97F4A7C15ULL, true);
  std::uint64_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(batch.lookup(k * 0x9E3779B97F4A7C15ULL));
    k = (k + 1) % 64;
  }
}
BENCHMARK(BM_RsaBatch);

void BM_CacheProbe_Hit(benchmark::State& state) {
  sim::SimClock clock;
  resolver::ResolverCache cache(clock);
  std::vector<dns::Name> names;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    names.push_back(dns::Name::parse("host" + std::to_string(i) + ".example.com"));
    dns::RRset rrset(names.back(), dns::RRType::kA);
    rrset.add(dns::ResourceRecord::make(names.back(), 3600,
                                        dns::ARdata{0x01020304}));
    cache.store(rrset, /*validated=*/false);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.find(names[i], dns::RRType::kA));
    i = (i + 1) % names.size();
  }
}
BENCHMARK(BM_CacheProbe_Hit)->Arg(100)->Arg(10000);

void BM_CacheProbe_NegativeNsecCover(benchmark::State& state) {
  // One hash probe to the zone chain, then an ordered predecessor query:
  // the fast path the aggressive NSEC cache takes for every suppressed
  // DLV query once the chain is warm.
  sim::SimClock clock;
  resolver::ResolverCache cache(clock);
  const dns::Name apex = dns::Name::parse("dlv.isc.org");
  std::vector<dns::Name> probes;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    dns::NsecRdata nsec;
    nsec.next = dns::Name::parse("d" + std::to_string(i) + "b.com.dlv.isc.org");
    nsec.types = {dns::RRType::kDlv};
    cache.store_nsec(apex, dns::ResourceRecord::make(
                               dns::Name::parse("d" + std::to_string(i) +
                                                "a.com.dlv.isc.org"),
                               3600, nsec));
    probes.push_back(
        dns::Name::parse("d" + std::to_string(i) + "ax.com.dlv.isc.org"));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.find_denial(apex, probes[i],
                                               dns::RRType::kDlv,
                                               resolver::DenialSources::kSpans));
    i = (i + 1) % probes.size();
  }
}
BENCHMARK(BM_CacheProbe_NegativeNsecCover)->Arg(100)->Arg(10000);

void BM_CacheProbe_SpanIndexSynth(benchmark::State& state) {
  // The unified find_denial probe with every source enabled: one
  // negative-table miss, one span-index binary search, one (empty) NSEC3
  // evidence probe. This is the per-query cost fetch_from_cache pays when
  // aggressive_synthesis is on.
  sim::SimClock clock;
  resolver::ResolverCache cache(clock);
  const dns::Name apex = dns::Name::parse("dlv.isc.org");
  std::vector<dns::Name> probes;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    dns::NsecRdata nsec;
    nsec.next = dns::Name::parse("d" + std::to_string(i) + "b.com.dlv.isc.org");
    nsec.types = {dns::RRType::kDlv};
    cache.store_nsec(apex, dns::ResourceRecord::make(
                               dns::Name::parse("d" + std::to_string(i) +
                                                "a.com.dlv.isc.org"),
                               3600, nsec));
    probes.push_back(
        dns::Name::parse("d" + std::to_string(i) + "ax.com.dlv.isc.org"));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.find_denial(apex, probes[i],
                                               dns::RRType::kDlv));
    i = (i + 1) % probes.size();
  }
}
BENCHMARK(BM_CacheProbe_SpanIndexSynth)->Arg(100)->Arg(10000);

void BM_CacheNsecCheck(benchmark::State& state) {
  sim::SimClock clock;
  resolver::ResolverCache cache(clock);
  const dns::Name apex = dns::Name::parse("dlv.isc.org");
  // Populate a chain with `range(0)` entries.
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    dns::NsecRdata nsec;
    nsec.next = dns::Name::parse("d" + std::to_string(i) + "b.com.dlv.isc.org");
    nsec.types = {dns::RRType::kDlv};
    cache.store_nsec(apex, dns::ResourceRecord::make(
                               dns::Name::parse("d" + std::to_string(i) +
                                                "a.com.dlv.isc.org"),
                               3600, nsec));
  }
  const dns::Name probe = dns::Name::parse("d500x.com.dlv.isc.org");
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.find_denial(
        apex, probe, dns::RRType::kDlv, resolver::DenialSources::kSpans));
  }
}
BENCHMARK(BM_CacheNsecCheck)->Arg(100)->Arg(10000);

void BM_FullResolutionUncached(benchmark::State& state) {
  workload::WorldOptions world_options;
  world_options.universe.size = 1'000'000;
  workload::UniverseWorld world(world_options);
  sim::SimClock clock;
  sim::Network network(clock);
  world.registry().set_store_observations(false);
  resolver::RecursiveResolver resolver(
      network, world.directory(), resolver::ResolverConfig::bind_yum());
  resolver.set_root_trust_anchor(world.root_trust_anchor());
  resolver.set_dlv_trust_anchor(world.registry().trust_anchor());
  std::uint64_t rank = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(resolver.resolve({world.universe().domain_at(rank), dns::RRType::kA}));
    rank = rank % 900'000 + 1;
  }
}
BENCHMARK(BM_FullResolutionUncached)->Unit(benchmark::kMicrosecond);

void BM_StubVisitWarmCaches(benchmark::State& state) {
  workload::WorldOptions world_options;
  world_options.universe.size = 100'000;
  workload::UniverseWorld world(world_options);
  sim::SimClock clock;
  sim::Network network(clock);
  world.registry().set_store_observations(false);
  resolver::RecursiveResolver resolver(
      network, world.directory(), resolver::ResolverConfig::bind_yum());
  resolver.set_root_trust_anchor(world.root_trust_anchor());
  resolver.set_dlv_trust_anchor(world.registry().trust_anchor());
  workload::StubClient stub(network, resolver);
  (void)stub.visit(world.universe().domain_at(42));  // warm
  for (auto _ : state) {
    benchmark::DoNotOptimize(stub.visit(world.universe().domain_at(42)));
  }
}
BENCHMARK(BM_StubVisitWarmCaches)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
