#include "serve/frontend.h"

#include <algorithm>
#include <utility>

#include "dlv/registry.h"
#include "obs/metrics_registry.h"
#include "obs/tracer.h"

namespace lookaside::serve {

namespace {

/// Case-2 observations so far: registry queries that found no record
/// (paper §5.2 — the pure-leak class).
std::uint64_t case2_count(const dlv::DlvRegistry* registry) {
  if (registry == nullptr) return 0;
  return registry->total_queries() - registry->queries_with_record();
}

/// Appends {shard=<label>} to a metric's labels when the frontend carries a
/// shard label; leaves single-resolver series untouched otherwise.
obs::Labels with_shard(const std::string& shard, obs::Labels labels = {}) {
  if (!shard.empty()) labels.emplace_back("shard", shard);
  return labels;
}

/// Plain-stub view (DO=0): no DNSSEC records, never an AD claim. Mirrors
/// the resolver's own stub-facing strip so both paths agree byte-for-byte.
void strip_for_plain_stub(dns::Message& response) {
  response.header.ad = false;
  std::erase_if(response.answers, [](const dns::ResourceRecord& record) {
    return record.type == dns::RRType::kRrsig ||
           record.type == dns::RRType::kNsec ||
           record.type == dns::RRType::kNsec3 ||
           record.type == dns::RRType::kNsec3Param;
  });
}

}  // namespace

FrontendServer::FrontendServer(sim::Network& network,
                               resolver::RecursiveResolver& resolver,
                               FrontendOptions options)
    : network_(&network), resolver_(&resolver), options_(options) {}

ClientAccount& FrontendServer::account(std::uint32_t client) {
  if (clients_.size() <= client) clients_.resize(client + 1);
  return clients_[client];
}

void FrontendServer::note_depth() {
  max_depth_ = std::max(max_depth_, depth_);
  if (metrics_ != nullptr) {
    metrics_->observe("serve_queue_depth", with_shard(shard_label_),
                      static_cast<double>(depth_));
  }
}

void FrontendServer::expire(std::uint64_t now_us) {
  std::erase_if(inflight_, [&](const auto& item) {
    if (item.second.completion_us > now_us) return false;
    depth_ -= item.second.waiters;
    return true;
  });
}

Served FrontendServer::make_formerr(const WireQuery& query) {
  Served served;
  served.arrival_us = query.time_us;
  served.completion_us = query.time_us;  // shed immediately, no upstream work
  served.client = query.client;
  served.formerr = true;
  served.rcode = dns::RCode::kFormErr;

  dns::Message response;
  // The id is the first two bytes; echo it when that much survived.
  if (query.wire.size() >= 2) {
    response.header.id = static_cast<std::uint16_t>(
        (static_cast<std::uint16_t>(query.wire[0]) << 8) | query.wire[1]);
  }
  response.header.qr = true;
  response.header.rcode = dns::RCode::kFormErr;
  served.response_wire = dns::encode_message(response);
  served.response_bytes = served.response_wire.size();

  stats_.add("serve.formerr");
  stats_.add("serve.bytes.response", served.response_bytes);
  if (metrics_ != nullptr) {
    metrics_->add("serve_formerr", with_shard(shard_label_));
  }
  account(query.client).formerr += 1;
  return served;
}

Served FrontendServer::make_shed(const WireQuery& query,
                                 const dns::Message& message, Served served) {
  served.completion_us = query.time_us;  // shed immediately, no upstream work
  dns::Message response = dns::Message::make_response(message);
  response.header.rcode = dns::RCode::kServFail;
  response.edns = message.edns;
  response.dnssec_ok = message.dnssec_ok;
  served.rcode = dns::RCode::kServFail;
  served.response_wire = dns::encode_message(response);
  served.response_bytes = served.response_wire.size();
  stats_.add("serve.bytes.response", served.response_bytes);
  return served;
}

bool FrontendServer::cpu_admit(std::uint32_t client, std::uint64_t now_us) {
  if (options_.cpu_budget_us_per_s == 0) return true;
  if (cpu_buckets_.size() <= client) cpu_buckets_.resize(client + 1);
  CpuBucket& bucket = cpu_buckets_[client];
  if (!bucket.initialized) {
    bucket.initialized = true;
    bucket.tokens_us = static_cast<std::int64_t>(options_.cpu_burst_us);
    bucket.last_refill_us = now_us;
  } else if (now_us > bucket.last_refill_us) {
    // Integer refill keeps the bucket a pure function of the schedule.
    const std::uint64_t earned = (now_us - bucket.last_refill_us) *
                                 options_.cpu_budget_us_per_s / 1'000'000ULL;
    bucket.tokens_us =
        std::min(static_cast<std::int64_t>(options_.cpu_burst_us),
                 bucket.tokens_us + static_cast<std::int64_t>(earned));
    bucket.last_refill_us = now_us;
  }
  return bucket.tokens_us > 0;
}

void FrontendServer::cpu_charge(std::uint32_t client, std::uint64_t cost_us) {
  account(client).cpu_spent_us += cost_us;
  if (options_.cpu_budget_us_per_s == 0) return;
  if (cpu_buckets_.size() <= client) cpu_buckets_.resize(client + 1);
  // Post-paid debt: the full bill lands even when it overdraws, so a
  // sustained expensive stream stays shed until the refill repays it.
  cpu_buckets_[client].tokens_us -= static_cast<std::int64_t>(cost_us);
}

void FrontendServer::finish(Served& served, const dns::Message& request,
                            const resolver::ResolveResult& result) {
  dns::Message response = result.response;
  response.header.id = request.header.id;
  response.header.rd = request.header.rd;
  response.header.cd = request.header.cd;
  response.edns = request.edns;
  response.dnssec_ok = request.dnssec_ok;
  if (!request.dnssec_ok) strip_for_plain_stub(response);

  served.rcode = response.header.rcode;
  served.response_wire = dns::encode_message(response);
  served.response_bytes = served.response_wire.size();
  stats_.add("serve.answered");
  stats_.add("serve.bytes.response", served.response_bytes);

  ClientAccount& acct = account(served.client);
  acct.answered += 1;
}

Served FrontendServer::serve_decoded(const WireQuery& query,
                                     const dns::Message& message) {
  Served served;
  served.arrival_us = query.time_us;
  served.client = query.client;
  served.has_question = true;
  served.qname = message.question().name;
  served.qtype = message.question().type;

  const Key key{served.qname, served.qtype};
  if (auto it = inflight_.find(key); it != inflight_.end()) {
    // Coalesce: join the outstanding resolution and share its fan-out
    // instant. No upstream traffic, no extra leak — that is the point.
    InFlight& entry = it->second;
    entry.waiters += 1;
    depth_ += 1;
    note_depth();
    served.coalesced = true;
    served.completion_us = entry.completion_us;
    if (tracer_ != nullptr && entry.result.trace_span_id != 0) {
      // Coalesce lineage: the shared (already closed) resolver span gains
      // this waiter's frontend span as one more parent.
      obs::Event join;
      join.kind = obs::EventKind::kCoalesceJoin;
      join.time_us = query.time_us;
      join.span_id = entry.result.trace_span_id;
      join.parent_span_id = tracer_->current_span();
      join.name = served.qname.to_text();
      join.qtype = served.qtype;
      tracer_->emit(std::move(join));
    }
    stats_.add("serve.coalesce.hits");
    if (metrics_ != nullptr) {
      metrics_->add("serve_coalesce",
                    with_shard(shard_label_, {{"result", "hit"}}));
    }
    account(query.client).coalesce_hits += 1;
    finish(served, message, entry.result);
    return served;
  }

  if (depth_ >= options_.max_pending) {
    // Admission control: shed with SERVFAIL immediately and charge the
    // client that pushed the frontend over its quota.
    served.overload_drop = true;
    stats_.add("serve.overload.drops");
    if (metrics_ != nullptr) {
      metrics_->add("serve_overload_drops", with_shard(shard_label_));
    }
    account(query.client).overload_drops += 1;
    return make_shed(query, message, served);
  }

  if (!cpu_admit(query.client, query.time_us)) {
    // CPU-budget admission: this client has burned through its validation
    // budget (NSEC3 iteration flood); shed before any upstream work so the
    // attacker can no longer rent the resolver's hash loop.
    served.cpu_drop = true;
    stats_.add("serve.cpu.drops");
    if (metrics_ != nullptr) {
      metrics_->add("serve_cpu_drops", with_shard(shard_label_));
    }
    account(query.client).cpu_drops += 1;
    return make_shed(query, message, served);
  }

  // Cache-facing resolution is always the full DNSSEC-aware one (DO set,
  // validation on); per-client DO views are derived at fan-out in finish().
  // Stub CD pass-through is a resolver-API concern, not a frontend one:
  // honoring it here would make the shared in-flight entry depend on which
  // client got there first.
  const std::uint64_t case2_before = case2_count(registry_);
  const std::uint64_t work_start_us = network_->clock().now_us();
  const resolver::ResolveResult result =
      resolver_->resolve({served.qname, served.qtype});
  const std::uint64_t cost_us = network_->clock().now_us() - work_start_us;
  const std::uint64_t leaked = case2_count(registry_) - case2_before;

  served.completion_us = query.time_us + cost_us;
  served.from_cache = result.from_cache;
  served.case2_leaks = leaked;
  stats_.add("serve.coalesce.misses");
  stats_.add("serve.case2.leaks", leaked);
  if (metrics_ != nullptr) {
    metrics_->add("serve_coalesce",
                  with_shard(shard_label_, {{"result", "miss"}}));
    if (leaked > 0) {
      metrics_->add("serve_case2_leaks", with_shard(shard_label_), leaked);
    }
    // High-water footprint of the shared resolver cache every client
    // behind this frontend populates; under a configured cap this is the
    // number the eviction clock holds down.
    metrics_->set_gauge("resolver_cache_bytes", with_shard(shard_label_),
                        resolver_->cache().bytes());
  }
  ClientAccount& acct = account(query.client);
  acct.case2_leaks += leaked;
  cpu_charge(query.client, result.validation_cost_us);

  finish(served, message, result);
  inflight_.emplace(key, InFlight{served.completion_us, 1, result});
  depth_ += 1;
  note_depth();
  return served;
}

Served FrontendServer::submit(const WireQuery& query) {
  // The schedule is processed in arrival order; a clock that ran backwards
  // would corrupt the in-flight table, so clamp defensively.
  WireQuery arrival = query;
  arrival.time_us = std::max(arrival.time_us, last_arrival_us_);
  last_arrival_us_ = arrival.time_us;

  expire(arrival.time_us);
  stats_.add("serve.queries");
  stats_.add("serve.bytes.query", arrival.wire.size());
  account(arrival.client).queries += 1;

  dns::Message message;
  bool decoded = true;
  try {
    message = dns::decode_message(arrival.wire);
  } catch (const dns::WireFormatError&) {
    decoded = false;
  }
  if (decoded && (message.questions.size() != 1 || message.header.qr)) {
    decoded = false;
  }

  if (tracer_ == nullptr) {
    return decoded ? serve_decoded(arrival, message) : make_formerr(arrival);
  }

  // Trace context for the whole intake..response window: every event the
  // resolution emits downstream (resolver, cache, network bridge, DLV
  // registry) inherits this query_id and client tag.
  const std::uint64_t query_id = make_query_id(arrival.client, arrival.seq);
  tracer_->push_query(query_id, arrival.client + 1);
  const std::uint64_t frontend_span = tracer_->begin_span();
  {
    obs::Event intake;
    intake.kind = obs::EventKind::kClientQuery;
    intake.time_us = arrival.time_us;
    intake.span_id = frontend_span;
    if (decoded) {
      intake.name = message.question().name.to_text();
      intake.qtype = message.question().type;
    }
    intake.bytes = arrival.wire.size();
    tracer_->emit(std::move(intake));
  }

  const Served served =
      decoded ? serve_decoded(arrival, message) : make_formerr(arrival);

  obs::Event done;
  done.kind = obs::EventKind::kClientResponse;
  done.time_us = served.completion_us;
  done.span_id = frontend_span;
  if (served.has_question) {
    done.name = served.qname.to_text();
    done.qtype = served.qtype;
  }
  done.rcode = served.rcode;
  done.bytes = served.response_bytes;
  done.latency_us = served.latency_us();
  done.detail = served.overload_drop ? "overload"
                : served.cpu_drop    ? "cpu-overload"
                : served.formerr     ? "formerr"
                : served.coalesced   ? "coalesced"
                : served.from_cache  ? "cache"
                                     : "resolved";
  tracer_->emit(std::move(done));
  tracer_->end_span(frontend_span);
  tracer_->pop_query();
  return served;
}

std::vector<Served> FrontendServer::run(std::vector<WireQuery> arrivals) {
  std::sort(arrivals.begin(), arrivals.end(),
            [](const WireQuery& a, const WireQuery& b) {
              if (a.time_us != b.time_us) return a.time_us < b.time_us;
              if (a.client != b.client) return a.client < b.client;
              return a.seq < b.seq;
            });
  std::vector<Served> served;
  served.reserve(arrivals.size());
  for (const WireQuery& arrival : arrivals) {
    served.push_back(submit(arrival));
  }
  return served;
}

}  // namespace lookaside::serve
