// Self-tests for the benchmark's own arithmetic (measure.h). Exits nonzero
// on the first failed expectation.
#include <cstdint>
#include <iostream>
#include <numeric>
#include <vector>

#include "measure.h"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::cerr << "selftest FAIL: " << what << "\n";
    ++failures;
  }
}

std::vector<std::uint64_t> one_to(std::uint64_t n) {
  std::vector<std::uint64_t> out(n);
  std::iota(out.begin(), out.end(), 1);
  return out;
}

void nearest_rank_tests() {
  using perfbench::nearest_rank;
  // 1..100: rank ceil(p*n/100) holds value p.
  expect(nearest_rank(one_to(100), 50, 0) == 50u, "p50 of 1..100 is 50");
  expect(nearest_rank(one_to(100), 90, 10) == 90u, "p90 of 1..100 is 90");
  expect(!nearest_rank(one_to(100), 91, 10), "p91 of 100 has 9 beyond");
  expect(!nearest_rank(one_to(100), 99, 10), "p99 of 100 is refused");
  // p99 needs n >= 1000 for ten samples beyond it.
  expect(!nearest_rank(one_to(999), 99, 10), "p99 of 999 is refused");
  expect(nearest_rank(one_to(1000), 99, 10) == 990u, "p99 of 1000 is 990");
  expect(nearest_rank(one_to(1001), 99, 10) == 991u, "p99 of 1001 rounds up");
  expect(nearest_rank(one_to(3), 50, 0) == 2u, "p50 of 3 is the middle");
  expect(nearest_rank(one_to(4), 50, 0) == 2u, "p50 of 4 is rank 2");
  expect(nearest_rank(one_to(1), 100, 0) == 1u, "p100 is the maximum");
  expect(!nearest_rank({}, 50, 0), "empty sample has no percentile");
  expect(perfbench::median({3.0, 1.0, 2.0}) == 2.0, "median of odd sample");
  expect(perfbench::median({4.0, 1.0, 2.0, 3.0}) == 2.5, "median of even");
}

void figures_tests() {
  // 1000 queries of 1..1000 us: 1000 / 0.5005 s, p50 500 us, p99 990 us.
  std::vector<std::uint64_t> times;
  for (std::uint64_t us = 1; us <= 1000; ++us) times.push_back(us * 1000);
  const std::optional<perfbench::Figures> f = perfbench::figures_of(times);
  expect(f && f->p50_us == 500.0 && f->p99_us == 990.0,
         "figures: nearest-rank p50 and p99 in us");
  expect(f && f->qps > 1998.0 && f->qps < 1998.1,
         "figures: qps is queries over their summed time");
  // A query never answered is left out, which leaves 999: no p99.
  times.back() = UINT64_MAX;
  expect(!perfbench::figures_of(times), "figures: p99 of 999 is refused");
  times.back() = 1'000'000;
  times.insert(times.begin(), UINT64_MAX);
  const std::optional<perfbench::Figures> g = perfbench::figures_of(times);
  expect(g && g->qps == f->qps, "figures: unanswered entries are skipped");
}

void self_time_tests() {
  using perfbench::Interval;
  using perfbench::self_time;
  expect(self_time({0, 100}, {}) == 100, "no children: all self");
  expect(self_time({0, 100}, {{10, 20}, {30, 50}}) == 70,
         "disjoint children subtract");
  // Overlapping children count their union once.
  expect(self_time({0, 100}, {{10, 40}, {30, 60}}) == 50,
         "overlapping children: union 10..60");
  expect(self_time({0, 100}, {{10, 60}, {20, 30}}) == 50,
         "nested child inside sibling");
  expect(self_time({0, 100}, {{30, 60}, {10, 40}}) == 50,
         "order of children does not matter");
  // Children are clipped to the parent.
  expect(self_time({10, 100}, {{0, 20}, {90, 120}}) == 70,
         "children clipped to the parent");
  expect(self_time({0, 100}, {{0, 100}, {20, 30}}) == 0,
         "fully covered parent has no self time");
  expect(self_time({0, 100}, {{50, 50}}) == 100, "empty child is ignored");
}

void pairing_tests() {
  perfbench::ExchangePairer pairer;
  pairer.on_query("root", 10);
  pairer.on_response("root", 20);
  pairer.on_query("tld", 25);
  // The tld response never arrives: the retry to tld opens a new span and
  // closes the lost one as timed out at the retry's time.
  pairer.on_query("tld", 40);
  pairer.on_response("tld", 55);
  pairer.on_query("dlv", 60);  // lost too, closed by finish()
  const auto spans = pairer.finish(70);
  expect(spans.size() == 4, "four exchanges");
  if (spans.size() == 4) {
    expect(spans[0].to == "root" && spans[0].span.start == 10 &&
               spans[0].span.end == 20 && !spans[0].timed_out,
           "answered exchange spans query..response");
    expect(spans[1].to == "tld" && spans[1].span.start == 25 &&
               spans[1].span.end == 40 && spans[1].timed_out,
           "lost exchange closes at the next query, timed out");
    expect(spans[2].span.start == 40 && spans[2].span.end == 55 &&
               !spans[2].timed_out,
           "retry pairs with its response");
    expect(spans[3].to == "dlv" && spans[3].span.end == 70 &&
               spans[3].timed_out,
           "open exchange closes at finish, timed out");
  }
  expect(pairer.finish(80).empty(), "finish drains the spans");
  pairer.on_response("root", 90);
  expect(pairer.unpaired_responses() == 1, "stray response is counted");
}

}  // namespace

int main() {
  nearest_rank_tests();
  figures_tests();
  self_time_tests();
  pairing_tests();
  if (failures != 0) return 1;
  std::cout << "selftest ok\n";
  return 0;
}
