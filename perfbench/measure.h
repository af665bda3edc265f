// Arithmetic behind the serving benchmark's reported numbers: nearest-rank
// percentiles, span self time, and pairing of network query/response
// records into exchange spans. Header-only so the self-test needs nothing
// but this file.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of an ascending sample: the value at 1-based
/// rank ceil(percent/100 * n). Empty when fewer than `min_beyond` samples
/// lie above that rank, so a reported tail always has support behind it.
inline std::optional<std::uint64_t> nearest_rank(
    const std::vector<std::uint64_t>& sorted, unsigned percent,
    std::size_t min_beyond = 10) {
  const std::size_t n = sorted.size();
  if (n == 0 || percent == 0 || percent > 100) return std::nullopt;
  const std::size_t rank = (static_cast<std::size_t>(percent) * n + 99) / 100;
  if (n - rank < min_beyond) return std::nullopt;
  return sorted[rank - 1];
}

/// Median of a sample (mean of the middle pair for even sizes).
inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2.0;
}

/// What a run reports from its per-query host times.
struct Figures {
  double qps = 0, p50_us = 0, p99_us = 0;
};

/// Figures over per-query host times in ns: queries per second of their
/// summed time, and nearest-rank p50 and p99. Entries of UINT64_MAX (never
/// answered) are left out. Empty when the p99 would lack support.
inline std::optional<Figures> figures_of(
    const std::vector<std::uint64_t>& times_ns) {
  std::vector<std::uint64_t> sorted;
  std::uint64_t total_ns = 0;
  for (const std::uint64_t ns : times_ns) {
    if (ns == UINT64_MAX) continue;
    sorted.push_back(ns);
    total_ns += ns;
  }
  std::sort(sorted.begin(), sorted.end());
  const std::optional<std::uint64_t> p50 = nearest_rank(sorted, 50);
  const std::optional<std::uint64_t> p99 = nearest_rank(sorted, 99);
  if (!p50 || !p99 || total_ns == 0) return std::nullopt;
  return Figures{static_cast<double>(sorted.size()) /
                     (static_cast<double>(total_ns) / 1e9),
                 static_cast<double>(*p50) / 1e3,
                 static_cast<double>(*p99) / 1e3};
}

/// Half-open host-time interval in nanoseconds.
struct Interval {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
};

/// Length of the union of `children`, each clipped to `within`.
inline std::uint64_t covered(std::vector<Interval> children,
                             Interval within) {
  for (Interval& child : children) {
    child.start = std::clamp(child.start, within.start, within.end);
    child.end = std::clamp(child.end, within.start, within.end);
  }
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  std::uint64_t total = 0;
  std::uint64_t reach = within.start;
  for (const Interval& child : children) {
    const std::uint64_t from = std::max(child.start, reach);
    if (child.end > from) {
      total += child.end - from;
      reach = child.end;
    }
  }
  return total;
}

/// A span's duration minus the part of it that its children cover.
inline std::uint64_t self_time(Interval span,
                               const std::vector<Interval>& children) {
  return (span.end - span.start) - covered(children, span);
}

/// One upstream exchange reconstructed from network records.
struct Exchange {
  std::string to;
  Interval span;
  bool timed_out = false;  // no response record arrived
};

/// Pairs a stream of query/response records into exchange spans. A query
/// opens a span; the response from the same endpoint closes it. A query
/// whose response never arrives (a timeout) is closed by the next record
/// or by finish(), and is marked timed out.
class ExchangePairer {
 public:
  void on_query(const std::string& to, std::uint64_t now_ns) {
    close_open(now_ns, /*timed_out=*/true);
    open_ = Exchange{to, {now_ns, now_ns}, false};
  }

  void on_response(const std::string& from, std::uint64_t now_ns) {
    if (open_.has_value() && open_->to == from) {
      close_open(now_ns, /*timed_out=*/false);
    } else {
      ++unpaired_responses_;
    }
  }

  /// Closes any open span at `now_ns` and hands back every span so far.
  std::vector<Exchange> finish(std::uint64_t now_ns) {
    close_open(now_ns, /*timed_out=*/true);
    return std::exchange(done_, {});
  }

  [[nodiscard]] std::uint64_t unpaired_responses() const {
    return unpaired_responses_;
  }

 private:
  void close_open(std::uint64_t now_ns, bool timed_out) {
    if (!open_.has_value()) return;
    open_->span.end = now_ns;
    open_->timed_out = timed_out;
    done_.push_back(std::move(*open_));
    open_.reset();
  }

  std::optional<Exchange> open_;
  std::vector<Exchange> done_;
  std::uint64_t unpaired_responses_ = 0;
};

}  // namespace perfbench
