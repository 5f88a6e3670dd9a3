#pragma once
// Pure helpers of the benchmark: percentile selection, due-time latency,
// open-loop backlog growth, and span self time. No I/O and no clocks, so
// helpers_test.cpp pins every rule on hand-made inputs.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

/// Fewest samples that must lie beyond a reported percentile.
inline constexpr std::size_t kMinBeyond = 10;

/// The percentiles a report may fall back to, highest first.
inline constexpr double kPercentileLadder[] = {99.9, 99.5, 99.0, 98.0, 97.5,
                                               95.0, 90.0, 80.0, 75.0, 50.0};

/// 1-based nearest rank of percentile `q` in `n` sorted samples.
inline std::size_t nearest_rank(double q, std::size_t n) {
  if (n == 0) return 0;
  const double exact = q / 100.0 * static_cast<double>(n);
  std::size_t rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

/// Samples strictly beyond the nearest-rank percentile `q`.
inline std::size_t samples_beyond(double q, std::size_t n) {
  return n == 0 ? 0 : n - nearest_rank(q, n);
}

/// The highest ladder percentile not above `want` that leaves at least
/// kMinBeyond samples beyond it; the median when none does.
inline double pick_percentile(double want, std::size_t n) {
  for (double q : kPercentileLadder) {
    if (q <= want + 1e-12 && samples_beyond(q, n) >= kMinBeyond) return q;
  }
  return 50.0;
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// A percentile as reported: the value, the percentile actually used, the
/// sample count it was taken from, and the windows it is the median of.
struct Percentile {
  double value = 0.0;
  double q = 0.0;
  std::size_t n = 0;
  std::size_t windows = 1;
};

/// Nearest-rank percentile of `samples` (sorted in place) at the
/// percentile pick_percentile(want, n) allows.
inline Percentile percentile(std::vector<double>& samples, double want) {
  Percentile out;
  out.n = samples.size();
  out.q = pick_percentile(want, out.n);
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  out.value = samples[nearest_rank(out.q, out.n) - 1];
  return out;
}

/// Samples per window of windowed_percentile: enough for a p99 with ten
/// samples beyond it.
inline constexpr std::size_t kWindowSamples = 1000;

/// A tail percentile that one noisy stretch of a run cannot move: the
/// samples, in the order they were taken, are cut into consecutive windows
/// of at least `min_window` samples; the result is the median of the
/// windows' percentiles (each picked by pick_percentile). `q` is the
/// lowest percentile any window used and `n` the total sample count.
inline Percentile windowed_percentile(
    const std::vector<double>& samples, double want,
    std::size_t min_window = kWindowSamples) {
  const std::size_t n = samples.size();
  Percentile out;
  out.n = n;
  out.q = want;
  out.windows = std::max<std::size_t>(1, n / min_window);
  std::vector<double> values;
  for (std::size_t w = 0; w < out.windows; ++w) {
    const auto first = static_cast<std::ptrdiff_t>(w * n / out.windows);
    const auto last = static_cast<std::ptrdiff_t>((w + 1) * n / out.windows);
    std::vector<double> part(samples.begin() + first, samples.begin() + last);
    const Percentile p = percentile(part, want);
    values.push_back(p.value);
    out.q = std::min(out.q, p.q);
  }
  out.value = median(values);
  return out;
}

/// Open-loop latency: from the time a request was due to be sent to the
/// arrival of its answer, so a stalled generator or a queue that built up
/// earlier is charged to every request it delayed. Nanoseconds in,
/// milliseconds out.
inline double due_latency_ms(std::int64_t due_ns, std::int64_t arrival_ns) {
  return static_cast<double>(arrival_ns - due_ns) / 1e6;
}

/// How late the generator sent a request, in milliseconds (never negative:
/// an early send is on time).
inline double lateness_ms(std::int64_t due_ns, std::int64_t sent_ns) {
  return std::max(0.0, static_cast<double>(sent_ns - due_ns) / 1e6);
}

/// True when the backlog (requests due but not yet answered, sampled at
/// equal intervals over one fixed-rate step) kept growing: the largest
/// sample of the last third exceeds twice the largest of the first third
/// plus `slack`. A system that keeps up oscillates around a level; one
/// that does not grows linearly with time.
inline bool backlog_grows(const std::vector<std::size_t>& samples,
                          std::size_t slack) {
  if (samples.size() < 3) return false;
  const std::size_t third = samples.size() / 3;
  const auto first_end = samples.begin() + static_cast<std::ptrdiff_t>(third);
  const auto last_begin =
      samples.end() - static_cast<std::ptrdiff_t>(third);
  const std::size_t first = *std::max_element(samples.begin(), first_end);
  const std::size_t last = *std::max_element(last_begin, samples.end());
  return last > 2 * first + slack;
}

/// One traced interval. `parent` indexes the enclosing span in the same
/// vector (-1 for a root).
struct SpanTimes {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;
};

/// Self time of every span in nanoseconds: its duration minus the part of
/// that interval its children cover. Children are clipped to the parent's
/// interval and overlapping children are counted once.
inline std::vector<std::int64_t> self_times(
    const std::vector<SpanTimes>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const SpanTimes& s : spans) {
    if (s.parent < 0 || static_cast<std::size_t>(s.parent) >= spans.size()) {
      continue;
    }
    const SpanTimes& p = spans[static_cast<std::size_t>(s.parent)];
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) kids[static_cast<std::size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::vector<std::int64_t> out(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    std::int64_t covered = 0;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t run_lo = 0;
    std::int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    out[i] = std::max<std::int64_t>(
        0, spans[i].end_ns - spans[i].start_ns - covered);
  }
  return out;
}

}  // namespace perfbench
