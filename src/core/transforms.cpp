#include "gapsched/core/transforms.hpp"

#include <algorithm>
#include <cassert>

namespace gapsched {

namespace {

/// Union of all allowed times: its maximal intervals are the live regions.
/// One normalization of every job interval, O(N log N) in the interval
/// count.
TimeSet live_regions(const Instance& inst) {
  std::vector<Interval> all;
  for (const Job& j : inst.jobs) {
    all.insert(all.end(), j.allowed.intervals().begin(),
               j.allowed.intervals().end());
  }
  return TimeSet(std::move(all));
}

/// Maps t, a time inside one of the sorted disjoint intervals `from`, to
/// the same offset in the matching interval of `to` (binary search).
Time map_time(const std::vector<Interval>& from,
              const std::vector<Interval>& to, Time t) {
  const auto it = std::lower_bound(
      from.begin(), from.end(), t,
      [](const Interval& iv, Time v) { return iv.hi < v; });
  if (it == from.end() || it->lo > t) {
    assert(false && "time is not in any allowed interval");
    return t;
  }
  return to[static_cast<std::size_t>(it - from.begin())].lo + (t - it->lo);
}

/// Lays the live intervals out left to right from `origin`, an interior
/// dead run of length d taking run(d) units; returns each live interval's
/// image, index-aligned with `live`.
template <typename Run>
std::vector<Interval> lay_out(const std::vector<Interval>& live, Time origin,
                              Run&& run) {
  std::vector<Interval> out;
  out.reserve(live.size());
  Time cursor = origin;
  for (std::size_t i = 0; i < live.size(); ++i) {
    if (i > 0) cursor += run(live[i].lo - live[i - 1].hi - 1);
    out.push_back({cursor, cursor + live[i].length() - 1});
    cursor += live[i].length();
  }
  return out;
}

/// Rewrites every job through the live-interval map `from` -> `to`, which
/// preserves interval lengths, so only each interval's lo needs mapping.
std::vector<Job> map_jobs(const Instance& inst,
                          const std::vector<Interval>& from,
                          const std::vector<Interval>& to) {
  std::vector<Job> out;
  out.reserve(inst.n());
  for (const Job& j : inst.jobs) {
    std::vector<Interval> mapped;
    mapped.reserve(j.allowed.interval_count());
    for (const Interval& iv : j.allowed.intervals()) {
      const Time lo = map_time(from, to, iv.lo);
      mapped.push_back({lo, lo + iv.length() - 1});
    }
    out.push_back(Job{TimeSet(std::move(mapped))});
  }
  return out;
}

}  // namespace

Time CompressedInstance::to_original(Time compressed) const {
  return map_time(compressed_intervals, original_intervals, compressed);
}

Time CompressedInstance::to_compressed(Time original) const {
  return map_time(original_intervals, compressed_intervals, original);
}

Time CompressedInstance::dead_time_removed() const {
  if (original_intervals.empty()) return 0;
  const Time original_span =
      original_intervals.back().hi - original_intervals.front().lo;
  const Time compressed_span =
      compressed_intervals.back().hi - compressed_intervals.front().lo;
  return original_span - compressed_span;
}

CompressedInstance compress_dead_time(const Instance& inst) {
  return compress_dead_time_capped(inst, 1);
}

CompressedInstance compress_dead_time_capped(const Instance& inst, Time cap) {
  assert(cap >= 1 && "dead runs cannot shrink below one unit");
  CompressedInstance out;
  out.instance.processors = inst.processors;
  if (inst.n() == 0) return out;

  // Each interior dead run of length d shrinks to min(d, cap) units.
  out.original_intervals = live_regions(inst).intervals();
  out.compressed_intervals = lay_out(out.original_intervals, 0, [&](Time d) {
    return std::min(d, cap);
  });
  out.instance.jobs =
      map_jobs(inst, out.original_intervals, out.compressed_intervals);
  return out;
}

Instance stretch_dead_time(const Instance& inst, Time k, Time min_run) {
  assert(k >= 1 && "dilation factor must be at least 1");
  Instance out;
  out.processors = inst.processors;
  if (inst.n() == 0) return out;

  // The origin is preserved, and each interior dead run of length
  // d >= min_run grows to k * d.
  const TimeSet live = live_regions(inst);
  out.jobs = map_jobs(inst, live.intervals(),
                      lay_out(live.intervals(), live.min(), [&](Time d) {
                        return d >= min_run ? d * k : d;
                      }));
  return out;
}

}  // namespace gapsched
