#pragma once
// In-memory span recorder of the traced run. Spans are taken in the
// benchmark's own files around its calls into each layer; the pipeline
// stages of a solve are added as children of the call that ran them, laid
// end to end from the stage timings the result carries
// (SolveStats::stages). Spans stay in memory and are written once, at
// exit, as Chrome trace-event JSON (chrome://tracing, Perfetto).

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "gapsched/engine/types.hpp"
#include "json_report.hpp"
#include "stats.hpp"

namespace perfbench {

/// Nanoseconds on the steady clock since the first call in the process.
inline std::int64_t now_ns() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point epoch = clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() -
                                                              epoch)
      .count();
}

/// The layer a span belongs to: its name up to the first '.'.
inline std::string_view layer_of(std::string_view name) {
  return name.substr(0, name.find('.'));
}

class Tracer {
 public:
  /// Spans past this many are counted in dropped() instead of kept.
  static constexpr std::size_t kMaxSpans = 1u << 20;

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Records one finished span; `name` must be a string literal
  /// ("layer.what"). Returns its index, or -1 when tracing is off or the
  /// span was dropped. `probe` marks spans of the layer probes, which are
  /// kept out of the per-request self-time roll-up.
  std::int64_t add(const char* name, std::int64_t start_ns,
                   std::int64_t end_ns, std::int64_t parent, unsigned tid,
                   bool probe = false) {
    if (!enabled_) return -1;
    std::lock_guard<std::mutex> lock(mu_);
    if (spans_.size() >= kMaxSpans) {
      ++dropped_;
      return -1;
    }
    spans_.push_back({name, {start_ns, end_ns, parent}, tid, probe});
    return static_cast<std::int64_t>(spans_.size() - 1);
  }

  /// Sets the end of a span recorded with add() while it was still open.
  void finish(std::int64_t index, std::int64_t end_ns) {
    if (index < 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(index)].t.end_ns = end_ns;
  }

  /// Adds the seven pipeline stages of one solve as children of `parent`,
  /// laid end to end from `start_ns`. Dispatch is charged to the solver
  /// family's layer ("dp" or "bcd"); CacheLookup to "store" when the
  /// request admitted records from the disk tier, else to "engine".
  void add_stages(std::int64_t parent, std::int64_t start_ns,
                  const gapsched::engine::SolveStats& stats, bool bcd,
                  bool disk, unsigned tid) {
    if (!enabled_ || parent < 0) return;
    static constexpr const char* kNames[] = {
        "prep.canonicalize", "prep.decompose", "prep.compress",
        nullptr,             nullptr,          "engine.recombine",
        "oracle.audit"};
    std::int64_t t = start_ns;
    for (std::size_t i = 0; i < gapsched::engine::kPipelineStageCount; ++i) {
      const gapsched::engine::StageStats& s = stats.stages[i];
      if (!s.ran) continue;
      const char* name = kNames[i];
      if (i == 3) name = disk ? "store.cache_lookup" : "engine.cache_lookup";
      if (i == 4) name = bcd ? "bcd.dispatch" : "dp.dispatch";
      const std::int64_t dur = static_cast<std::int64_t>(s.ms * 1e6);
      add(name, t, t + dur, parent, tid);
      t += dur;
    }
  }

  /// Per-layer self time (ns) summed over every non-probe span.
  std::map<std::string, double> self_ns_by_layer() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<SpanTimes> times;
    times.reserve(spans_.size());
    for (const Rec& r : spans_) times.push_back(r.t);
    const std::vector<std::int64_t> self = self_times(times);
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].probe) continue;
      out[std::string(layer_of(spans_[i].name))] +=
          static_cast<double>(self[i]);
    }
    return out;
  }

  std::size_t dropped() const {
    std::lock_guard<std::mutex> lock(mu_);
    return dropped_;
  }

  /// Writes every span as Chrome trace-event JSON; `meta` lands under
  /// "otherData". False when the file cannot be written.
  bool write_chrome(const std::string& path,
                    const gapsched::bench::Json& meta) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream os(path);
    os << "{\"displayTimeUnit\": \"ms\", \"otherData\": " << meta.dump(0)
       << ",\n\"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Rec& r = spans_[i];
      gapsched::bench::Json ev = gapsched::bench::Json::object();
      ev.set("name", r.name)
          .set("cat", std::string(layer_of(r.name)))
          .set("ph", "X")
          .set("ts", static_cast<double>(r.t.start_ns) / 1e3)
          .set("dur", static_cast<double>(r.t.end_ns - r.t.start_ns) / 1e3)
          .set("pid", 1)
          .set("tid", static_cast<std::int64_t>(r.tid))
          .set("args", gapsched::bench::Json::object()
                           .set("span", i)
                           .set("parent", r.t.parent)
                           .set("probe", r.probe));
      os << ev.dump(0) << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    os << "]}\n";
    return static_cast<bool>(os);
  }

 private:
  struct Rec {
    const char* name;
    SpanTimes t;
    unsigned tid;
    bool probe;
  };

  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Rec> spans_;
  std::size_t dropped_ = 0;
};

/// Times one call into a layer. The span is recorded when it opens, so
/// spans opened inside it can name it as their parent, and gets its end
/// on close() or scope exit.
class Span {
 public:
  Span(Tracer& tracer, const char* name, std::int64_t parent = -1,
       unsigned tid = 0, bool probe = false)
      : tracer_(tracer), start_(now_ns()) {
    index_ = tracer_.add(name, start_, start_, parent, tid, probe);
  }
  ~Span() { close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span now; later calls keep the first end.
  void close() {
    if (end_ >= 0) return;
    end_ = now_ns();
    tracer_.finish(index_, end_);
  }
  /// Index of the span in the tracer (-1 when tracing is off).
  std::int64_t index() const { return index_; }
  std::int64_t start_ns() const { return start_; }
  /// Nanoseconds from open to close (to now while still open).
  std::int64_t elapsed_ns() const {
    return (end_ >= 0 ? end_ : now_ns()) - start_;
  }
  double elapsed_us() const { return static_cast<double>(elapsed_ns()) / 1e3; }
  double elapsed_ms() const { return static_cast<double>(elapsed_ns()) / 1e6; }

 private:
  Tracer& tracer_;
  std::int64_t start_;
  std::int64_t end_ = -1;
  std::int64_t index_ = -1;
};

}  // namespace perfbench
