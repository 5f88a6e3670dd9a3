#include "gapsched/io/json.hpp"

#include <array>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

namespace gapsched::io {

namespace {

// --------------------------------------------------------------- writing --

void append_escaped(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

/// Integers verbatim; doubles in the shortest decimal form that round-trips.
template <class N>
void append_number(std::string& out, N value) {
  if constexpr (std::is_floating_point_v<N>) {
    if (!std::isfinite(value)) {
      out += "null";  // JSON has no NaN/inf
      return;
    }
  }
  char buf[32];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, value).ptr);
}

// --------------------------------------------------------------- parsing --

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::int64_t integer = 0;
  bool is_integer = false;
  std::string string;
  std::vector<JsonValue> elements;
  std::vector<std::pair<std::string, JsonValue>> members;

  const JsonValue* find(std::string_view key) const {
    for (const auto& [k, v] : members) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

/// Minimal recursive-descent parser for standard JSON (no comments, no
/// trailing commas). Depth-limited so adversarial input cannot blow the
/// stack.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<JsonValue> parse(std::string* error) {
    JsonValue v;
    if (!value(v, 0)) {
      if (error != nullptr) *error = error_;
      return std::nullopt;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      if (error != nullptr) *error = at("trailing characters after document");
      return std::nullopt;
    }
    return v;
  }

 private:

  std::string at(std::string msg) {
    return msg + " (at byte " + std::to_string(pos_) + ")";
  }

  bool fail(std::string msg) {
    if (error_.empty()) error_ = at(std::move(msg));
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool value(JsonValue& out, int depth) {
    // depth counts nesting levels already entered, so the value being
    // parsed sits at nesting level depth + 1: reject exactly the
    // documents nested deeper than kMaxParseDepth.
    if (depth >= kMaxParseDepth) return fail("document nested too deeply");
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end of document");
    const char c = text_[pos_];
    if (c == '{') return object(out, depth);
    if (c == '[') return array(out, depth);
    if (c == '"') {
      out.kind = JsonValue::Kind::kString;
      return string(out.string);
    }
    if (c == 't') {
      if (!literal("true")) return fail("bad literal");
      out.kind = JsonValue::Kind::kBool;
      out.boolean = true;
      return true;
    }
    if (c == 'f') {
      if (!literal("false")) return fail("bad literal");
      out.kind = JsonValue::Kind::kBool;
      out.boolean = false;
      return true;
    }
    if (c == 'n') {
      if (!literal("null")) return fail("bad literal");
      out.kind = JsonValue::Kind::kNull;
      return true;
    }
    return number(out);
  }

  bool number(JsonValue& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    bool integral = true;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        integral = false;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) return fail("expected a value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    out.kind = JsonValue::Kind::kNumber;
    out.number = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return fail("malformed number");
    if (integral) {
      errno = 0;
      const long long v = std::strtoll(token.c_str(), &end, 10);
      if (errno == 0 && end == token.c_str() + token.size()) {
        out.integer = v;
        out.is_integer = true;
      }
    }
    return true;
  }

  bool string(std::string& out) {
    ++pos_;  // opening quote
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A' + 10);
            } else {
              return fail("bad \\u escape");
            }
          }
          // The engine documents are ASCII; anything else degrades to '?'.
          out += code < 0x80 ? static_cast<char>(code) : '?';
          break;
        }
        default:
          return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  bool object(JsonValue& out, int depth) {
    ++pos_;  // '{'
    out.kind = JsonValue::Kind::kObject;
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return fail("expected an object key");
      }
      std::string key;
      if (!string(key)) return false;
      // Duplicate keys make a document ambiguous (which value wins depends
      // on the reader); the wire format rejects them outright so mutated
      // or hand-built input can never smuggle a second "cost" past the
      // first.
      if (out.find(key) != nullptr) {
        return fail("duplicate object key '" + key + "'");
      }
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ':') return fail("expected ':'");
      ++pos_;
      JsonValue member;
      if (!value(member, depth + 1)) return false;
      out.members.emplace_back(std::move(key), std::move(member));
      skip_ws();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < text_.size() && text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }

  bool array(JsonValue& out, int depth) {
    ++pos_;  // '['
    out.kind = JsonValue::Kind::kArray;
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      JsonValue element;
      if (!value(element, depth + 1)) return false;
      out.elements.push_back(std::move(element));
      skip_ws();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < text_.size() && text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

// ------------------------------------------------------------ field tables --
// Every wire struct is declared once, as a table of (key, member pointer,
// kind) entries. One walker writes any table as a compact object and one
// walker reads it back, so every document follows the reader rules stated
// in json.hpp.

/// Why a read failed: the dotted path of the offending field and what was
/// wrong with it.
struct ReadError {
  std::string path;
  std::string what;

  bool fail(std::string why) {
    what = std::move(why);
    return false;
  }
  /// Prefixes an enclosing key while a failure unwinds.
  bool within(std::string_view key) {
    path = path.empty() || path.front() == '['
               ? std::string(key) + path
               : std::string(key) + "." + path;
    return false;
  }
  bool within(std::size_t index) {
    return within("[" + std::to_string(index) + "]");
  }
  std::string text() const { return "malformed '" + path + "': " + what; }
};

/// The kind an entry gets when it names no converter: the one its member
/// type implies (see write_value and read_value).
struct Auto {};

/// One table entry: the JSON key, the member it maps, and its kind.
template <class Kind, class C, class M>
struct Field {
  std::string_view name;
  M C::*member;
};

template <class Kind = Auto, class C, class M>
constexpr Field<Kind, C, M> field(std::string_view name, M C::*member) {
  return {name, member};
}

/// The field table of wire struct T: a tuple of Field entries, in the
/// order they are written.
template <class T>
inline constexpr int kTable = 0;  // every wire struct specializes this

template <class Kind = Auto, class M>
void write_value(std::string& out, const M& value);
template <class Kind = Auto, class M>
bool read_value(const JsonValue& json, M* value, ReadError& err);
template <bool kOmitDefaults = false, class T>
void write_fields(std::string& out, const T& object, bool* first);
template <class T>
bool read_fields(const JsonValue& json, T* object, ReadError& err);

void write_key(std::string& out, std::string_view key, bool* first) {
  if (!*first) out += ',';
  *first = false;
  out += '"';
  out += key;  // table keys are plain identifiers
  out += "\":";
}

/// Reads member `key` of `object` into *value; a missing key keeps it.
template <class Kind = Auto, class M>
bool read_key(const JsonValue& object, std::string_view key, M* value,
              ReadError& err) {
  const JsonValue* json = object.find(key);
  if (json == nullptr || read_value<Kind>(*json, value, err)) return true;
  return err.within(key);
}

// ------------------------------------------------------------- converters --
// The few members whose wire shape is not a plain kind: each converter has
// write(out, value) and read(json, &value, err).

/// engine::Objective by name; an empty name keeps the default.
struct ObjectiveName {
  static void write(std::string& out, engine::Objective objective) {
    append_escaped(out, engine::to_string(objective));
  }
  static bool read(const JsonValue& json, engine::Objective* objective,
                   ReadError& err) {
    std::string name;
    if (!read_value(json, &name, err)) return false;
    if (name.empty()) return true;
    const auto parsed = engine::objective_from_string(name);
    if (!parsed.has_value()) {
      return err.fail("unknown objective '" + name + "'");
    }
    *objective = *parsed;
    return true;
  }
};

/// A signed member that must not be negative.
struct NonNegative {
  static void write(std::string& out, std::int64_t value) {
    append_number(out, value);
  }
  static bool read(const JsonValue& json, std::int64_t* value,
                   ReadError& err) {
    std::int64_t v = 0;
    if (!read_value(json, &v, err)) return false;
    if (v < 0) return err.fail("expected a non-negative integer");
    *value = v;
    return true;
  }
};

/// Instance jobs, each as its list of inclusive [lo, hi] intervals.
struct Jobs {
  static void write(std::string& out, const std::vector<Job>& jobs) {
    out += '[';
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      out += j > 0 ? ",[" : "[";
      const std::vector<Interval>& intervals = jobs[j].allowed.intervals();
      for (std::size_t k = 0; k < intervals.size(); ++k) {
        out += k > 0 ? ",[" : "[";
        append_number(out, intervals[k].lo);
        out += ',';
        append_number(out, intervals[k].hi);
        out += ']';
      }
      out += ']';
    }
    out += ']';
  }
  static bool read(const JsonValue& json, std::vector<Job>* jobs,
                   ReadError& err) {
    if (json.kind != JsonValue::Kind::kArray) {
      return err.fail("expected an array of jobs");
    }
    jobs->clear();
    jobs->reserve(json.elements.size());
    for (const JsonValue& job : json.elements) {
      if (job.kind != JsonValue::Kind::kArray) {
        return err.fail("each job must be an array of [lo, hi] intervals");
      }
      std::vector<Interval> intervals;
      intervals.reserve(job.elements.size());
      for (const JsonValue& iv : job.elements) {
        if (iv.kind != JsonValue::Kind::kArray || iv.elements.size() != 2 ||
            !iv.elements[0].is_integer || !iv.elements[1].is_integer) {
          return err.fail("each interval must be an integer pair [lo, hi]");
        }
        intervals.push_back(
            Interval{iv.elements[0].integer, iv.elements[1].integer});
      }
      jobs->push_back(Job{TimeSet(std::move(intervals))});
    }
    return true;
  }
};

/// A schedule on the wire: its job count and one slot per scheduled job
/// (processor -1 means profile form).
struct SlotWire {
  std::uint64_t job = std::numeric_limits<std::uint64_t>::max();
  Time time = 0;
  int processor = Placement::kUnassigned;
};

struct ScheduleWire {
  std::uint64_t jobs = 0;
  std::vector<SlotWire> slots;
};

/// The largest job count a schedule may claim. The count sizes the decoded
/// schedule before any slot is read, so an untrusted count must be bounded
/// to keep a few bytes of input from demanding a huge allocation.
constexpr std::uint64_t kMaxScheduleJobs = std::uint64_t{1} << 24;

/// Schedule <-> ScheduleWire; every slot must name a job below the count.
struct Slots {
  static void write(std::string& out, const Schedule& schedule) {
    ScheduleWire wire{schedule.size(), {}};
    for (std::size_t j = 0; j < schedule.size(); ++j) {
      if (const std::optional<Placement>& slot = schedule.at(j)) {
        wire.slots.push_back(SlotWire{j, slot->time, slot->processor});
      }
    }
    write_value(out, wire);
  }
  static bool read(const JsonValue& json, Schedule* schedule,
                   ReadError& err) {
    ScheduleWire wire;
    if (!read_value(json, &wire, err)) return false;
    if (wire.jobs > kMaxScheduleJobs) {
      err.fail("more than " + std::to_string(kMaxScheduleJobs) + " jobs");
      return err.within("jobs");
    }
    Schedule decoded(static_cast<std::size_t>(wire.jobs));
    for (std::size_t i = 0; i < wire.slots.size(); ++i) {
      const SlotWire& slot = wire.slots[i];
      if (slot.job >= wire.jobs) {
        err.fail("job index missing or out of range");
        err.within("job");
        err.within(i);
        return err.within("slots");
      }
      decoded.place(static_cast<std::size_t>(slot.job), slot.time,
                    slot.processor);
    }
    *schedule = std::move(decoded);
    return true;
  }
};

// ------------------------------------------------------------------ kinds --
// Without a converter, an entry's kind follows from its member type: bool,
// double, signed or unsigned integer, string, a vector (array), the
// per-stage map, or a struct with its own table (nested object).

template <class M>
inline constexpr bool kIsList = false;
template <class E>
inline constexpr bool kIsList<std::vector<E>> = true;

template <class M>
inline constexpr bool kIsStageMap = false;
template <class E>
inline constexpr bool kIsStageMap<std::array<E, engine::kPipelineStageCount>> =
    true;

template <class Kind, class M>
void write_value(std::string& out, const M& value) {
  if constexpr (!std::is_same_v<Kind, Auto>) {
    Kind::write(out, value);
  } else if constexpr (std::is_same_v<M, bool>) {
    out += value ? "true" : "false";
  } else if constexpr (std::is_arithmetic_v<M>) {
    append_number(out, value);
  } else if constexpr (std::is_convertible_v<const M&, std::string_view>) {
    append_escaped(out, value);
  } else if constexpr (kIsList<M>) {
    out += '[';
    for (std::size_t i = 0; i < value.size(); ++i) {
      if (i > 0) out += ',';
      write_value(out, value[i]);
    }
    out += ']';
  } else if constexpr (kIsStageMap<M>) {
    // Every PipelineStage, in order, keyed by its name.
    out += '{';
    bool first = true;
    for (std::size_t i = 0; i < value.size(); ++i) {
      write_key(out, engine::to_string(static_cast<engine::PipelineStage>(i)),
                &first);
      write_value(out, value[i]);
    }
    out += '}';
  } else {
    out += '{';
    bool first = true;
    write_fields(out, value, &first);
    out += '}';
  }
}

template <class Kind, class M>
bool read_value(const JsonValue& json, M* value, ReadError& err) {
  using K = JsonValue::Kind;
  if constexpr (!std::is_same_v<Kind, Auto>) {
    return Kind::read(json, value, err);
  } else if constexpr (std::is_same_v<M, bool>) {
    if (json.kind != K::kBool) return err.fail("expected a bool");
    *value = json.boolean;
  } else if constexpr (std::is_floating_point_v<M>) {
    if (json.kind != K::kNumber) return err.fail("expected a number");
    *value = json.number;
  } else if constexpr (std::is_integral_v<M>) {
    // Out-of-range wire input is an error, never a plausible wrong value.
    if (json.kind != K::kNumber || !json.is_integer) {
      return err.fail("expected an integer");
    }
    if (std::is_unsigned_v<M> && json.integer < 0) {
      return err.fail("expected a non-negative integer");
    }
    if (!std::in_range<M>(json.integer)) {
      return err.fail("integer out of range");
    }
    *value = static_cast<M>(json.integer);
  } else if constexpr (std::is_same_v<M, std::string>) {
    if (json.kind != K::kString) return err.fail("expected a string");
    *value = json.string;
  } else if constexpr (kIsList<M>) {
    if (json.kind != K::kArray) return err.fail("expected an array");
    value->assign(json.elements.size(), {});
    for (std::size_t i = 0; i < json.elements.size(); ++i) {
      if (!read_value(json.elements[i], &(*value)[i], err)) {
        return err.within(i);
      }
    }
  } else if constexpr (kIsStageMap<M>) {
    // Any subset of stages; an unknown name is a version skew the tallies
    // cannot absorb silently.
    if (json.kind != K::kObject) return err.fail("expected an object");
    for (const auto& [name, entry] : json.members) {
      const auto stage = engine::pipeline_stage_from_string(name);
      if (!stage.has_value()) {
        return err.fail("unknown pipeline stage '" + name + "'");
      }
      if (!read_value(entry, &(*value)[static_cast<std::size_t>(*stage)],
                      err)) {
        return err.within(name);
      }
    }
  } else {
    if (json.kind != K::kObject) return err.fail("expected an object");
    return read_fields(json, value, err);
  }
  return true;
}

// ---------------------------------------------------------------- walkers --

template <bool kOmitDefaults, class Kind, class C, class M>
void write_field(std::string& out, const C& object,
                 const Field<Kind, C, M>& f, bool* first) {
  if constexpr (kOmitDefaults) {
    static const C kDefaults{};
    if (object.*f.member == kDefaults.*f.member) return;
  }
  write_key(out, f.name, first);
  write_value<Kind>(out, object.*f.member);
}

template <bool kOmitDefaults, class T>
void write_fields(std::string& out, const T& object, bool* first) {
  std::apply(
      [&](const auto&... f) {
        (write_field<kOmitDefaults>(out, object, f, first), ...);
      },
      kTable<T>);
}

template <class Kind, class C, class M>
bool read_field(const JsonValue& json, C* object,
                const Field<Kind, C, M>& f, ReadError& err) {
  return read_key<Kind>(json, f.name, &(object->*f.member), err);
}

template <class T>
bool read_fields(const JsonValue& json, T* object, ReadError& err) {
  return std::apply(
      [&](const auto&... f) {
        return (read_field(json, object, f, err) && ...);
      },
      kTable<T>);
}

// ----------------------------------------------------------------- tables --

using engine::CacheStats;
using engine::SolveParams;
using engine::SolveRequest;
using engine::SolveResult;
using engine::SolveStats;
using engine::StageStats;
using engine::pipeline::PipelineStats;
using engine::pipeline::StageTally;

template <>
inline constexpr auto kTable<SolveParams> = std::tuple{
    field("alpha", &SolveParams::alpha),
    field("max_spans", &SolveParams::max_spans),
    field("powerdown_threshold", &SolveParams::powerdown_threshold),
    field("swap_size", &SolveParams::swap_size),
    field("block_size", &SolveParams::block_size),
    field("time_limit_s", &SolveParams::time_limit_s),
    field("validate", &SolveParams::validate),
    field("decompose", &SolveParams::decompose),
    field("compress", &SolveParams::compress),
};

template <>
inline constexpr auto kTable<Instance> = std::tuple{
    field("processors", &Instance::processors),
    field<Jobs>("jobs", &Instance::jobs),
};

template <>
inline constexpr auto kTable<SolveRequest> = std::tuple{
    field<ObjectiveName>("objective", &SolveRequest::objective),
    field("params", &SolveRequest::params),
    field("instance", &SolveRequest::instance),
};

template <>
inline constexpr auto kTable<StageStats> = std::tuple{
    field("ran", &StageStats::ran),
    field("ms", &StageStats::ms),
};

template <>
inline constexpr auto kTable<SolveStats> = std::tuple{
    field("wall_ms", &SolveStats::wall_ms),
    field("states", &SolveStats::states),
    field("nodes", &SolveStats::nodes),
    field("scheduled", &SolveStats::scheduled),
    field("components", &SolveStats::components),
    field("cache_hit", &SolveStats::cache_hit),
    field("component_cache_hits", &SolveStats::component_cache_hits),
    field("components_deduped", &SolveStats::components_deduped),
    field("dead_time_removed", &SolveStats::dead_time_removed),
    field("memo_arena_solves", &SolveStats::memo_arena_solves),
    field("memo_hash_solves", &SolveStats::memo_hash_solves),
    field("memo_parallel_solves", &SolveStats::memo_parallel_solves),
    field("memo_find_calls", &SolveStats::memo_find_calls),
    field("memo_probe_steps", &SolveStats::memo_probe_steps),
    field("memo_pruned", &SolveStats::memo_pruned),
    field("stages", &SolveStats::stages),
};

template <>
inline constexpr auto kTable<SlotWire> = std::tuple{
    field("job", &SlotWire::job),
    field("time", &SlotWire::time),
    field("processor", &SlotWire::processor),
};

template <>
inline constexpr auto kTable<ScheduleWire> = std::tuple{
    field("jobs", &ScheduleWire::jobs),
    field("slots", &ScheduleWire::slots),
};

template <>
inline constexpr auto kTable<SolveResult> = std::tuple{
    field("ok", &SolveResult::ok),
    field("error", &SolveResult::error),
    field("feasible", &SolveResult::feasible),
    field("cost", &SolveResult::cost),
    field("transitions", &SolveResult::transitions),
    field("timed_out", &SolveResult::timed_out),
    field("audited", &SolveResult::audited),
    field("audit_error", &SolveResult::audit_error),
    field("stats", &SolveResult::stats),
    field<Slots>("schedule", &SolveResult::schedule),
};

template <>
inline constexpr auto kTable<CacheStats> = std::tuple{
    field("hits", &CacheStats::hits),
    field("misses", &CacheStats::misses),
    field("insertions", &CacheStats::insertions),
    field("evictions", &CacheStats::evictions),
    field("entries", &CacheStats::entries),
    field("capacity", &CacheStats::capacity),
    field("disk_hits", &CacheStats::disk_hits),
    field("disk_rejects", &CacheStats::disk_rejects),
    field("spilled", &CacheStats::spilled),
    field("disk_entries", &CacheStats::disk_entries),
};

template <>
inline constexpr auto kTable<StageTally> = std::tuple{
    field("runs", &StageTally::runs),
    field("skips", &StageTally::skips),
    field("total_ms", &StageTally::total_ms),
};

template <>
inline constexpr auto kTable<PipelineStats> = std::tuple{
    field("requests", &PipelineStats::requests),
    field("stages", &PipelineStats::stages),
};

template <>
inline constexpr auto kTable<ShardStatsWire> = std::tuple{
    field<NonNegative>("shard", &ShardStatsWire::shard),
    field("requests", &ShardStatsWire::requests),
    field("rejected", &ShardStatsWire::rejected),
    field("timed_out", &ShardStatsWire::timed_out),
    field("refuted", &ShardStatsWire::refuted),
    field("cache_hits", &ShardStatsWire::cache_hits),
    field("component_cache_hits", &ShardStatsWire::component_cache_hits),
    field("pipeline", &ShardStatsWire::pipeline),
};

template <>
inline constexpr auto kTable<ServerStatsWire> = std::tuple{
    field("cache", &ServerStatsWire::cache),
    field("pipeline", &ServerStatsWire::pipeline),
    field("shards", &ServerStatsWire::shards),
};

template <>
inline constexpr auto kTable<FrameHead> = std::tuple{
    field("frame", &FrameHead::frame),
    field("id", &FrameHead::id),
    field("deadline_ms", &FrameHead::deadline_ms),
    field("message", &FrameHead::message),
};

template <>
inline constexpr auto kTable<HelloWire> = std::tuple{
    field("server", &HelloWire::server),
    field("protocol", &HelloWire::protocol),
    field("shards", &HelloWire::shards),
    field("solvers", &HelloWire::solvers),
};

// -------------------------------------------------------------- documents --

/// One compact top-level object: the frame header's non-default fields,
/// then the "gapsched" tag, then the body.
class DocWriter {
 public:
  explicit DocWriter(const FrameHead& head, std::string_view tag = {}) {
    out_ += '{';
    write_fields</*kOmitDefaults=*/true>(out_, head, &first_);
    if (!tag.empty()) field("gapsched", tag);
  }

  template <class M>
  DocWriter& field(std::string_view key, const M& value) {
    write_key(out_, key, &first_);
    write_value(out_, value);
    return *this;
  }

  template <class T>
  DocWriter& fields(const T& object) {
    write_fields(out_, object, &first_);
    return *this;
  }

  /// Closes the object and hands over its text.
  std::string str() {
    out_ += '}';
    return std::move(out_);
  }

 private:
  std::string out_;
  bool first_ = true;
};

/// Sets *error, when the caller asked for it, and returns nullopt.
std::nullopt_t reject(std::string* error, std::string why) {
  if (error != nullptr) *error = std::move(why);
  return std::nullopt;
}

/// Parses `text` and requires an object at the top level.
std::optional<JsonValue> parse_object(std::string_view text,
                                      std::string_view what,
                                      std::string* error) {
  Parser parser(text);
  std::optional<JsonValue> doc = parser.parse(error);
  if (doc.has_value() && doc->kind != JsonValue::Kind::kObject) {
    return reject(error, std::string(what) + " must be an object");
  }
  return doc;
}

/// Reads T's table from the top level of the document in `text`.
template <class T>
std::optional<T> read_document(std::string_view text, std::string_view what,
                               std::string* error) {
  const std::optional<JsonValue> doc = parse_object(text, what, error);
  if (!doc.has_value()) return std::nullopt;
  T value{};
  ReadError err;
  if (!read_fields(*doc, &value, err)) return reject(error, err.text());
  return value;
}

}  // namespace

std::string frame_to_json(const FrameHead& head) {
  return DocWriter(head).str();
}

std::string frame_to_json(const FrameHead& head, const HelloWire& hello) {
  return DocWriter(head).fields(hello).str();
}

std::string frame_to_json(const FrameHead& head, std::string_view solver,
                          const engine::SolveRequest& request) {
  return DocWriter(head, "request")
      .field("solver", solver)
      .fields(request)
      .str();
}

std::string frame_to_json(const FrameHead& head,
                          const engine::SolveResult& result) {
  return DocWriter(head, "result").fields(result).str();
}

std::string frame_to_json(const FrameHead& head,
                          const ServerStatsWire& stats) {
  return DocWriter(head, "server_stats").fields(stats).str();
}

std::string request_to_json(std::string_view solver,
                            const engine::SolveRequest& request) {
  return frame_to_json(FrameHead{}, solver, request);
}

std::optional<engine::SolveRequest> request_from_json(std::string_view text,
                                                      std::string* solver,
                                                      std::string* error) {
  const std::optional<JsonValue> doc =
      parse_object(text, "request document", error);
  if (!doc.has_value()) return std::nullopt;
  std::string name;
  engine::SolveRequest request;
  ReadError err;
  if (!read_key(*doc, "solver", &name, err) ||
      !read_fields(*doc, &request, err)) {
    return reject(error, err.text());
  }
  if (name.empty()) return reject(error, "missing 'solver' field");
  const JsonValue* instance = doc->find("instance");
  if (instance == nullptr || instance->find("jobs") == nullptr) {
    return reject(error, "missing 'instance.jobs' array");
  }
  if (solver != nullptr) *solver = std::move(name);
  return request;
}

std::string result_to_json(const engine::SolveResult& result) {
  return frame_to_json(FrameHead{}, result);
}

std::optional<engine::SolveResult> result_from_json(std::string_view text,
                                                    std::string* error) {
  return read_document<engine::SolveResult>(text, "result document", error);
}

std::string cache_stats_to_json(const engine::CacheStats& stats) {
  return DocWriter(FrameHead{}, "cache_stats").fields(stats).str();
}

std::optional<engine::CacheStats> cache_stats_from_json(std::string_view text,
                                                        std::string* error) {
  return read_document<engine::CacheStats>(text, "cache stats document",
                                           error);
}

std::string pipeline_stats_to_json(
    const engine::pipeline::PipelineStats& stats) {
  return DocWriter(FrameHead{}, "pipeline_stats").fields(stats).str();
}

std::optional<engine::pipeline::PipelineStats> pipeline_stats_from_json(
    std::string_view text, std::string* error) {
  return read_document<engine::pipeline::PipelineStats>(
      text, "pipeline stats document", error);
}

std::string server_stats_to_json(const ServerStatsWire& stats) {
  return frame_to_json(FrameHead{}, stats);
}

std::optional<ServerStatsWire> server_stats_from_json(std::string_view text,
                                                      std::string* error) {
  return read_document<ServerStatsWire>(text, "server stats document", error);
}

std::optional<FrameHead> frame_head_from_json(std::string_view text,
                                              std::string* error) {
  std::optional<FrameHead> head =
      read_document<FrameHead>(text, "frame", error);
  if (!head.has_value()) return std::nullopt;
  if (head->frame.empty()) return reject(error, "missing 'frame' field");
  if (head->deadline_ms < 0.0 || !std::isfinite(head->deadline_ms)) {
    return reject(error, "malformed 'deadline_ms': expected a finite, "
                       "non-negative number");
  }
  return head;
}

}  // namespace gapsched::io
