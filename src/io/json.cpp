#include "gapsched/io/json.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <list>
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
// Reading builds no tree: one pass over the text checks the syntax and
// reads the fields together. Every byte is checked, including members the
// table does not know and values of the wrong type, which are checked as
// they are stepped over; so a syntax error anywhere still wins over a
// field error, and each error names the byte offset a check-first reader
// would name.

/// '+', '-', '.', the digits, 'e' and 'E': the characters of a number.
bool is_number_char(char c) {
  constexpr std::uint64_t kSet = [] {
    std::uint64_t set = 0;
    for (char n : std::string_view("0123456789.eE+-")) set |= 1ull << (n - '+');
    return set;
  }();
  const unsigned i = static_cast<unsigned char>(c) - unsigned{'+'};
  return i < 64 && ((kSet >> i) & 1) != 0;
}

/// A number token's value by std::from_chars, or by strtod whenever
/// from_chars stops short or fails (so 1e99999 still reads as inf);
/// nullopt when strtod does not read the whole token either.
std::optional<double> to_double(std::string_view token) {
  double value = 0.0;
  const char* end = token.data() + token.size();
  if (const auto [stop, ec] = std::from_chars(token.data(), end, value);
      ec == std::errc() && stop == end) {
    return value;
  }
  const std::string copy(token);
  char* tail = nullptr;
  value = std::strtod(copy.c_str(), &tail);  // ERANGE gives inf or 0: kept
  if (tail != copy.c_str() + copy.size()) return std::nullopt;
  return value;
}

/// The text of a checked string (between its quotes) with escapes
/// resolved. The engine documents are ASCII: a \u escape above it degrades
/// to '?'.
std::string unescape(std::string_view body) {
  constexpr std::string_view kControl = "n\nt\tr\rb\bf\f";
  std::string out;
  out.reserve(body.size());
  for (std::size_t i = 0; i < body.size(); ++i) {
    char c = body[i];
    if (c == '\\') {
      c = body[++i];  // '"', '\\' and '/' stand for themselves
      if (c == 'u') {
        unsigned code = 0;
        std::from_chars(body.data() + i + 1, body.data() + i + 5, code, 16);
        c = code < 0x80 ? static_cast<char>(code) : '?';
        i += 4;
      } else if (const std::size_t k = kControl.find(c); k != kControl.npos) {
        c = kControl[k + 1];
      }
    }
    out += c;
  }
  return out;
}

/// A read position in a document, and its syntax checks: standard JSON (no
/// comments, no trailing commas), nested at most kMaxParseDepth deep, no
/// key twice in one object, nothing after the value. The first syntax
/// error sticks (broken()) and names its byte offset. The typed reads
/// (boolean, number, ...) return nullopt or false both on a syntax error
/// and on a value of another type; broken() tells the two apart.
class Reader {
 public:
  explicit Reader(std::string_view text) : text_(text) {}

  /// Where the reader stands; reset() returns there to step over a value
  /// again.
  struct Mark {
    std::size_t pos, depth, keys;
  };
  Mark mark() const { return {pos_, depth_, keys_.size()}; }
  void reset(const Mark& m) {
    pos_ = m.pos;
    depth_ = m.depth;
    keys_.resize(m.keys);
  }

  bool broken() const { return !error_.empty(); }
  const std::string& error() const { return error_; }

  /// The next non-blank character; '\0' at the end of the text.
  char peek() {
    for (; pos_ < text_.size(); ++pos_) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') return c;
    }
    return '\0';
  }

  /// Checks that nothing but blanks follows the document.
  bool finish() {
    peek();
    return pos_ == text_.size() || fail("trailing characters after document");
  }

  /// Checks and steps over one value.
  bool value() {
    // depth_ counts the containers entered, so the value sits at nesting
    // level depth_ + 1: reject exactly the documents nested deeper than
    // kMaxParseDepth.
    if (depth_ >= kMaxParseDepth) return fail("document nested too deeply");
    const char c = peek();
    if (pos_ == text_.size()) return fail("unexpected end of document");
    if (c == '{') return object([this](std::string_view) { return value(); });
    if (c == '[') return array([this] { return value(); });
    if (c == '"') return string_body(nullptr, nullptr);
    if (is_number_char(c)) return number().has_value();
    for (const std::string_view word : {"true", "false", "null"}) {
      if (c == word[0]) return literal(word);
    }
    return fail("expected a value");
  }

  /// Steps through the object at the cursor, calling member(key) with the
  /// reader on each member's value. member steps over the value, or
  /// returns false to stop the walk (the walk then returns false).
  template <class F>
  bool object(F&& member) {
    ++pos_;  // '{'
    if (eat('}')) return true;
    ++depth_;
    const std::size_t first_key = keys_.size();
    do {
      if (peek() != '"') return fail("expected an object key");
      std::string_view key;
      bool escaped = false;
      if (!string_body(&key, &escaped)) return false;
      if (escaped) key = unescaped_.emplace_back(unescape(key));
      // Duplicate keys make a document ambiguous (which value wins depends
      // on the reader); the wire format rejects them outright so mutated
      // or hand-built input can never smuggle a second "cost" past the
      // first.
      if (std::find(keys_.begin() + first_key, keys_.end(), key) !=
          keys_.end()) {
        return fail("duplicate object key '" + std::string(key) + "'");
      }
      keys_.push_back(key);
      if (!eat(':')) return fail("expected ':'");
      if (!member(key)) return false;
    } while (eat(','));
    --depth_;
    keys_.resize(first_key);
    return eat('}') || fail("expected ',' or '}'");
  }

  /// Steps through the array at the cursor, calling element() on each
  /// element, as object() does.
  template <class F>
  bool array(F&& element) {
    ++pos_;  // '['
    if (eat(']')) return true;
    ++depth_;
    do {
      if (!element()) return false;
    } while (eat(','));
    --depth_;
    return eat(']') || fail("expected ',' or ']'");
  }

  std::optional<bool> boolean() {
    const char c = peek();
    if ((c != 't' && c != 'f') || !literal(c == 't' ? "true" : "false")) {
      return std::nullopt;
    }
    return c == 't';
  }

  /// A token strtod reads whole (an integral one always is); any other
  /// run of number characters is malformed.
  std::optional<double> number() {
    if (!is_number_char(peek())) return std::nullopt;
    const std::optional<double> value = to_double(token());
    if (!value.has_value()) fail("malformed number");
    return value;
  }

  /// An integral token (an optional '-', then digits) that fits int64:
  /// what from_chars reads. Where it stops short of the token's end or
  /// fails, strtoll's rule says "no integer" too.
  std::optional<std::int64_t> integer() {
    const std::size_t start = (peek(), pos_);
    std::int64_t value = 0;
    const char* first = text_.data() + start;
    const auto [stop, ec] =
        std::from_chars(first, text_.data() + text_.size(), value);
    pos_ += static_cast<std::size_t>(stop - first);
    const bool ended = pos_ == text_.size() || !is_number_char(text_[pos_]);
    if (ec == std::errc() && ended) return value;
    pos_ = start;  // check the token again as a number
    number();
    return std::nullopt;
  }

  bool string(std::string* out) {
    std::string_view body;
    bool escaped = false;
    if (peek() != '"' || !string_body(&body, &escaped)) return false;
    *out = escaped ? unescape(body) : std::string(body);
    return true;
  }

 private:
  bool fail(std::string msg) {
    if (error_.empty()) {
      error_ = std::move(msg) + " (at byte " + std::to_string(pos_) + ")";
    }
    return false;
  }

  bool eat(char c) {
    if (peek() != c) return false;
    ++pos_;
    return true;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return fail("bad literal");
    pos_ += word.size();
    return true;
  }

  /// The run of number characters at the cursor.
  std::string_view token() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() && is_number_char(text_[pos_])) ++pos_;
    return text_.substr(start, pos_ - start);
  }

  /// Checks the string at pos_; *body, when asked, gets its text between
  /// the quotes, and *escaped whether it has escapes.
  bool string_body(std::string_view* body, bool* escaped) {
    const std::size_t start = ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        if (body != nullptr) *body = text_.substr(start, pos_ - 1 - start);
        return true;
      }
      if (c != '\\') continue;
      if (escaped != nullptr) *escaped = true;
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      if (esc == 'u') {
        if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
        for (int i = 0; i < 4; ++i) {
          if (!std::isxdigit(static_cast<unsigned char>(text_[pos_++]))) {
            return fail("bad \\u escape");
          }
        }
      } else if (std::string_view("\"\\/ntrbf").find(esc) ==
                 std::string_view::npos) {
        return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
  std::string error_;
  /// The keys of every object being walked, innermost last.
  std::vector<std::string_view> keys_;
  /// Storage for the keys that had escapes.
  std::list<std::string> unescaped_;
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
bool read_value(Reader& in, M* value, ReadError& err);
template <bool kOmitDefaults = false, class T>
void write_fields(std::string& out, const T& object, bool* first);
template <class T>
bool read_fields(Reader& in, T* object, ReadError& err);

void write_key(std::string& out, std::string_view key, bool* first) {
  if (!*first) out += ',';
  *first = false;
  out += '"';
  out += key;  // table keys are plain identifiers
  out += "\":";
}

/// Steps `in` onto the value of member `key` of the object at the cursor,
/// if it has one. Only for documents already read whole: it stops
/// mid-object.
bool enter(Reader& in, std::string_view key) {
  bool found = false;
  if (in.peek() != '{') return false;
  in.object([&](std::string_view k) {
    found = k == key;
    return !found && in.value();
  });
  return found;
}

// ------------------------------------------------------------- converters --
// The few members whose wire shape is not a plain kind: each converter has
// write(out, value) and read(in, &value, err).

/// engine::Objective by name; an empty name keeps the default.
struct ObjectiveName {
  static void write(std::string& out, engine::Objective objective) {
    append_escaped(out, engine::to_string(objective));
  }
  static bool read(Reader& in, engine::Objective* objective,
                   ReadError& err) {
    std::string name;
    if (!read_value(in, &name, err)) return false;
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
  static bool read(Reader& in, std::int64_t* value, ReadError& err) {
    std::int64_t v = 0;
    if (!read_value(in, &v, err)) return false;
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
  static bool read(Reader& in, std::vector<Job>* jobs, ReadError& err) {
    if (in.peek() != '[') return err.fail("expected an array of jobs");
    jobs->clear();
    return in.array([&] {
      if (in.peek() != '[') {
        return err.fail("each job must be an array of [lo, hi] intervals");
      }
      std::vector<Interval> intervals;
      const bool read = in.array([&] {
        std::optional<Time> pair[2];
        std::size_t n = 0;
        if (in.peek() != '[' ||
            !in.array([&] { return n < 2 && (pair[n++] = in.integer()); }) ||
            n != 2) {
          return err.fail("each interval must be an integer pair [lo, hi]");
        }
        intervals.push_back(Interval{*pair[0], *pair[1]});
        return true;
      });
      if (read) jobs->push_back(Job{TimeSet(std::move(intervals))});
      return read;
    });
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
  static bool read(Reader& in, Schedule* schedule, ReadError& err) {
    ScheduleWire wire;
    if (!read_value(in, &wire, err)) return false;
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
bool read_value(Reader& in, M* value, ReadError& err) {
  if constexpr (!std::is_same_v<Kind, Auto>) {
    return Kind::read(in, value, err);
  } else if constexpr (std::is_same_v<M, bool>) {
    const std::optional<bool> b = in.boolean();
    if (!b.has_value()) return err.fail("expected a bool");
    *value = *b;
  } else if constexpr (std::is_floating_point_v<M>) {
    const std::optional<double> v = in.number();
    if (!v.has_value()) return err.fail("expected a number");
    *value = *v;
  } else if constexpr (std::is_integral_v<M>) {
    // Out-of-range wire input is an error, never a plausible wrong value.
    const std::optional<std::int64_t> v = in.integer();
    if (!v.has_value()) return err.fail("expected an integer");
    if (std::is_unsigned_v<M> && *v < 0) {
      return err.fail("expected a non-negative integer");
    }
    if (!std::in_range<M>(*v)) return err.fail("integer out of range");
    *value = static_cast<M>(*v);
  } else if constexpr (std::is_same_v<M, std::string>) {
    if (!in.string(value)) return err.fail("expected a string");
  } else if constexpr (kIsList<M>) {
    if (in.peek() != '[') return err.fail("expected an array");
    value->clear();
    return in.array([&] {
      return read_value(in, &value->emplace_back(), err) ||
             err.within(value->size() - 1);
    });
  } else if constexpr (kIsStageMap<M>) {
    // Any subset of stages; an unknown name is a version skew the tallies
    // cannot absorb silently.
    if (in.peek() != '{') return err.fail("expected an object");
    return in.object([&](std::string_view name) {
      const auto stage = engine::pipeline_stage_from_string(name);
      if (!stage.has_value()) {
        return err.fail("unknown pipeline stage '" + std::string(name) + "'");
      }
      return read_value(in, &(*value)[static_cast<std::size_t>(*stage)],
                        err) ||
             err.within(name);
    });
  } else {
    if (in.peek() != '{') return err.fail("expected an object");
    return read_fields(in, value, err);
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
bool read_field(Reader& in, C* object, const Field<Kind, C, M>& f,
                ReadError& err) {
  return read_value<Kind>(in, &(object->*f.member), err) || err.within(f.name);
}

/// Reads the members of the object at `in` in document order; a missing
/// key keeps its default. Entries fail independently, so when several are
/// bad the one reported is the first in the table, exactly as a walk of the
/// table in order would find. A bad value is checked again from its start
/// as it is stepped over, so a later syntax error still wins.
template <class T>
bool read_fields(Reader& in, T* object, ReadError& err) {
  constexpr std::size_t kN =
      std::tuple_size_v<std::decay_t<decltype(kTable<T>)>>;
  std::size_t first_bad = kN;
  const bool walked = in.object([&](std::string_view key) {
    const Reader::Mark start = in.mark();
    std::size_t index = kN;
    ReadError field_err;
    const bool ok = [&]<std::size_t... I>(std::index_sequence<I...>) {
      return ((std::get<I>(kTable<T>).name != key ||
               (index = I, read_field(in, object, std::get<I>(kTable<T>),
                                      field_err))) &&
              ...);
    }(std::make_index_sequence<kN>{});
    if (ok && index < kN) return true;
    if (in.broken()) return false;
    if (!ok && index < first_bad) {
      first_bad = index;
      err = std::move(field_err);
    }
    in.reset(start);  // step over an unknown member or all of a bad one
    return in.value();
  });
  return walked && first_bad == kN;
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

/// Reads the document in `text` in one pass, read(in) walking its
/// top-level object. nullopt (*error set) on a syntax error or a top level
/// that is no object, which win over any field error; else whether read
/// succeeded.
template <class F>
std::optional<bool> read_top(std::string_view text, std::string_view what,
                             std::string* error, F&& read) {
  Reader in(text);
  const bool object = in.peek() == '{';
  const bool read_ok = object ? read(in) : in.value();
  if (in.broken() || !in.finish()) return reject(error, in.error());
  if (!object) return reject(error, std::string(what) + " must be an object");
  return read_ok;
}

/// Reads T's table from the top level of the document in `text`.
template <class T>
std::optional<T> read_document(std::string_view text, std::string_view what,
                               std::string* error) {
  T value{};
  ReadError err;
  const std::optional<bool> read =
      read_top(text, what, error,
               [&](Reader& in) { return read_fields(in, &value, err); });
  if (!read.has_value()) return std::nullopt;
  if (!*read) return reject(error, err.text());
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
  engine::SolveRequest request;
  ReadError body;
  const std::optional<bool> read =
      read_top(text, "request document", error, [&](Reader& in) {
        return read_fields(in, &request, body);
      });
  if (!read.has_value()) return std::nullopt;
  // The document is whole now; its solver name reads first.
  std::string name;
  ReadError err;
  if (Reader in(text); enter(in, "solver") &&
                       !(read_value(in, &name, err) || err.within("solver"))) {
    return reject(error, err.text());
  }
  if (!*read) return reject(error, body.text());
  if (name.empty()) return reject(error, "missing 'solver' field");
  if (Reader in(text); request.instance.jobs.empty() &&
                       !(enter(in, "instance") && enter(in, "jobs"))) {
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
