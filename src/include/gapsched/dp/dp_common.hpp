#pragma once
// Shared machinery for the Theorem 1 / Theorem 2 dynamic programs.
//
// State layout (Section 2 of the paper, notation adapted):
//   W(t1, t2, k, q, l1, l2)
// where [t1, t2] is a window of candidate times, the job set is the k
// earliest-deadline jobs (global (deadline, id) order) released in [t1, t2],
// q of the occupants of time t2 were committed by ancestor subproblems, and
// l1 / l2 are the occupancy (gap version) or active-processor count (power
// version) at t1 / t2. The window owns the boundary cost Delta(t) for every
// t in (t1, t2]; parents own the glue Delta at child seams.
//
// Scheduling times t' for the split job jk range over *core* candidate times
// (Prop 2.1 neighbourhoods); window seams t'+1 live in the +1 closure.
//
// Two memo layouts back the recursion (selected per solve, see
// dp_engine.hpp): the open-addressing MemoTable keyed on the 128-bit packed
// StateKey, and a dense direct-indexed ArenaMemo over the state box.

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "gapsched/core/candidate_times.hpp"
#include "gapsched/core/instance.hpp"
#include "gapsched/dp/dp_stats.hpp"

namespace gapsched::dp {

/// Shared "infinite cost" sentinel for the integer-valued DPs. Kept far
/// below INT64_MAX so that a few stray additions cannot wrap, but all cost
/// additions must still go through add_sat so sums of near-sentinel values
/// clamp at the sentinel instead of drifting past it (and eventually
/// overflowing) on near-infeasible instances.
constexpr std::int64_t kInfCost = std::numeric_limits<std::int64_t>::max() / 4;

/// Saturating cost addition: any operand at or beyond the sentinel, or any
/// sum that would cross it, yields exactly kInfCost. Requires a, b >= 0
/// (the overflow test `a > kInfCost - b` is only sound for non-negative
/// operands; DP costs are counts and never go negative — asserted here so
/// a future negative-cost path fails fast instead of wrapping).
constexpr std::int64_t add_sat(std::int64_t a, std::int64_t b) {
  assert(a >= 0 && b >= 0 && "add_sat requires non-negative operands");
  return (a >= kInfCost || b >= kInfCost || a > kInfCost - b) ? kInfCost
                                                              : a + b;
}

/// Bit widths of the packed 128-bit state key (StateKey): the two window
/// indices i1/i2 get kThetaIndexBits each, and k/q/l1/l2 get kCountBits
/// each. Every capacity limit below derives from these widths, so the
/// limit text in limit_violation() cannot drift from the real key layout.
constexpr unsigned kThetaIndexBits = 20;
constexpr unsigned kCountBits = 12;

constexpr std::size_t kMaxThetaSize = std::size_t{1} << kThetaIndexBits;
constexpr std::size_t kMaxDpJobs = (std::size_t{1} << kCountBits) - 1;
constexpr int kMaxDpProcessors = (1 << kCountBits) - 1;

/// Packed 2x64-bit state key: i1 | i2 | k in the high word (20+20+12 bits)
/// and q | l1 | l2 in the low word (12+12+12 bits). Limits
/// (|theta| < 2^20, n <= 4095, p <= 4095) are enforced by
/// DpContext::limit_violation(), which every Theorem 1/2 solver checks
/// before its first pack_state call — an oversized instance would alias
/// keys and silently return wrong optima.
struct StateKey {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const StateKey& a, const StateKey& b) {
    return a.hi == b.hi && a.lo == b.lo;
  }
  friend bool operator!=(const StateKey& a, const StateKey& b) {
    return !(a == b);
  }
};

inline StateKey pack_state(std::size_t i1, std::size_t i2, std::size_t k,
                           int q, int l1, int l2) {
  StateKey key;
  key.hi = (static_cast<std::uint64_t>(i1) << (kThetaIndexBits + kCountBits)) |
           (static_cast<std::uint64_t>(i2) << kCountBits) |
           static_cast<std::uint64_t>(k);
  key.lo = (static_cast<std::uint64_t>(q) << (2 * kCountBits)) |
           (static_cast<std::uint64_t>(l1) << kCountBits) |
           static_cast<std::uint64_t>(l2);
  return key;
}

/// Immutable per-solve context: deadline-sorted jobs and the candidate-time
/// axis with core flags.
struct DpContext {
  const Instance* inst = nullptr;
  /// Job indices sorted by (deadline, id); the DP's canonical job order.
  std::vector<std::size_t> by_deadline;
  /// Sorted candidate times (core + plus-one closure).
  std::vector<Time> theta;
  /// is_core[i]: theta[i] is a legal scheduling time (Prop 2.1 core).
  std::vector<char> is_core;
  /// release/deadline of by_deadline[x], flattened so the hot job-set scan
  /// reads two contiguous arrays instead of chasing Job objects.
  std::vector<Time> release_bd;
  std::vector<Time> deadline_bd;

  explicit DpContext(const Instance& instance) : inst(&instance) {
    assert(instance.is_one_interval() &&
           "the Theorem 1/2 DP requires one-interval (release/deadline) jobs");
    by_deadline.resize(instance.n());
    for (std::size_t i = 0; i < instance.n(); ++i) by_deadline[i] = i;
    std::sort(by_deadline.begin(), by_deadline.end(),
              [&](std::size_t a, std::size_t b) {
                const Time da = instance.jobs[a].deadline();
                const Time db = instance.jobs[b].deadline();
                return da != db ? da < db : a < b;
              });
    release_bd.reserve(instance.n());
    deadline_bd.reserve(instance.n());
    for (std::size_t j : by_deadline) {
      release_bd.push_back(instance.jobs[j].release());
      deadline_bd.push_back(instance.jobs[j].deadline());
    }
    theta = candidate_times(instance, /*plus_one_closure=*/true);
    const std::vector<Time> core = candidate_times(instance, false);
    is_core.assign(theta.size(), 0);
    std::size_t ci = 0;
    for (std::size_t i = 0; i < theta.size(); ++i) {
      while (ci < core.size() && core[ci] < theta[i]) ++ci;
      if (ci < core.size() && core[ci] == theta[i]) is_core[i] = 1;
    }
  }

  /// Non-empty diagnostic when the instance exceeds the StateKey bit-field
  /// capacity (|theta| < 2^20, n <= 4095, p <= 4095 — all derived from
  /// kThetaIndexBits / kCountBits). Solving past these limits silently
  /// aliases memo keys and returns wrong optima, so the Theorem 1/2
  /// solvers reject instead. The engine's prep decomposition usually
  /// shrinks components far below the limits before they bind, so a
  /// rejection means a single cluster is genuinely too big.
  std::string limit_violation() const {
    if (theta.size() >= kMaxThetaSize) {
      return "candidate-time axis has " + std::to_string(theta.size()) +
             " entries; the DP's packed state keys hold at most " +
             std::to_string(kMaxThetaSize - 1);
    }
    if (inst->n() > kMaxDpJobs) {
      return "n = " + std::to_string(inst->n()) +
             " exceeds the DP's packed-key job limit " +
             std::to_string(kMaxDpJobs);
    }
    if (inst->processors > kMaxDpProcessors) {
      return "p = " + std::to_string(inst->processors) +
             " exceeds the DP's packed-key processor limit " +
             std::to_string(kMaxDpProcessors);
    }
    return "";
  }

  std::size_t index_of(Time t) const {
    auto it = std::lower_bound(theta.begin(), theta.end(), t);
    assert(it != theta.end() && *it == t);
    return static_cast<std::size_t>(it - theta.begin());
  }

  /// The k earliest-deadline jobs released in [t1, t2] (original job ids, in
  /// deadline order). Returns fewer than k entries if not enough exist.
  std::vector<std::size_t> job_set(Time t1, Time t2, std::size_t k) const {
    std::vector<std::size_t> out;
    out.reserve(k);
    fill_job_set(t1, t2, k, out);
    return out;
  }

  /// Allocation-free job_set: fills `out` with positions into by_deadline
  /// (not original job ids) so callers can read release_bd/deadline_bd
  /// directly. The recursion reuses per-depth scratch vectors through this.
  void fill_job_positions(Time t1, Time t2, std::size_t k,
                          std::vector<std::size_t>& out) const {
    out.clear();
    for (std::size_t x = 0; x < release_bd.size(); ++x) {
      if (out.size() == k) break;
      const Time a = release_bd[x];
      if (t1 <= a && a <= t2) out.push_back(x);
    }
  }

 private:
  void fill_job_set(Time t1, Time t2, std::size_t k,
                    std::vector<std::size_t>& out) const {
    for (std::size_t x = 0; x < release_bd.size(); ++x) {
      if (out.size() == k) break;
      const Time a = release_bd[x];
      if (t1 <= a && a <= t2) out.push_back(by_deadline[x]);
    }
  }
};

/// How the optimum of a state was achieved, for schedule reconstruction.
/// Kept trivial (no default member initializers) and 12 bytes wide so the
/// arena can leave its choice plane uninitialized; always value-initialize
/// (`Choice c{};`) at construction sites.
struct Choice {
  enum class Kind : std::uint8_t {
    kBaseEmpty,   // k == 0 (the all-zero default, matching value-init)
    kBasePoint,   // t1 == t2, all k jobs there
    kAtRightEdge, // jk at t' == t2, recurse (k-1, q+1)
    kSplit,       // jk at t' < t2, left/right children
  };
  std::uint32_t tprime_idx; // index into theta (kAtRightEdge/kSplit)
  std::uint16_t right_jobs; // jobs released after t' (kSplit); < n <= 4095
  std::int16_t lprime;      // occupancy/active at t' (kSplit)
  std::int16_t ldprime;     // occupancy/active at t'+1 (kSplit)
  Kind kind;
};
static_assert(sizeof(Choice) <= 12, "Choice packing regressed");

/// Memoization table shared by the Theorem 1/2 solvers: an insert-only
/// open-addressing hash map from packed state keys to (value, Choice), i.e.
/// one probe serves both the memo hit and the later reconstruction walk.
/// Linear probing over a power-of-two slot array of plain structs keeps the
/// hot path allocation-free and cache-friendly.
template <class Value>
class MemoTable {
 public:
  struct Entry {
    StateKey key;
    Value value{};
    Choice choice{};
  };

  explicit MemoTable(std::size_t expected = 0) {
    // Smallest power-of-two capacity with load factor <= 0.7 for the hint.
    // The naive `cap * 7 < expected * 10` comparison overflows `expected *
    // 10` (and then `cap * 7`) for very large hints, turning the loop into
    // an allocation bomb; keep both products inside 64 bits by dividing
    // instead, and clamp the pre-allocation — grow() covers any honest
    // hint beyond the clamp at the usual amortized cost. The floor is
    // deliberately small: component solves from the prep decomposition
    // pipeline memoize a handful of states, and zeroing a large table was
    // the dominant cost of solving a tiny cluster.
    constexpr std::size_t kMaxInitialCap = std::size_t{1} << 18;
    std::size_t cap = 64;
    while (cap < kMaxInitialCap && cap * 7 / 10 < expected) cap <<= 1;
    slots_.resize(cap);
    used_.assign(cap, 0);
  }

  std::size_t size() const { return size_; }

  /// Linear-probe steps beyond the home slot, summed over all find()s —
  /// the collision cost the dense arena layout eliminates.
  std::uint64_t probe_steps() const { return probe_steps_; }

  /// Entry for `key`, or nullptr. The pointer is invalidated by insert().
  const Entry* find(const StateKey& key) const {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = mix(key) & mask;; i = (i + 1) & mask) {
      if (!used_[i]) return nullptr;
      if (slots_[i].key == key) return &slots_[i];
      ++probe_steps_;
    }
  }

  /// Inserts a new entry; `key` must not be present.
  void insert(const StateKey& key, const Value& value, const Choice& choice) {
    if ((size_ + 1) * 10 > slots_.size() * 7) grow();
    place(key, value, choice);
    ++size_;
  }

 private:
  /// splitmix64 finalizer over a fold of both words. pack_state keys share
  /// long runs of equal bits within one solve; full-avalanche mixing
  /// spreads them across the table so probe chains stay short.
  static std::uint64_t mix(const StateKey& key) {
    std::uint64_t x = key.lo ^ (key.hi * 0x9e3779b97f4a7c15ull);
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

  void place(const StateKey& key, const Value& value, const Choice& choice) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = mix(key) & mask;
    while (used_[i]) i = (i + 1) & mask;
    used_[i] = 1;
    slots_[i] = Entry{key, value, choice};
  }

  void grow() {
    std::vector<Entry> old_slots = std::move(slots_);
    std::vector<char> old_used = std::move(used_);
    slots_.assign(old_slots.size() * 2, Entry{});
    used_.assign(old_slots.size() * 2, 0);
    for (std::size_t i = 0; i < old_slots.size(); ++i) {
      if (old_used[i]) {
        place(old_slots[i].key, old_slots[i].value, old_slots[i].choice);
      }
    }
  }

  std::vector<Entry> slots_;
  std::vector<char> used_;
  std::size_t size_ = 0;
  mutable std::uint64_t probe_steps_ = 0;
};

/// Dense direct-indexed memo over the state box
///   [i_base, i_base + extent) ^ 2  x  [0, k_max]  x  [0, q_max]
///   x  [0, l_max] ^ 2
/// chosen when the box volume fits DpOptions::arena_max_entries. A lookup
/// is one mixed-radix index computation and one byte load — no hashing, no
/// probing, no growth. A zeroed byte flag per entry marks presence, so the
/// value and choice planes can stay uninitialized.
template <class Value>
class ArenaMemo {
 public:
  ArenaMemo(std::size_t i_base, std::size_t extent, std::size_t k_max,
            int q_max, int l_max)
      : i_base_(i_base),
        d_q_(static_cast<std::uint64_t>(q_max) + 1),
        d_l_(static_cast<std::uint64_t>(l_max) + 1),
        stride_k_(d_q_ * d_l_ * d_l_),
        stride_i2_(stride_k_ * (static_cast<std::uint64_t>(k_max) + 1)),
        stride_i1_(stride_i2_ * extent),
        volume_(stride_i1_ * extent),
        flags_(new std::uint8_t[volume_]()),
        values_(new Value[volume_]),
        choices_(new Choice[volume_]) {}

  std::uint64_t volume() const { return volume_; }
  std::size_t size() const { return size_; }
  /// Always 0: direct indexing never probes. Mirrors HashMemo so run_dp
  /// reads both layouts the same way.
  std::uint64_t probe_steps() const { return 0; }

  bool find(std::size_t i1, std::size_t i2, std::size_t k, int q, int l1,
            int l2, Value* value) const {
    const std::uint64_t at = index(i1, i2, k, q, l1, l2);
    if (flags_[at] == 0) return false;
    *value = values_[at];
    return true;
  }

  void insert(std::size_t i1, std::size_t i2, std::size_t k, int q, int l1,
              int l2, const Value& value, const Choice& choice) {
    const std::uint64_t at = index(i1, i2, k, q, l1, l2);
    assert(flags_[at] == 0);
    values_[at] = value;
    choices_[at] = choice;
    flags_[at] = 1;
    ++size_;
  }

  /// Choice of a memoized state (the reconstruction walk).
  const Choice& choice_at(std::size_t i1, std::size_t i2, std::size_t k,
                          int q, int l1, int l2) const {
    const std::uint64_t at = index(i1, i2, k, q, l1, l2);
    assert(flags_[at] != 0);
    return choices_[at];
  }

 private:
  std::uint64_t index(std::size_t i1, std::size_t i2, std::size_t k, int q,
                      int l1, int l2) const {
    assert(i1 >= i_base_ && i2 >= i_base_);
    const std::uint64_t at =
        (i1 - i_base_) * stride_i1_ + (i2 - i_base_) * stride_i2_ +
        k * stride_k_ +
        (static_cast<std::uint64_t>(q) * d_l_ +
         static_cast<std::uint64_t>(l1)) *
            d_l_ +
        static_cast<std::uint64_t>(l2);
    assert(at < volume_);
    return at;
  }

  std::size_t i_base_;
  std::uint64_t d_q_, d_l_;
  std::uint64_t stride_k_, stride_i2_, stride_i1_;
  std::uint64_t volume_;
  std::unique_ptr<std::uint8_t[]> flags_;
  std::unique_ptr<Value[]> values_;
  std::unique_ptr<Choice[]> choices_;
  std::size_t size_ = 0;
};

}  // namespace gapsched::dp
