#pragma once
// The Baptiste-Chrobak-Durr polynomial dynamic program for single-processor
// gap/energy minimization of one-interval unit jobs ([BCD07] / arXiv:
// 0908.3505 — the polynomial-time algorithms the exponential Theorem 1/2
// window DPs are benchmarked against). One templated engine serves both
// objectives; the seam-cost policy is the only difference (gap: 1 per
// non-empty idle seam; power: min(seam, alpha), the Section 2 bridging term).
//
// Structure. Jobs are sorted by (deadline, id); releases are bucketed into
// classes (the sorted distinct release values). A subproblem is the job set
//
//   J(k, lo, hi) = { j <= k : rel[lo] < r_j <= rel[hi] }
//
// — a deadline prefix restricted to a release band — identified by its
// canonical key (k shrunk to the largest in-band position, lo/hi shrunk to
// the band's present classes). The decomposition behind the recurrence is a
// push-late exchange: in any feasible schedule the max-deadline job k can be
// swapped rightward (preserving the slot set, hence the cost) until every
// job scheduled after k's slot t* has release > t*. The set therefore splits
// at a release class: jobs released <= t* occupy slots <= t* (with k last),
// jobs released > t* occupy slots beyond — two independent subproblems of
// the same shape, joined by one idle seam. When no set job is released after
// t*, k is simply appended last (the terminal branch).
//
// A subproblem's value is a Pareto frontier over (t, e, c):
//
//   t  last slot used,
//   e  capped lead-in slack min(first_slot - m, cap), m = the set's least
//      release; cap = 1 for gaps, ceil(alpha) for power — the smallest
//      summary of the first slot that keeps every parent seam cost
//      min(D + e, alpha) exact (beyond the cap the seam saturates),
//   c  internal cost: seam costs summed over the schedule's interior gaps.
//
// The frontier is stored as SEGMENTS: maximal runs [t_lo, t_hi] of last
// slots sharing one (e, c) value and one derivation. Every seam cost
// saturates within `cap` slots, so wide windows produce long flat runs and
// each combine step emits O(cap) segments per child segment: frontier sizes
// are governed by the release/deadline structure, not by window widths or
// the horizon. That is what keeps the DP polynomial on wide-window
// instances whose candidate-time axis overflows the exponential DPs'
// packed-key limits.
//
// Dominance: at every time t, entries with equal lead keep the least c, and
// ascending lead must strictly improve c (smaller lead and smaller c are
// both weakly better upstream). t itself is kept exact — both "later is
// cheaper for the next seam" and "earlier leaves room to append k" are
// live, so t never collapses — but equal-value runs merge into one segment.
//
// The state space is polynomial (O(n) prefixes x O(n^2) release bands) but
// the engine is a reachability-driven top-down memo: structured instances
// (chains, bursts, the poly_scale families) touch a tiny fraction of the
// box. A cumulative state/segment budget valve turns adversarial blowups
// into a clean error (the engine maps it to a rejected request) instead of
// a wrong answer or an unbounded solve.
//
// Storage. A solve touches thousands of states, each with a handful of
// segments, so per-state containers would make the allocator the hot path.
// Every buffer is engine-owned and grows geometrically, so a solve does
// O(log) allocations:
//
//   pool   every kept frontier, back to back; a State is {first, count}
//          into it. Frontiers are read by index, never through a reference
//          held across a solve() call (a child's prune may grow the pool).
//   raw    one candidate-segment stack. A call pushes its candidates above
//          the stack's height at entry; children push and prune above
//          them and truncate back, so when the call prunes, [base, end) is
//          exactly its own candidates in generation order.
//   memo   a flat open-addressing table from the packed (k, lo, hi) word
//          to the state id.
//
// The split branch's per-cut `best` lanes and the prune's scratch are
// members reused by every call (neither spans a recursive call).

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "gapsched/core/instance.hpp"
#include "gapsched/core/schedule.hpp"

namespace gapsched::bcd {

/// Budget valve for the memoized reachability sweep. Exceeding either limit
/// aborts the solve with a non-empty error (no partial answer is reported).
struct BcdOptions {
  /// Maximum memoized (k, lo, hi) states.
  std::size_t max_states = 200'000;
  /// Maximum frontier segments generated across the whole solve (counted
  /// before pruning, so pathological combine fan-outs trip it too).
  std::size_t max_entries = 2'000'000;
};

/// Gap objective: an idle seam costs 1 block boundary when non-empty. The
/// lead cap of 1 distinguishes "starts at its least release" from "starts
/// later" — all a parent seam ever needs.
struct GapSeamPolicy {
  using Cost = std::int64_t;
  Time lead_cap() const { return 1; }
  Cost seam(Time gap) const { return gap > 0 ? 1 : 0; }
};

/// Power objective: an idle seam costs min(gap, alpha) (bridge or sleep,
/// Section 2). The lead cap ceil(alpha) keeps min(D + e, alpha) exact: below
/// the cap e is the true slack, at the cap the seam has saturated at alpha.
struct PowerSeamPolicy {
  using Cost = double;
  double alpha = 0.0;
  Time cap = 0;  // smallest integer >= alpha
  Time lead_cap() const { return cap; }
  Cost seam(Time gap) const {
    return std::min(static_cast<double>(gap), alpha);
  }
};

/// One DP run; answers in deadline-sorted job order are resolved back to
/// the caller's indices by extract_schedule().
template <class Policy>
class BcdEngine {
 public:
  using Cost = typename Policy::Cost;

  BcdEngine(const Instance& inst, Policy policy, const BcdOptions& opts)
      : inst_(inst), policy_(policy), opts_(opts) {}

  /// Runs the DP. Returns false with error() set when the instance shape is
  /// unsupported or a budget tripped; otherwise feasible()/cost()/... are
  /// valid.
  bool run() {
    const std::size_t n = inst_.n();
    if (!inst_.is_one_interval()) {
      error_ = "bcd DP requires one-interval (release/deadline) jobs";
      return false;
    }
    if (n == 0) {
      feasible_ = true;
      best_cost_ = Cost{};
      return true;
    }
    if (n >= (std::size_t{1} << 21)) {
      error_ = "bcd DP key packing is capped at n < 2^21";
      return false;
    }
    build_index();
    memo_reset(n);
    overflow_.clear();
    const std::uint32_t root =
        solve(static_cast<std::uint32_t>(n), -1,
              static_cast<std::int32_t>(rel_.size()) - 1);
    if (!overflow_.empty()) {
      error_ = overflow_;
      return false;
    }
    if (root == kEmptyState || states_[root].count == 0) {
      feasible_ = false;  // no derivation: the instance is infeasible
      return true;
    }
    const Segment* frontier = &pool_[states_[root].first];
    std::uint32_t best = 0;
    for (std::uint32_t i = 1; i < states_[root].count; ++i) {
      if (frontier[i].c < frontier[best].c) best = i;
    }
    feasible_ = true;
    best_cost_ = frontier[best].c;
    root_state_ = root;
    root_seg_ = best;
    return true;
  }

  bool feasible() const { return feasible_; }
  /// Minimum internal cost: interior-gap count (gap policy) or the sum of
  /// min(gap, alpha) bridging terms (power policy). The caller adds the
  /// objective's constants (the +1 block / n + alpha base).
  Cost cost() const { return best_cost_; }
  const std::string& error() const { return error_; }
  std::size_t states() const { return states_.size(); }
  std::size_t entries_kept() const { return entries_kept_; }

  /// Reconstructs an optimal schedule (original job indices, processor 0).
  /// Only valid after run() returned true with feasible().
  Schedule extract_schedule() const {
    Schedule out(inst_.n());
    if (inst_.n() == 0 || !feasible_) return out;
    struct Pick {
      std::uint32_t sid, seg;
      Time t;  // chosen last slot within the segment's [lo, hi] run
    };
    std::vector<Pick> stack;
    stack.push_back(
        {root_state_, root_seg_, segment(root_state_, root_seg_).lo});
    while (!stack.empty()) {
      const Pick p = stack.back();
      stack.pop_back();
      const State& st = states_[p.sid];
      const Segment& s = segment(p.sid, p.seg);
      switch (s.kind) {
        case Segment::kBase:
          out.place(ord_[st.k - 1], p.t, 0);
          break;
        case Segment::kTerminalAdj:
          // k sits flush against the rest: the rest's last slot is t - 1.
          out.place(ord_[st.k - 1], p.t, 0);
          stack.push_back({s.child1_state, s.child1_seg, p.t - 1});
          break;
        case Segment::kTerminalGap:
          out.place(ord_[st.k - 1], p.t, 0);
          stack.push_back({s.child1_state, s.child1_seg, s.child1_t});
          break;
        case Segment::kSplit:
          stack.push_back({s.child1_state, s.child1_seg, s.child1_t});
          stack.push_back({s.child2_state, s.child2_seg, p.t});
          break;
      }
    }
    return out;
  }

 private:
  static constexpr std::uint32_t kEmptyState =
      std::numeric_limits<std::uint32_t>::max();

  struct Segment {
    enum Kind : std::uint8_t { kBase, kTerminalAdj, kTerminalGap, kSplit };
    Time lo = 0, hi = 0;  // inclusive last-slot run sharing this (e, c)
    Time lead = 0;        // capped first-slot slack over the set's least release
    Cost c{};             // internal seam cost
    Time child1_t = 0;    // kTerminalGap: rest's last slot; kSplit: left's
    std::uint32_t child1_state = 0, child1_seg = 0;  // rest / left part
    std::uint32_t child2_state = 0, child2_seg = 0;  // right part (kSplit)
    Kind kind = kBase;
  };

  struct State {
    std::uint32_t k = 0;      // canonical prefix length (1-based, in-band max)
    std::int32_t lo = -1;     // (min present class) - 1
    std::int32_t hi = 0;      // max present class
    std::uint32_t first = 0;  // frontier: pool_[first, first + count)
    std::uint32_t count = 0;
  };

  /// Segment `seg` of state `sid`'s frontier. Invalidated by the next pool
  /// growth, i.e. by any solve() call.
  const Segment& segment(std::uint32_t sid, std::uint32_t seg) const {
    return pool_[states_[sid].first + seg];
  }

  void build_index() {
    const std::size_t n = inst_.n();
    ord_.resize(n);
    for (std::size_t j = 0; j < n; ++j) ord_[j] = j;
    std::sort(ord_.begin(), ord_.end(), [this](std::size_t a, std::size_t b) {
      const Time da = inst_.jobs[a].deadline(), db = inst_.jobs[b].deadline();
      return da != db ? da < db : a < b;
    });
    rel_.clear();
    rel_.reserve(n);
    for (const Job& job : inst_.jobs) rel_.push_back(job.release());
    std::sort(rel_.begin(), rel_.end());
    rel_.erase(std::unique(rel_.begin(), rel_.end()), rel_.end());
    pos_r_.resize(n + 1);
    pos_d_.resize(n + 1);
    pos_cls_.resize(n + 1);
    minpos_.assign(rel_.size(), static_cast<std::uint32_t>(n) + 1);
    for (std::size_t p = 1; p <= n; ++p) {
      const Job& job = inst_.jobs[ord_[p - 1]];
      pos_r_[p] = job.release();
      pos_d_[p] = job.deadline();
      const std::int32_t c = static_cast<std::int32_t>(
          std::lower_bound(rel_.begin(), rel_.end(), job.release()) -
          rel_.begin());
      pos_cls_[p] = c;
      minpos_[c] = std::min(minpos_[c], static_cast<std::uint32_t>(p));
    }
  }

  static std::uint64_t pack(std::uint32_t k, std::int32_t lo,
                            std::int32_t hi) {
    return (static_cast<std::uint64_t>(k) << 42) |
           (static_cast<std::uint64_t>(lo + 1) << 21) |
           static_cast<std::uint64_t>(hi);
  }

  /// Empties the flat memo with room for `expected` keys at load <= 1/2.
  void memo_reset(std::size_t expected) {
    std::size_t slots = 64;
    memo_shift_ = 58;
    while (slots < 2 * expected) {
      slots *= 2;
      --memo_shift_;
    }
    memo_keys_.assign(slots, 0);
    memo_ids_.assign(slots, 0);
  }

  /// Slot of `key` in the flat memo: the slot holding it, or the empty
  /// slot (key 0: every packed key has k >= 1) where it would go. Linear
  /// probing from the top bits of a Fibonacci hash of the packed word.
  std::size_t memo_slot(std::uint64_t key) const {
    const std::size_t mask = memo_keys_.size() - 1;
    std::size_t slot = static_cast<std::size_t>(
        (key * 0x9E3779B97F4A7C15ull) >> memo_shift_);
    while (memo_keys_[slot] != 0 && memo_keys_[slot] != key) {
      slot = (slot + 1) & mask;
    }
    return slot;
  }

  /// Stores key -> id at the empty `slot` memo_slot(key) returned, after
  /// state `id` was added; doubles the table once it is half full (the memo
  /// holds exactly one key per state).
  void memo_insert(std::size_t slot, std::uint64_t key, std::uint32_t id) {
    memo_keys_[slot] = key;
    memo_ids_[slot] = id;
    if (states_.size() * 2 <= memo_keys_.size()) return;
    std::vector<std::uint64_t> keys(memo_keys_.size() * 2, 0);
    std::vector<std::uint32_t> ids(keys.size());
    keys.swap(memo_keys_);
    ids.swap(memo_ids_);
    --memo_shift_;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (keys[i] == 0) continue;
      const std::size_t to = memo_slot(keys[i]);
      memo_keys_[to] = keys[i];
      memo_ids_[to] = ids[i];
    }
  }

  /// Budget-checked push of a candidate segment onto the raw stack (empty
  /// ranges are dropped).
  bool push_segment(const Segment& s) {
    if (s.lo > s.hi) return true;
    ++segments_generated_;
    if (segments_generated_ > opts_.max_entries) {
      overflow_ = "bcd DP segment budget exceeded (" +
                  std::to_string(opts_.max_entries) +
                  "): instance shape is adversarial for the release-class "
                  "decomposition";
      return false;
    }
    raw_.push_back(s);
    return true;
  }

  /// Memoized subproblem solve. `k` may name a position outside the band;
  /// canonicalization shrinks (k, lo, hi) to the unique in-band key.
  /// Returns kEmptyState for the empty set, or the state id (possibly with
  /// an empty frontier: an infeasible subset). On overflow_ the return
  /// value is meaningless and the caller unwinds.
  std::uint32_t solve(std::uint32_t k, std::int32_t lo, std::int32_t hi) {
    if (!overflow_.empty()) return kEmptyState;
    while (k >= 1) {
      const std::int32_t c = pos_cls_[k];
      if (c > lo && c <= hi) break;
      --k;
    }
    if (k == 0) return kEmptyState;
    while (minpos_[hi] > k) --hi;      // stops at pos_cls_[k] > lo
    while (minpos_[lo + 1] > k) ++lo;  // ditto
    const std::uint64_t key = pack(k, lo, hi);
    std::size_t slot = memo_slot(key);
    if (memo_keys_[slot] == key) return memo_ids_[slot];
    if (states_.size() >= opts_.max_states) {
      overflow_ = "bcd DP state budget exceeded (" +
                  std::to_string(opts_.max_states) +
                  "): instance shape is adversarial for the release-class "
                  "decomposition";
      return kEmptyState;
    }
    const std::uint32_t id = static_cast<std::uint32_t>(states_.size());
    states_.push_back(State{k, lo, hi, 0, 0});
    memo_insert(slot, key, id);

    const Time r_k = pos_r_[k];
    const Time d_k = pos_d_[k];
    const Time cap = policy_.lead_cap();
    // This call's candidates are raw_[base, end) once its children have
    // pruned and truncated back to their own bases.
    const std::size_t base = raw_.size();

    // A class is present when it holds a set job (minpos_[c] <= k). The
    // canonical band has classes lo + 1 and hi present, and only k's own
    // class can have k as its least position, so the set is more than {k}
    // exactly when the band spans two classes or hi holds an earlier job.
    const bool rest_nonempty = lo + 1 != hi || minpos_[hi] < k;

    if (!rest_nonempty) {
      // Base: the set is {k} alone. lead = min(t - r_k, cap): one unit
      // segment per unsaturated lead value, then one flat saturated run —
      // O(cap) segments however wide the window is.
      for (Time i = 0; i < cap && r_k + i <= d_k; ++i) {
        Segment s;
        s.lo = s.hi = r_k + i;
        s.lead = i;
        s.kind = Segment::kBase;
        if (!push_segment(s)) return id;
      }
      Segment sat;
      sat.lo = r_k + cap;
      sat.hi = d_k;
      sat.lead = cap;
      sat.kind = Segment::kBase;
      if (!push_segment(sat)) return id;
    } else {
      // Terminal branch: k appended after the whole rest of the set. Per
      // rest segment [a, b]: while t - 1 lands inside the run the seam is
      // empty (flush placement, rest ends at t - 1); past it the rest is
      // pinned at b and the seam grows until it saturates — O(cap) output
      // segments per rest segment, independent of the window width.
      const std::uint32_t rest = solve(k - 1, lo, hi);
      if (!overflow_.empty()) return id;
      if (rest != kEmptyState) {
        const Time delta = rel_[states_[rest].lo + 1] - rel_[lo + 1];
        for (std::uint32_t si = 0; si < states_[rest].count; ++si) {
          const Segment& rs = segment(rest, si);
          const Time lead_out = std::min(rs.lead + delta, cap);
          Segment adj;
          adj.lo = std::max(r_k, rs.lo + 1);
          adj.hi = std::min(d_k, rs.hi + 1);
          adj.lead = lead_out;
          adj.c = rs.c;
          adj.kind = Segment::kTerminalAdj;
          adj.child1_state = rest;
          adj.child1_seg = si;
          if (!push_segment(adj)) return id;
          for (Time g = 1; g < cap; ++g) {
            const Time t = rs.hi + 1 + g;
            if (t > d_k) break;
            if (t < r_k) continue;
            Segment unit;
            unit.lo = unit.hi = t;
            unit.lead = lead_out;
            unit.c = rs.c + policy_.seam(g);
            unit.kind = Segment::kTerminalGap;
            unit.child1_state = rest;
            unit.child1_seg = si;
            unit.child1_t = rs.hi;
            if (!push_segment(unit)) return id;
          }
          Segment sat;
          sat.lo = std::max(r_k, rs.hi + 1 + std::max<Time>(cap, 1));
          sat.hi = d_k;
          sat.lead = lead_out;
          sat.c = rs.c + policy_.seam(std::max<Time>(cap, 1));
          sat.kind = Segment::kTerminalGap;
          sat.child1_state = rest;
          sat.child1_seg = si;
          sat.child1_t = rs.hi;
          if (!push_segment(sat)) return id;
        }
      }

      // Split branches: cut the band after a present class >= k's own, so
      // jobs released later form an independent right part. The left part
      // keeps k (and the set's least release: its lead carries over); the
      // right part starts at m_r = rel[next], the next present class,
      // giving seam D + e_r with D = m_r - t_left - 1. The output's t
      // coordinate is the RIGHT part's last slot, so the left choice
      // collapses per lead pair: inside a left segment the seam is
      // nondecreasing in the distance to m_r, so the latest admissible left
      // slot is optimal. rel_ is strictly increasing, so the classes with
      // release >= r_k are exactly those from pos_cls_[k] (present: it
      // holds k) up: the scan walks [pos_cls_[k], hi] once and never
      // touches the band below k's class.
      for (std::int32_t cut = pos_cls_[k], next; cut < hi; cut = next) {
        next = cut + 1;
        while (minpos_[next] > k) ++next;  // stops at hi, which is present
        const std::uint32_t left = solve(k, lo, cut);
        if (!overflow_.empty()) return id;
        const std::uint32_t right = solve(k - 1, cut, hi);
        if (!overflow_.empty()) return id;
        if (left == kEmptyState || right == kEmptyState) continue;
        const Time m_r = rel_[next];

        // best_[e_l * lanes + e_r]: cheapest left-cost + seam over left
        // segments of lead e_l against a right part of lead e_r, with the
        // attaining (segment, slot) kept for reconstruction.
        const std::size_t lanes = static_cast<std::size_t>(cap) + 1;
        best_.assign(lanes * lanes, BestCut{});
        for (std::uint32_t li = 0; li < states_[left].count; ++li) {
          const Segment& seg = segment(left, li);
          if (seg.lo >= m_r) continue;  // left part must finish before m_r
          const Time t_l = std::min(seg.hi, m_r - 1);
          const Time d_gap = m_r - t_l - 1;
          for (std::size_t e_r = 0; e_r < lanes; ++e_r) {
            const Cost combined =
                seg.c + policy_.seam(d_gap + static_cast<Time>(e_r));
            BestCut& entry =
                best_[static_cast<std::size_t>(seg.lead) * lanes + e_r];
            if (!entry.valid || combined < entry.c) {
              entry = {true, combined, li, t_l};
            }
          }
        }
        for (std::uint32_t ri = 0; ri < states_[right].count; ++ri) {
          const Segment& rseg = segment(right, ri);
          const std::size_t e_r = static_cast<std::size_t>(rseg.lead);
          for (std::size_t e_l = 0; e_l < lanes; ++e_l) {
            const BestCut& cut = best_[e_l * lanes + e_r];
            if (!cut.valid) continue;
            Segment s;
            s.lo = rseg.lo;
            s.hi = rseg.hi;
            s.lead = static_cast<Time>(e_l);
            s.c = cut.c + rseg.c;
            s.kind = Segment::kSplit;
            s.child1_state = left;
            s.child1_seg = cut.seg;
            s.child1_t = cut.t;
            s.child2_state = right;
            s.child2_seg = ri;
            if (!push_segment(s)) return id;
          }
        }
      }
    }

    states_[id].first = static_cast<std::uint32_t>(pool_.size());
    prune(base);
    raw_.resize(base);
    states_[id].count =
        static_cast<std::uint32_t>(pool_.size() - states_[id].first);
    entries_kept_ += states_[id].count;
    return id;
  }

  /// Pareto prune of the candidates raw_[base, end), appended to the pool:
  /// sweep the elementary t-intervals induced by segment boundaries; within
  /// each, keep the (lead asc, c strictly desc) skyline; re-coalesce
  /// adjacent intervals that kept the same derivation.
  void prune(std::size_t base) {
    const Segment* raw = raw_.data() + base;
    const std::uint32_t n_raw = static_cast<std::uint32_t>(raw_.size() - base);
    if (n_raw == 0) return;
    bounds_.clear();
    for (std::uint32_t i = 0; i < n_raw; ++i) {
      bounds_.push_back(raw[i].lo);
      bounds_.push_back(raw[i].hi + 1);
    }
    std::sort(bounds_.begin(), bounds_.end());
    bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());

    prev_runs_.clear();
    for (std::size_t b = 0; b + 1 < bounds_.size(); ++b) {
      const Time t0 = bounds_[b];
      const Time t1 = bounds_[b + 1] - 1;
      active_.clear();
      for (std::uint32_t i = 0; i < n_raw; ++i) {
        if (raw[i].lo <= t0 && raw[i].hi >= t1) {
          active_.push_back({raw[i].lead, {raw[i].c, i}});
        }
      }
      cur_runs_.clear();
      if (!active_.empty()) {
        std::sort(active_.begin(), active_.end());
        bool first = true;
        Cost best{};
        for (const auto& [lead, payload] : active_) {
          const auto& [c, idx] = payload;
          if (!first && !(c < best)) continue;  // same-lead dup or dominated
          first = false;
          best = c;
          // Extend the previous interval's matching run instead of emitting
          // a new segment when the same derivation continues across the
          // boundary (same_derivation ignores the [lo, hi] coordinates).
          bool extended = false;
          for (const std::size_t p : prev_runs_) {
            if (pool_[p].hi == t0 - 1 && same_derivation(raw[idx], pool_[p])) {
              pool_[p].hi = t1;
              cur_runs_.push_back(p);
              extended = true;
              break;
            }
          }
          if (extended) continue;
          Segment out = raw[idx];
          out.lo = t0;
          out.hi = t1;
          cur_runs_.push_back(pool_.size());
          pool_.push_back(out);
        }
      }
      std::swap(prev_runs_, cur_runs_);
    }
  }

  static bool same_derivation(const Segment& a, const Segment& b) {
    return a.lead == b.lead && a.c == b.c && a.kind == b.kind &&
           a.child1_state == b.child1_state && a.child1_seg == b.child1_seg &&
           a.child1_t == b.child1_t && a.child2_state == b.child2_state &&
           a.child2_seg == b.child2_seg;
  }

  const Instance& inst_;
  Policy policy_;
  BcdOptions opts_;

  std::vector<std::size_t> ord_;       // positions 1..n -> original index
  std::vector<Time> rel_;              // sorted distinct releases (classes)
  std::vector<Time> pos_r_, pos_d_;    // release/deadline by position
  std::vector<std::int32_t> pos_cls_;  // release class by position
  std::vector<std::uint32_t> minpos_;  // least position per class (n+1: none)

  struct BestCut {
    bool valid = false;
    Cost c{};
    std::uint32_t seg = 0;
    Time t = 0;
  };

  std::vector<State> states_;
  std::vector<Segment> pool_;  // every kept frontier, State::first/count
  std::vector<Segment> raw_;   // candidate stack; see solve()
  std::vector<std::uint64_t> memo_keys_;  // packed (k, lo, hi); 0 = empty
  std::vector<std::uint32_t> memo_ids_;   // state id per memo_keys_ slot
  unsigned memo_shift_ = 58;  // 64 - log2(memo_keys_.size())
  // Reused scratch: the split branch's per-cut lanes and the prune sweep.
  std::vector<BestCut> best_;
  std::vector<Time> bounds_;
  std::vector<std::size_t> prev_runs_, cur_runs_;  // pool indices per interval
  // (lead, (c, raw index)) triples active on the elementary interval.
  std::vector<std::pair<Time, std::pair<Cost, std::uint32_t>>> active_;
  std::size_t segments_generated_ = 0;
  std::size_t entries_kept_ = 0;
  std::string overflow_;

  bool feasible_ = false;
  Cost best_cost_{};
  std::uint32_t root_state_ = 0, root_seg_ = 0;
  std::string error_;
};

}  // namespace gapsched::bcd
