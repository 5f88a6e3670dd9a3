// io/json.hpp under adversarial bytes: every mutated, truncated, spliced,
// or duplicated document must either parse or come back as a clean
// nullopt-with-diagnostic — never a crash, hang, or silent garbage value.
// The CI sanitizer lane runs this suite under ASan/UBSan, which is what
// turns "never a crash" into a checkable property; the parsed-side
// invariants below (fields that did parse are internally consistent) hold
// even without the sanitizers, and whatever parses re-encodes and re-reads
// to the same struct.

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "gapsched/engine/types.hpp"
#include "gapsched/io/json.hpp"
#include "fuzz_support.hpp"

namespace gapsched::io {
namespace {

/// An accepted document must re-encode and re-read to an equal struct:
/// the reader keeps nothing the writer cannot say. Equality is checked on
/// the deterministic encoding, which lists every field. A non-finite
/// double encodes as null, which no reader takes back, so such documents
/// stop at the first encoding.
template <class Encode, class Decode>
void expect_stable_round_trip(const Encode& encode, const Decode& decode) {
  const std::string once = encode();
  if (once.find("null") != std::string::npos) return;
  std::string error;
  const std::optional<std::string> twice = decode(once, &error);
  ASSERT_TRUE(twice.has_value()) << error << "\n" << once;
  EXPECT_EQ(*twice, once);
}

engine::SolveRequest seed_request(Prng& rng) {
  engine::SolveRequest request;
  request.objective = engine::Objective::kPower;
  request.params.alpha = 0.5 * static_cast<double>(rng.uniform(0, 8));
  request.params.validate = rng.chance(0.5);
  request.instance.processors = 1 + static_cast<int>(rng.index(3));
  const std::size_t n = 1 + rng.index(6);
  for (std::size_t j = 0; j < n; ++j) {
    const Time lo = rng.uniform(0, 40);
    request.instance.jobs.push_back(
        Job{TimeSet{{Interval{lo, lo + rng.uniform(0, 5)},
                     Interval{lo + 50, lo + 52}}}});
  }
  return request;
}

TEST(JsonCodecFuzz, MutatedRequestsNeverCrashAndAlwaysDiagnose) {
  for (std::size_t i = 0; i < fuzz::iterations() * 4; ++i) {
    const std::uint64_t seed = testing::seed_for(5000 + i);
    GAPSCHED_TRACE_SEED(seed);
    Prng rng(seed);
    std::string doc = request_to_json("power_dp", seed_request(rng));
    fuzz::mutate_bytes(doc, rng);

    std::string solver, error;
    const auto parsed = request_from_json(doc, &solver, &error);
    if (parsed.has_value()) {
      // Whatever survived mutation must be internally consistent: the
      // named solver is non-empty and every job has a well-formed allowed
      // set representation (the parser never builds half-initialized
      // instances).
      EXPECT_FALSE(solver.empty());
      for (const Job& job : parsed->instance.jobs) {
        for (const Interval& iv : job.allowed.intervals()) {
          EXPECT_LE(iv.lo, iv.hi);
        }
      }
      expect_stable_round_trip(
          [&] { return request_to_json(solver, *parsed); },
          [](const std::string& text, std::string* err)
              -> std::optional<std::string> {
            std::string name;
            const auto again = request_from_json(text, &name, err);
            if (!again.has_value()) return std::nullopt;
            return request_to_json(name, *again);
          });
    } else {
      EXPECT_FALSE(error.empty()) << "rejection without a diagnostic";
    }
  }
}

TEST(JsonCodecFuzz, MutatedResultsNeverCrashAndAlwaysDiagnose) {
  for (std::size_t i = 0; i < fuzz::iterations() * 4; ++i) {
    const std::uint64_t seed = testing::seed_for(6000 + i);
    GAPSCHED_TRACE_SEED(seed);
    Prng rng(seed);
    engine::SolveResult result;
    result.ok = true;
    result.feasible = true;
    result.cost = 12.5;
    result.transitions = 3;
    result.stats.states = 99;
    result.stats.components = 4;
    result.stats.dead_time_removed = 17;
    result.schedule = Schedule(3);
    result.schedule.place(0, 5, 0);
    result.schedule.place(2, 9, 1);
    std::string doc = result_to_json(result);
    fuzz::mutate_bytes(doc, rng);

    std::string error;
    const auto parsed = result_from_json(doc, &error);
    if (!parsed.has_value()) {
      EXPECT_FALSE(error.empty()) << "rejection without a diagnostic";
      continue;
    }
    expect_stable_round_trip(
        [&] { return result_to_json(*parsed); },
        [](const std::string& text, std::string* err)
            -> std::optional<std::string> {
          const auto again = result_from_json(text, err);
          if (!again.has_value()) return std::nullopt;
          return result_to_json(*again);
        });
  }
}

TEST(JsonCodecFuzz, DeepNestingIsRejectedNotOverflowed) {
  // The recursive-descent parser is depth-limited; a pathological document
  // must come back as a diagnostic, not a stack overflow.
  std::string deep(5000, '[');
  deep += std::string(5000, ']');
  std::string error;
  EXPECT_FALSE(result_from_json(deep, &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(JsonCodecFuzz, DepthLimitBoundaryIsExactlyKMaxParseDepth) {
  // Regression for the serving protocol's parse bound: nesting deeper than
  // kMaxParseDepth (64) is rejected AS a depth error, nesting exactly at
  // the limit is not. The boundary used to sit one past the documented
  // limit (65 levels slipped through).
  const auto nested = [](int levels) {
    return std::string(static_cast<std::size_t>(levels), '[') +
           std::string(static_cast<std::size_t>(levels), ']');
  };
  std::string error;
  // 64 levels: parses as a value (the later "not a response document"
  // rejection is a type error, not a depth error).
  EXPECT_FALSE(result_from_json(nested(kMaxParseDepth), &error).has_value());
  EXPECT_EQ(error.find("nested too deeply"), std::string::npos) << error;
  // 65 levels: the depth bound itself fires.
  EXPECT_FALSE(
      result_from_json(nested(kMaxParseDepth + 1), &error).has_value());
  EXPECT_NE(error.find("nested too deeply"), std::string::npos) << error;
  // The same boundary holds for nesting buried inside an ignored field of
  // an otherwise valid document: 63 inner levels under the root object
  // (total 64) parse, 64 (total 65) do not.
  const auto wrap = [&](int levels) {
    return "{\"ok\": true, \"junk\": " + nested(levels) + "}";
  };
  EXPECT_TRUE(result_from_json(wrap(kMaxParseDepth - 1), &error).has_value())
      << error;
  EXPECT_FALSE(result_from_json(wrap(kMaxParseDepth), &error).has_value());
  EXPECT_NE(error.find("nested too deeply"), std::string::npos) << error;
}

}  // namespace
}  // namespace gapsched::io
