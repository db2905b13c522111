// Tests for the re_check simulation-checking harness itself: the greedy
// shrinker's contract (monotone, idempotent, minimal against synthetic
// oracles), the checksummed trace format's rejection of corruption, the
// determinism the replay feature stands on, and the invariant suite's
// cleanliness on healthy worlds.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bgp/decision.h"
#include "bgp/network.h"
#include "bgp/speaker.h"
#include "check/invariants.h"
#include "check/reference_decision.h"
#include "check/scenario.h"
#include "check/shrink.h"
#include "io/trace_io.h"

namespace re {
namespace {

using check::OpKind;
using check::Scenario;
using check::ScenarioOp;

Scenario make_filler(std::size_t ops, std::uint64_t seed = 7) {
  // kFibQuery is a pure read: dropping or keeping any number of them
  // never changes whether a synthetic oracle fires.
  Scenario scenario;
  scenario.seed = seed;
  for (std::size_t i = 0; i < ops; ++i) {
    scenario.ops.push_back(
        {OpKind::kFibQuery, static_cast<std::uint32_t>(i), 1, 2});
  }
  return scenario;
}

// --- shrinker against synthetic oracles -----------------------------------

TEST(Shrink, SingleCulpritReducesToOneOp) {
  Scenario input = make_filler(40);
  input.ops[23].kind = OpKind::kFailSession;
  const auto oracle = [](const Scenario& s) {
    for (const auto& op : s.ops) {
      if (op.kind == OpKind::kFailSession) return true;
    }
    return false;
  };
  check::ShrinkStats stats;
  const Scenario minimal = check::shrink(input, oracle, &stats);
  ASSERT_EQ(minimal.ops.size(), 1u);
  EXPECT_EQ(minimal.ops[0].kind, OpKind::kFailSession);
  EXPECT_EQ(stats.ops_removed, 39u);
  EXPECT_GT(stats.oracle_runs, 0u);
}

TEST(Shrink, ConjunctionKeepsBothCulprits) {
  Scenario input = make_filler(32);
  input.ops[3].kind = OpKind::kAnnounce;
  input.ops[29].kind = OpKind::kWithdraw;
  const auto oracle = [](const Scenario& s) {
    bool announce = false;
    bool withdraw = false;
    for (const auto& op : s.ops) {
      announce |= op.kind == OpKind::kAnnounce;
      withdraw |= op.kind == OpKind::kWithdraw;
    }
    return announce && withdraw;
  };
  const Scenario minimal = check::shrink(input, oracle);
  ASSERT_EQ(minimal.ops.size(), 2u);
  EXPECT_EQ(minimal.ops[0].kind, OpKind::kAnnounce);
  EXPECT_EQ(minimal.ops[1].kind, OpKind::kWithdraw);
}

TEST(Shrink, NonFailingInputReturnedUnchanged) {
  const Scenario input = make_filler(12);
  check::ShrinkStats stats;
  const Scenario out =
      check::shrink(input, [](const Scenario&) { return false; }, &stats);
  EXPECT_EQ(out, input);
  EXPECT_EQ(stats.oracle_runs, 1u);  // only the input probe
  EXPECT_EQ(stats.ops_removed, 0u);
}

TEST(Shrink, ZeroesOperandsThatDoNotMatter) {
  Scenario input = make_filler(8);
  input.ops[5] = {OpKind::kFailSession, 17, 5, 3};
  const auto oracle = [](const Scenario& s) {
    // Only the kind and the `a` operand matter to this failure.
    for (const auto& op : s.ops) {
      if (op.kind == OpKind::kFailSession && op.a == 17) return true;
    }
    return false;
  };
  const Scenario minimal = check::shrink(input, oracle);
  ASSERT_EQ(minimal.ops.size(), 1u);
  EXPECT_EQ(minimal.ops[0].a, 17u);  // load-bearing operand survives
  EXPECT_EQ(minimal.ops[0].b, 0u);   // irrelevant operands zeroed
  EXPECT_EQ(minimal.ops[0].c, 0u);
}

TEST(Shrink, MonotoneNeverGrowsTheSchedule) {
  for (std::uint32_t culprit = 0; culprit < 16; ++culprit) {
    Scenario input = make_filler(16);
    input.ops[culprit].kind = OpKind::kWithdraw;
    const Scenario minimal =
        check::shrink(input, [](const Scenario& s) {
          for (const auto& op : s.ops) {
            if (op.kind == OpKind::kWithdraw) return true;
          }
          return false;
        });
    EXPECT_LE(minimal.ops.size(), input.ops.size());
    EXPECT_EQ(minimal.ops.size(), 1u) << "culprit at " << culprit;
  }
}

TEST(Shrink, IdempotentOnItsOwnOutput) {
  Scenario input = make_filler(24);
  input.ops[9].kind = OpKind::kAnnounce;
  input.ops[17].kind = OpKind::kWithdraw;
  const auto oracle = [](const Scenario& s) {
    for (const auto& op : s.ops) {
      if (op.kind == OpKind::kWithdraw) return true;
    }
    return false;
  };
  const Scenario once = check::shrink(input, oracle);
  check::ShrinkStats stats;
  const Scenario twice = check::shrink(once, oracle, &stats);
  EXPECT_EQ(twice, once);
  EXPECT_EQ(stats.ops_removed, 0u);
}

TEST(Shrink, RegressionSkeletonNamesSeedInvariantAndOps) {
  Scenario scenario;
  scenario.seed = 42;
  scenario.ops.push_back({OpKind::kFailSession, 3, 1, 0});
  scenario.ops.push_back({OpKind::kRunScoped, 2, 0, 0});
  const std::string text =
      check::regression_skeleton(scenario, "scoped-vs-full");
  EXPECT_NE(text.find("Seed42"), std::string::npos);
  EXPECT_NE(text.find("scoped-vs-full"), std::string::npos);
  EXPECT_NE(text.find("kFailSession"), std::string::npos);
  EXPECT_NE(text.find("kRunScoped"), std::string::npos);
  EXPECT_NE(text.find("run_scenario"), std::string::npos);
}

// --- trace format ---------------------------------------------------------

TEST(TraceIo, EncodeDecodeRoundTripsExactly) {
  Scenario scenario;
  scenario.seed = 0xdeadbeefcafeull;
  for (std::uint8_t k = 0; k < check::kOpKindCount; ++k) {
    scenario.ops.push_back(
        {static_cast<OpKind>(k), 0xffffffffu, 0u, static_cast<std::uint32_t>(k)});
  }
  const auto bytes = io::encode_trace(scenario);
  const auto decoded = io::decode_trace(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, scenario);
}

TEST(TraceIo, EmptyScheduleRoundTrips) {
  Scenario scenario;
  scenario.seed = 5;
  const auto decoded = io::decode_trace(io::encode_trace(scenario));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, scenario);
}

TEST(TraceIo, EveryByteFlipIsRejected) {
  Scenario scenario;
  scenario.seed = 9;
  scenario.ops.push_back({OpKind::kAnnounce, 1, 2, 3});
  scenario.ops.push_back({OpKind::kRunFull, 0, 0, 0});
  const auto valid = io::encode_trace(scenario);
  for (std::size_t i = 0; i < valid.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      auto mutated = valid;
      mutated[i] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_FALSE(io::decode_trace(mutated).has_value())
          << "byte " << i << " bit " << bit;
    }
  }
}

TEST(TraceIo, TruncationIsRejectedAtEveryLength) {
  Scenario scenario;
  scenario.seed = 11;
  scenario.ops.push_back({OpKind::kWithdraw, 4, 5, 6});
  const auto valid = io::encode_trace(scenario);
  for (std::size_t len = 0; len < valid.size(); ++len) {
    EXPECT_FALSE(
        io::decode_trace(std::span(valid.data(), len)).has_value())
        << "length " << len;
  }
}

TEST(TraceIo, UnknownOpKindIsRejected) {
  // A well-formed trace (valid checksum) naming an op kind past the last
  // one: the kind range check, not the checksum, must reject it.
  Scenario scenario;
  scenario.seed = 5;
  scenario.ops.push_back({OpKind::kAnnounce, 1, 2, 3});
  scenario.ops.push_back(
      {static_cast<OpKind>(check::kOpKindCount), 0, 0, 0});
  EXPECT_FALSE(io::decode_trace(io::encode_trace(scenario)).has_value());
}

TEST(TraceIo, FileSaveLoadRoundTrips) {
  Scenario scenario;
  scenario.seed = 77;
  scenario.ops.push_back({OpKind::kSetPrepend, 1, 0, 3});
  const std::string path = "check_test_trace.bin";
  ASSERT_TRUE(io::save_trace(path, scenario));
  const auto loaded = io::load_trace(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, scenario);
}

TEST(TraceIo, LoadOfMissingFileFailsQuietly) {
  EXPECT_FALSE(io::load_trace("no_such_trace_file.bin").has_value());
}

// --- scenario determinism and healthy seeds -------------------------------

TEST(ReCheck, MakeScenarioIsDeterministic) {
  const Scenario a = check::make_scenario(123, 50);
  const Scenario b = check::make_scenario(123, 50);
  EXPECT_EQ(a, b);
  const Scenario c = check::make_scenario(124, 50);
  EXPECT_NE(a, c);
}

TEST(ReCheck, RunScenarioIsDeterministic) {
  const Scenario scenario = check::make_scenario(3, 30);
  const check::ScenarioResult first = check::run_scenario(scenario);
  const check::ScenarioResult second = check::run_scenario(scenario);
  EXPECT_FALSE(first.violation.has_value());
  EXPECT_EQ(first.final_digest, second.final_digest);
  EXPECT_EQ(first.ops_executed, second.ops_executed);
  EXPECT_EQ(first.invariant_checks, second.invariant_checks);
}

TEST(ReCheck, HealthySeedsProduceNoViolations) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const Scenario scenario = check::make_scenario(seed, 24);
    const check::ScenarioResult result = check::run_scenario(scenario);
    EXPECT_FALSE(result.violation.has_value())
        << "seed " << seed << ": " << result.violation->invariant << ": "
        << result.violation->detail;
    EXPECT_EQ(result.ops_executed, scenario.ops.size());
    EXPECT_GT(result.invariant_checks, 0u);
  }
}

TEST(ReCheck, DecisionConformanceCleanWithoutSeededFault) {
  // Without the mutant bit the adversarial table must pass.
  check::InvariantSuite suite;
  const auto violation = suite.decision_conformance();
  EXPECT_FALSE(violation.has_value())
      << violation->invariant << ": " << violation->detail;
}

TEST(ReCheck, MedFlipMutantIsCaughtByConformanceTable) {
  // The planted fault re_check's --mutant med-flip gate relies on: the
  // table reports the MED pair with the bit, and production better_route
  // under a default DecisionConfig still prefers the lower MED. (The
  // table without the bit: DecisionConformanceCleanWithoutSeededFault.)
  check::InvariantSuite suite;
  const auto violation =
      suite.decision_conformance(/*med_flip_mutant=*/true);
  ASSERT_TRUE(violation.has_value());
  EXPECT_EQ(violation->invariant, "decision-conformance");
  EXPECT_NE(violation->detail.find("med-lower-wins"), std::string::npos)
      << violation->detail;

  bgp::PathTable table;
  std::size_t med_pairs = 0;
  for (const check::AdversarialPair& pair : check::adversarial_pairs(table)) {
    if (pair.step != bgp::DecisionStep::kMed) continue;
    ++med_pairs;
    const bgp::DecisionConfig production;
    EXPECT_TRUE(bgp::better_route(pair.preferred, pair.other, production));
    EXPECT_FALSE(bgp::better_route(pair.other, pair.preferred, production));
    bgp::DecisionConfig mutant;
    mutant.mutant_med_flip = true;
    EXPECT_TRUE(bgp::better_route(pair.other, pair.preferred, mutant));
  }
  EXPECT_EQ(med_pairs, 1u);
}

TEST(ReCheck, MedFlipMutantReachesEveryWorldSpeakerAndFailsTheRun) {
  const auto mutant = check::make_world(3, nullptr, /*med_flip_mutant=*/true);
  const auto clean = check::make_world(3);
  for (const net::Asn asn : mutant->asns()) {
    EXPECT_TRUE(mutant->speaker(asn)->decision().mutant_med_flip)
        << asn.to_string();
    EXPECT_FALSE(clean->speaker(asn)->decision().mutant_med_flip)
        << asn.to_string();
  }

  const Scenario scenario = check::make_scenario(3, 8);
  check::CheckOptions options;
  options.med_flip_mutant = true;
  const check::ScenarioResult failed = check::run_scenario(scenario, options);
  ASSERT_TRUE(failed.violation.has_value());
  EXPECT_EQ(failed.violation->invariant, "decision-conformance");
  EXPECT_EQ(failed.violation->op_index, check::Violation::kNoOp);
  EXPECT_EQ(failed.ops_executed, 0u);
  EXPECT_FALSE(check::run_scenario(scenario).violation.has_value());
}

TEST(ReCheck, RoundObserverFiresWithMonotoneRounds) {
  check::WorldSpec spec;
  const auto network = check::make_world(1, &spec);
  std::vector<std::uint64_t> rounds;
  network->set_round_observer(
      [&](net::SimTime, std::uint64_t round) { rounds.push_back(round); });
  network->announce(spec.origins[0], spec.prefixes[1]);
  network->run_to_convergence();
  network->set_round_observer(nullptr);
  ASSERT_FALSE(rounds.empty());
  for (std::size_t i = 1; i < rounds.size(); ++i) {
    EXPECT_GE(rounds[i], rounds[i - 1]);
  }
}

TEST(ReCheck, MakeWorldSpecPoolsAreUsable) {
  check::WorldSpec spec;
  const auto network = check::make_world(2, &spec);
  EXPECT_FALSE(spec.origins.empty());
  EXPECT_FALSE(spec.sessions.empty());
  EXPECT_EQ(spec.prefixes.size(), 3u);
  EXPECT_TRUE(spec.squatter.valid());
  for (const net::Asn origin : spec.origins) {
    EXPECT_NE(network->speaker(origin), nullptr);
  }
  for (const auto& [a, b] : spec.sessions) {
    EXPECT_NE(network->speaker(a)->session_to(b), nullptr);
  }
}

}  // namespace
}  // namespace re
