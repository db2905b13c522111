// Tests for the prefix-level inference classifier.
#include <gtest/gtest.h>

#include <ostream>
#include <span>

#include "core/classifier.h"

namespace re::core {
namespace {

constexpr int kReVlan = 17;
constexpr int kCommVlan = 18;

// A column over `rounds` round specs, one char per system: 'r' (R&E),
// 'c' (commodity), '.' (no response). Every spec lists the same systems.
probing::ProbeColumn make_column(const std::vector<std::string>& rounds) {
  const net::Prefix prefix = *net::Prefix::parse("128.0.0.0/24");
  std::vector<net::IPv4Address> addresses;
  for (std::size_t i = 0; !rounds.empty() && i < rounds.front().size(); ++i) {
    addresses.push_back(prefix.address_at(1 + i));
  }
  probing::ProbeColumn column(prefix, net::Asn{50001}, std::move(addresses),
                              {kCommVlan, kReVlan}, rounds.size());
  for (const std::string& spec : rounds) {
    const std::span<probing::OutcomeCode> codes = column.add_round();
    for (std::size_t i = 0; i < spec.size(); ++i) {
      codes[i] = spec[i] == 'c' ? 1 : spec[i] == 'r' ? 2 : probing::kNoResponse;
    }
  }
  return column;
}

PrefixObservation make_observation(const std::vector<std::string>& rounds) {
  PrefixObservation obs;
  obs.prefix = *net::Prefix::parse("128.0.0.0/24");
  obs.origin = net::Asn{50001};
  obs.rounds = make_column(rounds);
  return obs;
}

// ------------------------------------------------------------- round_state

TEST(RoundState, AllReIsRe) {
  EXPECT_EQ(round_state(make_column({"rr"})[0], kReVlan), RoundState::kRe);
}

TEST(RoundState, AllCommodityIsCommodity) {
  EXPECT_EQ(round_state(make_column({"c"})[0], kReVlan),
            RoundState::kCommodity);
}

TEST(RoundState, SplitIsMixed) {
  EXPECT_EQ(round_state(make_column({"rcr"})[0], kReVlan),
            RoundState::kMixed);
}

TEST(RoundState, NoResponsesIsLoss) {
  EXPECT_EQ(round_state(make_column({".."})[0], kReVlan),
            RoundState::kLoss);
}

TEST(RoundState, NonRespondersIgnoredWhenOthersRespond) {
  EXPECT_EQ(round_state(make_column({".r"})[0], kReVlan),
            RoundState::kRe);
}

// --------------------------------------------------------- classify_prefix

TEST(ClassifyPrefix, EmptyRoundsIsExcludedLoss) {
  // A prefix with no probing rounds at all (probing skipped or results
  // truncated) must classify as excluded, not read off the ends of an
  // empty timeline.
  const PrefixObservation obs = make_observation({});
  const PrefixInference result = classify_prefix(obs, kReVlan);
  EXPECT_EQ(result.inference, Inference::kExcludedLoss);
  EXPECT_TRUE(result.rounds.empty());
  EXPECT_FALSE(result.first_re_round.has_value());
}

// PrintTo prints the label: ctest names a value-parameterized test after
// the printed parameter, and gtest's default printout of this struct is its
// raw bytes (heap pointers that move every run).
struct ClassifyCase {
  const char* label;
  std::vector<std::string> rounds;
  Inference expected;
  std::optional<int> first_re;
};
void PrintTo(const ClassifyCase& c, std::ostream* os) { *os << c.label; }

class ClassifyPrefix : public ::testing::TestWithParam<ClassifyCase> {};

TEST_P(ClassifyPrefix, MatchesExpected) {
  const auto& param = GetParam();
  const PrefixInference result =
      classify_prefix(make_observation(param.rounds), kReVlan);
  EXPECT_EQ(result.inference, param.expected);
  EXPECT_EQ(result.first_re_round, param.first_re);
}

INSTANTIATE_TEST_SUITE_P(
    Sequences, ClassifyPrefix,
    ::testing::Values(
        // The nine-round shapes of §4.
        ClassifyCase{"always_re",
                     {"rrr", "rrr", "rrr", "rrr", "rrr", "rrr", "rrr", "rrr",
                      "rrr"},
                     Inference::kAlwaysRe, 0},
        ClassifyCase{"always_commodity",
                     {"ccc", "ccc", "ccc", "ccc", "ccc", "ccc", "ccc", "ccc",
                      "ccc"},
                     Inference::kAlwaysCommodity, std::nullopt},
        // Equal-localpref signature: commodity, then R&E, no further flips.
        ClassifyCase{"switch_at_round_3",
                     {"ccc", "ccc", "ccc", "rrr", "rrr", "rrr", "rrr", "rrr",
                      "rrr"},
                     Inference::kSwitchToRe, 3},
        ClassifyCase{"switch_at_last_round",
                     {"ccc", "ccc", "ccc", "ccc", "ccc", "ccc", "ccc", "ccc",
                      "rrr"},
                     Inference::kSwitchToRe, 8},
        // Outage: R&E reverts to commodity and stays.
        ClassifyCase{"revert_to_commodity",
                     {"rrr", "rrr", "rrr", "rrr", "rrr", "rrr", "ccc", "ccc",
                      "ccc"},
                     Inference::kSwitchToCommodity, 0},
        // Multiple transitions.
        ClassifyCase{"one_dip",
                     {"rrr", "ccc", "rrr", "rrr", "rrr", "rrr", "rrr", "rrr",
                      "rrr"},
                     Inference::kOscillating, 0},
        ClassifyCase{"alternating",
                     {"ccc", "rrr", "ccc", "rrr", "ccc", "rrr", "ccc", "rrr",
                      "ccc"},
                     Inference::kOscillating, 1},
        // Any split round makes the prefix Mixed, regardless of the rest.
        ClassifyCase{"split_round",
                     {"rrr", "rrc", "rrr", "rrr", "rrr", "rrr", "rrr", "rrr",
                      "rrr"},
                     Inference::kMixed, 0},
        // A mixed round is not an R&E round: first_re_round is the first
        // all-R&E round.
        ClassifyCase{"split_before_first_re",
                     {"ccc", "ccc", "crr", "rrr", "rrr", "rrr", "rrr", "rrr",
                      "rrr"},
                     Inference::kMixed, 3},
        // Any all-loss round excludes the prefix.
        ClassifyCase{"all_loss_round",
                     {"rrr", "...", "rrr", "rrr", "rrr", "rrr", "rrr", "rrr",
                      "rrr"},
                     Inference::kExcludedLoss, 0},
        // Partial responses still classify.
        ClassifyCase{"partial_responses",
                     {"r..", "r..", ".r.", "rr.", "rrr", "r..", "rrr", "rrr",
                      "r.."},
                     Inference::kAlwaysRe, 0}));

TEST(ClassifyPrefix, MixedTakesPrecedenceOverLossFreeSwitch) {
  // One mixed round inside an otherwise clean switch sequence -> Mixed.
  const auto obs = make_observation(
      {"ccc", "ccc", "rcc", "rrr", "rrr", "rrr", "rrr", "rrr", "rrr"});
  EXPECT_EQ(classify_prefix(obs, kReVlan).inference, Inference::kMixed);
}

TEST(ClassifyPrefix, LossTakesPrecedenceOverMixed) {
  const auto obs = make_observation(
      {"rcc", "...", "rrr", "rrr", "rrr", "rrr", "rrr", "rrr", "rrr"});
  EXPECT_EQ(classify_prefix(obs, kReVlan).inference, Inference::kExcludedLoss);
}

// ------------------------------------------------------------------ table1

TEST(Table1, CountsPrefixesAndDistinctAses) {
  std::vector<PrefixInference> inferences;
  auto add = [&](std::uint32_t origin, Inference inference) {
    PrefixInference p;
    p.origin = net::Asn{origin};
    p.prefix = net::Prefix(net::IPv4Address(origin << 8), 24);
    p.inference = inference;
    inferences.push_back(p);
  };
  add(1, Inference::kAlwaysRe);
  add(1, Inference::kAlwaysRe);
  add(1, Inference::kMixed);  // same AS in two categories
  add(2, Inference::kAlwaysCommodity);
  add(3, Inference::kSwitchToRe);
  add(3, Inference::kExcludedLoss);

  const Table1 table = summarize_table1(inferences);
  EXPECT_EQ(table.total_prefixes, 5u);
  EXPECT_EQ(table.total_ases, 3u);
  EXPECT_EQ(table.excluded_loss, 1u);
  EXPECT_EQ(table.cells.at(Inference::kAlwaysRe).prefixes, 2u);
  EXPECT_EQ(table.cells.at(Inference::kAlwaysRe).ases, 1u);
  EXPECT_EQ(table.cells.at(Inference::kMixed).ases, 1u);
  EXPECT_NEAR(table.prefix_share(Inference::kAlwaysRe), 0.4, 1e-9);
  EXPECT_EQ(table.prefix_share(Inference::kOscillating), 0.0);
}

// Regression pins for the §4 exclusion precedence: a round where every
// probe is lost excludes the prefix outright. It must never let a
// Switch-to-R&E timeline degrade into Oscillating or Mixed, because the
// loss round sits between the commodity and R&E phases and would
// otherwise read as extra transitions.
TEST(ClassifyPrefix, AllProbesLostInteriorRoundExcludesSwitchToRe) {
  const PrefixObservation obs = make_observation(
      {"cc", "cc", "..", "rr", "rr", "rr", "rr", "rr", "rr"});
  const PrefixInference result = classify_prefix(obs, kReVlan);
  EXPECT_EQ(result.inference, Inference::kExcludedLoss);
  EXPECT_NE(result.inference, Inference::kOscillating);
  EXPECT_NE(result.inference, Inference::kMixed);
}

TEST(ClassifyPrefix, LossRoundAtSwitchBoundaryExcludes) {
  // The loss lands exactly where the commodity->R&E transition happens.
  const PrefixObservation obs = make_observation(
      {"cc", "cc", "cc", "cc", "..", "rr", "rr", "rr", "rr"});
  EXPECT_EQ(classify_prefix(obs, kReVlan).inference,
            Inference::kExcludedLoss);
}

TEST(ClassifyPrefix, CleanSwitchToReStaysSwitchToRe) {
  // Control: the same timeline without the loss round keeps its class.
  const PrefixObservation obs = make_observation(
      {"cc", "cc", "cc", "rr", "rr", "rr", "rr", "rr", "rr"});
  EXPECT_EQ(classify_prefix(obs, kReVlan).inference, Inference::kSwitchToRe);
}

TEST(InferenceStrings, HumanReadable) {
  EXPECT_EQ(to_string(Inference::kAlwaysRe), "Always R&E");
  EXPECT_EQ(to_string(Inference::kSwitchToRe), "Switch to R&E");
  EXPECT_EQ(to_string(Inference::kMixed), "Mixed R&E + commodity");
  EXPECT_EQ(to_string(RoundState::kRe), "R&E");
  EXPECT_EQ(to_string(RoundState::kLoss), "loss");
}

}  // namespace
}  // namespace re::core
