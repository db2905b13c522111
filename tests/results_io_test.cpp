// Tests for result serialization: JSON result lines.
#include <gtest/gtest.h>

#include "io/results_io.h"

namespace re::io {
namespace {

core::PrefixInference sample_inference() {
  core::PrefixInference p;
  p.prefix = *net::Prefix::parse("163.253.63.0/24");
  p.origin = net::Asn{50123};
  p.side = topo::ReSide::kPeerNren;
  p.inference = core::Inference::kSwitchToRe;
  p.rounds = {core::RoundState::kCommodity, core::RoundState::kCommodity,
              core::RoundState::kRe,        core::RoundState::kRe,
              core::RoundState::kRe,        core::RoundState::kRe,
              core::RoundState::kRe,        core::RoundState::kRe,
              core::RoundState::kRe};
  p.first_re_round = 2;
  return p;
}

TEST(ResultLines, RoundTripSingle) {
  const core::PrefixInference original = sample_inference();
  const std::string line = to_json_line(original);
  const auto parsed = from_json_line(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->prefix, original.prefix);
  EXPECT_EQ(parsed->origin, original.origin);
  EXPECT_EQ(parsed->side, original.side);
  EXPECT_EQ(parsed->inference, original.inference);
  EXPECT_EQ(parsed->rounds, original.rounds);
  EXPECT_EQ(parsed->first_re_round, original.first_re_round);
}

TEST(ResultLines, RoundTripWithoutFirstReRound) {
  core::PrefixInference p = sample_inference();
  p.inference = core::Inference::kAlwaysCommodity;
  p.first_re_round.reset();
  const auto parsed = from_json_line(to_json_line(p));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(parsed->first_re_round.has_value());
}

TEST(ResultLines, MultiLineRoundTrip) {
  std::vector<core::PrefixInference> originals;
  for (int i = 0; i < 20; ++i) {
    core::PrefixInference p = sample_inference();
    p.prefix = net::Prefix(net::IPv4Address(0x80000000u + (i << 10)), 22);
    p.inference = static_cast<core::Inference>(i % 6);
    originals.push_back(p);
  }
  const std::string text = to_json_lines(originals);
  const auto parsed = from_json_lines(text);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->size(), originals.size());
  for (std::size_t i = 0; i < originals.size(); ++i) {
    EXPECT_EQ((*parsed)[i].prefix, originals[i].prefix);
    EXPECT_EQ((*parsed)[i].inference, originals[i].inference);
  }
}

TEST(ResultLines, RejectsMalformed) {
  EXPECT_FALSE(from_json_line("not json").has_value());
  EXPECT_FALSE(from_json_line("{}").has_value());
  EXPECT_FALSE(from_json_line(R"({"prefix":"bad","origin":1,"rounds":[],"inference":"always-re"})")
                   .has_value());
  EXPECT_FALSE(
      from_json_line(
          R"({"prefix":"10.0.0.0/24","origin":1,"rounds":["nope"],"inference":"always-re"})")
          .has_value());
  EXPECT_FALSE(
      from_json_line(
          R"({"prefix":"10.0.0.0/24","origin":1,"rounds":[],"inference":"wat"})")
          .has_value());
}

TEST(ResultTokens, AllValuesRoundTrip) {
  for (int i = 0; i <= 6; ++i) {
    const auto inference = static_cast<core::Inference>(i);
    const auto token = inference_token(inference);
    ASSERT_NE(token, "?");
    EXPECT_EQ(inference_from_token(token), inference);
  }
  for (int i = 0; i <= 3; ++i) {
    const auto state = static_cast<core::RoundState>(i);
    EXPECT_EQ(round_state_from_token(round_state_token(state)), state);
  }
  EXPECT_EQ(side_from_token(side_token(topo::ReSide::kParticipant)),
            topo::ReSide::kParticipant);
  EXPECT_EQ(side_from_token(side_token(topo::ReSide::kPeerNren)),
            topo::ReSide::kPeerNren);
  EXPECT_FALSE(side_from_token("bogus").has_value());
}

}  // namespace
}  // namespace re::io
