// Unit tests for the Table 4 builder (inference x prepend-class cross-tab).
#include <gtest/gtest.h>

#include "core/prepend_analysis.h"

namespace re::core {
namespace {

PrefixInference make_inference(std::uint32_t id, std::uint32_t origin,
                               Inference inference) {
  PrefixInference p;
  p.prefix = net::Prefix(net::IPv4Address(id << 12), 20);
  p.origin = net::Asn{origin};
  p.inference = inference;
  return p;
}

OriginRibView make_view(std::uint32_t origin, std::optional<std::uint32_t> re,
                        std::optional<std::uint32_t> comm) {
  OriginRibView v;
  v.origin = net::Asn{origin};
  v.re_prepends = re;
  v.comm_prepends = comm;
  return v;
}

TEST(Table4, JoinsInferencesWithSurvey) {
  RibSurveyResult survey;
  survey.origins.push_back(make_view(1, 0, 0));    // R=C
  survey.origins.push_back(make_view(2, 0, 2));    // R<C
  survey.origins.push_back(make_view(3, 1, 0));    // R>C
  survey.origins.push_back(make_view(4, 0, std::nullopt));  // no commodity

  std::vector<PrefixInference> inferences{
      make_inference(1, 1, Inference::kAlwaysRe),
      make_inference(2, 1, Inference::kAlwaysRe),  // two prefixes, same AS
      make_inference(3, 2, Inference::kSwitchToRe),
      make_inference(4, 3, Inference::kAlwaysCommodity),
      make_inference(5, 4, Inference::kMixed),
  };
  const Table4 table = build_table4(inferences, survey);
  EXPECT_EQ(table.cell(PrependClass::kEqual, Inference::kAlwaysRe), 2u);
  EXPECT_EQ(table.cell(PrependClass::kMoreToComm, Inference::kSwitchToRe), 1u);
  EXPECT_EQ(table.cell(PrependClass::kMoreToRe, Inference::kAlwaysCommodity), 1u);
  EXPECT_EQ(table.cell(PrependClass::kNoCommodity, Inference::kMixed), 1u);
  EXPECT_EQ(table.totals.at(PrependClass::kEqual), 2u);
  EXPECT_NEAR(table.share(PrependClass::kEqual, Inference::kAlwaysRe), 1.0, 1e-9);
}

TEST(Table4, SkipsUntabulatedCategories) {
  RibSurveyResult survey;
  survey.origins.push_back(make_view(1, 0, 0));
  std::vector<PrefixInference> inferences{
      make_inference(1, 1, Inference::kExcludedLoss),
      make_inference(2, 1, Inference::kOscillating),
      make_inference(3, 1, Inference::kSwitchToCommodity),
  };
  const Table4 table = build_table4(inferences, survey);
  EXPECT_TRUE(table.totals.empty());
}

TEST(Table4, SkipsOriginsAbsentFromSurvey) {
  RibSurveyResult survey;
  std::vector<PrefixInference> inferences{
      make_inference(1, 99, Inference::kAlwaysRe)};
  const Table4 table = build_table4(inferences, survey);
  EXPECT_EQ(table.cell(PrependClass::kEqual, Inference::kAlwaysRe), 0u);
}

TEST(Table4, CountsOriginAddedAfterEarlierBuild) {
  // Each build joins against the survey as it is now: a view pushed after
  // an earlier build is found by the next one.
  RibSurveyResult survey;
  survey.origins.push_back(make_view(1, 0, 0));
  const std::vector<PrefixInference> inferences{
      make_inference(1, 1, Inference::kAlwaysRe),
      make_inference(2, 2, Inference::kAlwaysCommodity),
  };
  const Table4 before = build_table4(inferences, survey);
  EXPECT_EQ(before.cell(PrependClass::kMoreToComm, Inference::kAlwaysCommodity),
            0u);

  survey.origins.push_back(make_view(2, 0, 2));  // R<C
  const Table4 after = build_table4(inferences, survey);
  EXPECT_EQ(after.cell(PrependClass::kEqual, Inference::kAlwaysRe), 1u);
  EXPECT_EQ(after.cell(PrependClass::kMoreToComm, Inference::kAlwaysCommodity),
            1u);
}

TEST(Table4, ShareZeroForEmptyColumn) {
  Table4 table;
  EXPECT_EQ(table.share(PrependClass::kEqual, Inference::kAlwaysRe), 0.0);
  EXPECT_EQ(table.cell(PrependClass::kEqual, Inference::kAlwaysRe), 0u);
}

class PrependClassification
    : public ::testing::TestWithParam<
          std::tuple<std::optional<std::uint32_t>, std::optional<std::uint32_t>,
                     PrependClass>> {};

TEST_P(PrependClassification, Classifies) {
  const auto& [re, comm, expected] = GetParam();
  EXPECT_EQ(classify_prepending(make_view(1, re, comm)), expected);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, PrependClassification,
    ::testing::Values(
        std::make_tuple(std::optional<std::uint32_t>{0},
                        std::optional<std::uint32_t>{0}, PrependClass::kEqual),
        std::make_tuple(std::optional<std::uint32_t>{2},
                        std::optional<std::uint32_t>{2}, PrependClass::kEqual),
        std::make_tuple(std::optional<std::uint32_t>{0},
                        std::optional<std::uint32_t>{3},
                        PrependClass::kMoreToComm),
        std::make_tuple(std::optional<std::uint32_t>{3},
                        std::optional<std::uint32_t>{1},
                        PrependClass::kMoreToRe),
        std::make_tuple(std::optional<std::uint32_t>{}, std::optional<std::uint32_t>{1},
                        PrependClass::kMoreToComm),  // missing R&E obs = 0
        std::make_tuple(std::optional<std::uint32_t>{2}, std::optional<std::uint32_t>{},
                        PrependClass::kNoCommodity),
        std::make_tuple(std::optional<std::uint32_t>{}, std::optional<std::uint32_t>{},
                        PrependClass::kNoCommodity)));

}  // namespace
}  // namespace re::core
