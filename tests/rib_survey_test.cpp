// Tests for the RIB survey (the public-view sweep behind Table 4 and
// Figure 5) and its downstream analyses.
#include <gtest/gtest.h>

#include <unordered_set>

#include "core/prepend_analysis.h"
#include "core/rib_survey.h"
#include "core/route_selection.h"

namespace re::core {
namespace {

struct World {
  topo::Ecosystem ecosystem;
  RibSurveyResult survey;
};

World* make_world() {
  topo::EcosystemParams params;
  params = params.scaled(0.08);
  params.seed = 20250529;
  auto* world = new World{topo::Ecosystem::generate(params), {}};
  world->survey = run_rib_survey(world->ecosystem);
  return world;
}

class RibSurveyFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { world_ = make_world(); }
  static void TearDownTestSuite() {
    delete world_;
    world_ = nullptr;
  }
  static const World& world() { return *world_; }

 private:
  static const World* world_;
};
const World* RibSurveyFixture::world_ = nullptr;

TEST_F(RibSurveyFixture, CoversEveryMemberOrigin) {
  EXPECT_EQ(world().survey.origins.size(), world().ecosystem.members().size());
  for (const net::Asn member : world().ecosystem.members()) {
    EXPECT_NE(world().survey.find(member), nullptr) << member.to_string();
  }
  EXPECT_EQ(world().survey.find(net::Asn{424242}), nullptr);
}

TEST_F(RibSurveyFixture, CommodityPrependsMatchPlantedPolicy) {
  // For origins announcing to commodity and directly observed by a
  // commodity collector, the observed commodity-direction prepend equals
  // the planted commodity_prepend.
  std::size_t checked = 0;
  for (const OriginRibView& view : world().survey.origins) {
    const topo::AsRecord* r = world().ecosystem.directory().find(view.origin);
    if (!r->traits.announce_to_commodity || !view.comm_prepends.has_value()) {
      continue;
    }
    EXPECT_EQ(*view.comm_prepends, r->traits.commodity_prepend)
        << view.origin.to_string();
    ++checked;
  }
  EXPECT_GT(checked, 50u);
}

TEST_F(RibSurveyFixture, NoCommodityObservationForReOnlyAnnouncers) {
  for (const OriginRibView& view : world().survey.origins) {
    const topo::AsRecord* r = world().ecosystem.directory().find(view.origin);
    if (!r->traits.announce_to_commodity && r->commodity_providers.empty()) {
      // Only R&E announcements exist; any commodity-direction observation
      // would have to leak through an NREN's commodity arm, whose
      // immediate upstream is the NREN — an R&E AS.
      EXPECT_FALSE(view.comm_prepends.has_value()) << view.origin.to_string();
    }
  }
}

TEST_F(RibSurveyFixture, RePrependsObserved) {
  std::size_t with_re_obs = 0;
  for (const OriginRibView& view : world().survey.origins) {
    with_re_obs += view.re_prepends.has_value() ? 1 : 0;
  }
  // The RIPE-like vantage peers with the collector and is R&E-connected,
  // so most origins have an R&E-direction observation.
  EXPECT_GT(with_re_obs, world().survey.origins.size() / 2);
}

TEST_F(RibSurveyFixture, RipeReachesMostOrigins) {
  std::size_t with_route = 0, via_re = 0;
  for (const OriginRibView& view : world().survey.origins) {
    with_route += view.ripe_has_route ? 1 : 0;
    via_re += view.ripe_via_re ? 1 : 0;
  }
  // Paper: RIPE had routes for 18,160 of 18,427 prefixes (98.6%) and used
  // R&E for 64% of them.
  EXPECT_GT(with_route, world().survey.origins.size() * 9 / 10);
  const double share = static_cast<double>(via_re) / with_route;
  EXPECT_GT(share, 0.40);
  EXPECT_LT(share, 0.85);
}

TEST_F(RibSurveyFixture, PrependClassification) {
  OriginRibView view;
  view.re_prepends = 0;
  view.comm_prepends = 0;
  EXPECT_EQ(classify_prepending(view), PrependClass::kEqual);
  view.comm_prepends = 2;
  EXPECT_EQ(classify_prepending(view), PrependClass::kMoreToComm);
  view.re_prepends = 3;
  EXPECT_EQ(classify_prepending(view), PrependClass::kMoreToRe);
  view.comm_prepends.reset();
  EXPECT_EQ(classify_prepending(view), PrependClass::kNoCommodity);
  // Missing R&E observation counts as zero prepends.
  view.re_prepends.reset();
  view.comm_prepends = 1;
  EXPECT_EQ(classify_prepending(view), PrependClass::kMoreToComm);
}

TEST_F(RibSurveyFixture, Figure5RegionsHaveMinimumAses) {
  const Figure5 fig = build_figure5(world().ecosystem, world().survey, 4);
  for (const RegionShare& r : fig.europe) {
    EXPECT_GE(r.ases, 4u) << r.region;
    EXPECT_LE(r.via_re, r.ases);
  }
  for (const RegionShare& r : fig.us_states) {
    EXPECT_GE(r.ases, 4u) << r.region;
  }
  EXPECT_FALSE(fig.europe.empty());
  EXPECT_FALSE(fig.us_states.empty());
}

TEST_F(RibSurveyFixture, Figure5CountryContrast) {
  // §4.3: commodity-selling + prepending NREN countries are reached over
  // R&E far more than shared-provider countries like Germany.
  const Figure5 fig = build_figure5(world().ecosystem, world().survey, 4);
  double high = -1, low = -1;
  for (const RegionShare& r : fig.europe) {
    if (r.region == "NO" || r.region == "SE" || r.region == "FR" ||
        r.region == "ES") {
      high = std::max(high, r.share());
    }
    if (r.region == "DE" || r.region == "UA" || r.region == "BY") {
      low = low < 0 ? r.share() : std::min(low, r.share());
    }
  }
  ASSERT_GE(high, 0.0) << "no high-R&E country aggregated";
  ASSERT_GE(low, 0.0) << "no shared-provider country aggregated";
  EXPECT_GT(high, 0.75);
  EXPECT_LT(low, 0.35);
  EXPECT_GT(high - low, 0.4);
}

TEST_F(RibSurveyFixture, Figure5RegionsSortedByShare) {
  const Figure5 fig = build_figure5(world().ecosystem, world().survey, 4);
  for (std::size_t i = 1; i < fig.europe.size(); ++i) {
    EXPECT_GE(fig.europe[i - 1].share(), fig.europe[i].share());
  }
}

TEST_F(RibSurveyFixture, SurveyIsDeterministic) {
  const RibSurveyResult again = run_rib_survey(world().ecosystem);
  ASSERT_EQ(again.origins.size(), world().survey.origins.size());
  for (std::size_t i = 0; i < again.origins.size(); ++i) {
    EXPECT_EQ(again.origins[i].ripe_via_re,
              world().survey.origins[i].ripe_via_re);
    EXPECT_EQ(again.origins[i].comm_prepends,
              world().survey.origins[i].comm_prepends);
  }
}

TEST_F(RibSurveyFixture, BatchedSweepMatchesOneAtATime) {
  // Batching several member origins per convergence cycle is a pure
  // throughput optimization: every origin announces a distinct prefix and
  // edge delays are prefix-local functions of the seed, so per-origin
  // views must be bit-identical to the one-at-a-time sweep.
  auto flatten = [](const RibSurveyResult& survey) {
    std::vector<std::string> out;
    for (const OriginRibView& v : survey.origins) {
      std::string line = v.origin.to_string();
      line += '|';
      line += v.re_prepends ? std::to_string(*v.re_prepends) : "-";
      line += '|';
      line += v.comm_prepends ? std::to_string(*v.comm_prepends) : "-";
      line += '|';
      line += v.ripe_has_route ? (v.ripe_via_re ? "re" : "comm") : "none";
      line += '|';
      line += v.ripe_first_hop.to_string();
      out.push_back(std::move(line));
    }
    return out;
  };

  RibSurveyOptions solo;
  solo.batch_size = 1;
  const auto one_at_a_time =
      flatten(run_rib_survey(world().ecosystem, 4242, solo));

  RibSurveyOptions batched;
  batched.batch_size = 12;
  EXPECT_EQ(one_at_a_time, flatten(run_rib_survey(world().ecosystem, 4242, batched)));
}

TEST(PrependClassStrings, HumanReadable) {
  EXPECT_EQ(to_string(PrependClass::kEqual), "R=C");
  EXPECT_EQ(to_string(PrependClass::kMoreToComm), "R<C");
  EXPECT_EQ(to_string(PrependClass::kMoreToRe), "R>C");
  EXPECT_EQ(to_string(PrependClass::kNoCommodity), "no commodity");
}

}  // namespace
}  // namespace re::core
