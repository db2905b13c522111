// Experiment-controller variants: custom schedules, disabled plants,
// per-prefix stance overrides, and week variation.
#include <gtest/gtest.h>

#include <string>
#include <unordered_map>
#include <unordered_set>

#include "core/classifier.h"
#include "core/experiment.h"
#include "probing/seeds.h"
#include "runtime/thread_pool.h"
#include "topology/ecosystem.h"

namespace re::core {
namespace {

struct SmallWorld {
  topo::Ecosystem ecosystem;
  probing::SelectionResult selection;

  static SmallWorld make(std::uint64_t seed = 20250529) {
    topo::EcosystemParams params;
    params = params.scaled(0.07);
    params.seed = seed;
    SmallWorld world{topo::Ecosystem::generate(params), {}};
    const probing::SeedDatabase db =
        probing::SeedDatabase::generate(world.ecosystem, probing::SeedGenParams{});
    world.selection = probing::select_probe_seeds(world.ecosystem, db, 11);
    return world;
  }

  ExperimentResult run(ExperimentConfig config) const {
    return ExperimentController(ecosystem, selection.seeds, config).run();
  }
};

TEST(ExperimentVariants, ShortSchedule) {
  const SmallWorld world = SmallWorld::make();
  ExperimentConfig config;
  config.schedule = {{2, 0}, {0, 0}, {0, 2}};
  config.seed = 502;
  config.auto_plant_outages = false;
  const ExperimentResult result = world.run(config);
  ASSERT_EQ(result.windows.size(), 3u);
  for (const PrefixObservation& obs : result.observations) {
    EXPECT_EQ(obs.rounds.size(), 3u);
  }
  // Classification still works on the shorter sequence.
  const auto inferences = classify_experiment(result);
  const Table1 table = summarize_table1(inferences);
  EXPECT_GT(table.prefix_share(Inference::kAlwaysRe), 0.5);
}

TEST(ExperimentVariants, NoOutagesMeansNoSwitchToCommodity) {
  const SmallWorld world = SmallWorld::make();
  ExperimentConfig config;
  config.seed = 502;
  config.auto_plant_outages = false;
  config.p_week_variation = 0.0;
  const auto inferences = classify_experiment(world.run(config));
  for (const PrefixInference& p : inferences) {
    EXPECT_NE(p.inference, Inference::kSwitchToCommodity)
        << p.prefix.to_string();
    EXPECT_NE(p.inference, Inference::kOscillating) << p.prefix.to_string();
  }
}

TEST(ExperimentVariants, ExplicitOutagePlanProducesSwitchToCommodity) {
  const SmallWorld world = SmallWorld::make();
  // Pick a prefer-R&E member with commodity egress and its own prefix.
  net::Asn victim;
  for (const net::Asn member : world.ecosystem.members()) {
    const topo::AsRecord* r = world.ecosystem.directory().find(member);
    if (r->traits.stance == bgp::ReStance::kPreferRe &&
        !r->traits.reject_re_routes && r->traits.has_commodity &&
        !r->re_providers.empty() &&
        !world.ecosystem.prefixes_of(member).empty()) {
      victim = member;
      break;
    }
  }
  ASSERT_TRUE(victim.valid());

  ExperimentConfig config;
  config.seed = 502;
  config.auto_plant_outages = false;
  config.p_week_variation = 0.0;
  config.p_prefix_flaky = 0.0;
  dataplane::OutagePlan plan;
  plan.as = victim;
  plan.re_neighbor =
      world.ecosystem.directory().find(victim)->re_providers.front();
  plan.from_round = 6;
  plan.to_round = 99;
  config.outages = {plan};
  const auto inferences = classify_experiment(world.run(config));

  bool found = false;
  for (const PrefixInference& p : inferences) {
    if (p.origin != victim) continue;
    if (p.inference == Inference::kSwitchToCommodity) found = true;
  }
  EXPECT_TRUE(found) << "planted persistent outage should demote "
                     << victim.to_string();
}

TEST(ExperimentVariants, StanceOverridesCreateAsCategoryOverlap) {
  // §3.4: per-prefix stance overrides put ASes into multiple Table 1
  // categories — compare a world with overrides against one without.
  topo::EcosystemParams params;
  params = params.scaled(0.12);
  params.seed = 20250529;
  params.p_prefix_stance_override = 0.10;  // exaggerate for the test
  const topo::Ecosystem with = topo::Ecosystem::generate(params);
  params.p_prefix_stance_override = 0.0;
  const topo::Ecosystem without = topo::Ecosystem::generate(params);

  auto overlap_count = [](const topo::Ecosystem& eco) {
    const probing::SeedDatabase db =
        probing::SeedDatabase::generate(eco, probing::SeedGenParams{});
    const probing::SelectionResult selection =
        probing::select_probe_seeds(eco, db, 11);
    ExperimentConfig config;
    config.seed = 502;
    config.auto_plant_outages = false;
    config.p_week_variation = 0.0;
    config.p_prefix_flaky = 0.0;
    const auto inferences = classify_experiment(
        ExperimentController(eco, selection.seeds, config).run());
    std::unordered_map<net::Asn, std::unordered_set<int>> categories;
    for (const PrefixInference& p : inferences) {
      if (p.inference == Inference::kExcludedLoss ||
          p.inference == Inference::kMixed) {
        continue;  // mixed overlap exists in both worlds
      }
      categories[p.origin].insert(static_cast<int>(p.inference));
    }
    std::size_t multi = 0;
    for (const auto& [as, cats] : categories) multi += cats.size() > 1 ? 1 : 0;
    return multi;
  };

  const std::size_t with_overlap = overlap_count(with);
  const std::size_t without_overlap = overlap_count(without);
  EXPECT_GT(with_overlap, without_overlap);
  EXPECT_GT(with_overlap, 3u);
}

TEST(ExperimentVariants, MemberMissingFromDirectoryIsSkipped) {
  // An AS can appear in the member list (observed in BGP) without a
  // directory record (registry gap). Forcing every member through both
  // directory lookups — the week-variation draw and the outage-plant scan
  // — must skip the gap instead of dereferencing a null record.
  SmallWorld world = SmallWorld::make();
  const net::Asn missing = world.ecosystem.members().front();
  ASSERT_TRUE(world.ecosystem.directory().erase(missing));
  ASSERT_EQ(world.ecosystem.directory().find(missing), nullptr);

  ExperimentConfig config;
  config.seed = 502;
  config.p_week_variation = 1.0;   // line up a lookup for every member
  config.auto_plant_outages = true;  // and the outage-plant scan too
  const ExperimentResult result = world.run(config);
  EXPECT_EQ(result.observations.size(), world.selection.seeds.size());
}

TEST(ExperimentVariants, ParallelProbingIsBitIdenticalToSerial) {
  // The tentpole contract: an experiment probed through the thread pool
  // must produce exactly the observations, classifications, and Table 1 of
  // the serial run for the same seed, for any thread count.
  const SmallWorld world = SmallWorld::make();
  ExperimentConfig config;
  config.seed = 502;

  const ExperimentResult serial =
      ExperimentController(world.ecosystem, world.selection.seeds, config)
          .run();

  auto fingerprint = [](const ExperimentResult& result) {
    std::string out;
    // Each column: its target addresses, then one outcome code per
    // (round, target).
    for (const PrefixObservation& obs : result.observations) {
      out += obs.prefix.to_string() + "|";
      for (const net::IPv4Address address : obs.rounds.addresses()) {
        out += address.to_string() + ",";
      }
      for (const probing::PrefixRoundResult& round : obs.rounds) {
        out += ";";
        for (const probing::OutcomeCode code : round.outcomes.codes()) {
          out += std::to_string(code);
        }
      }
      out += "\n";
    }
    for (const PrefixInference& p : classify_experiment(result)) {
      out += to_string(p.inference) + "\n";
    }
    return out;
  };
  const std::string reference = fingerprint(serial);

  for (const std::size_t threads : {2u, 8u}) {
    runtime::ThreadPool pool(threads);
    const ExperimentResult parallel =
        ExperimentController(world.ecosystem, world.selection.seeds, config,
                             &pool)
            .run();
    EXPECT_EQ(fingerprint(parallel), reference) << threads << " threads";
  }
}

TEST(ExperimentVariants, FlakyProbabilityControlsLossExclusions) {
  const SmallWorld world = SmallWorld::make();
  ExperimentConfig config;
  config.seed = 502;
  config.auto_plant_outages = false;
  config.p_prefix_flaky = 0.0;
  config.prober.transient_loss = 0.0;
  const Table1 clean = summarize_table1(classify_experiment(world.run(config)));
  EXPECT_EQ(clean.excluded_loss, 0u);

  config.p_prefix_flaky = 0.20;
  const Table1 lossy = summarize_table1(classify_experiment(world.run(config)));
  EXPECT_GT(lossy.excluded_loss, clean.excluded_loss);
  EXPECT_NEAR(
      static_cast<double>(lossy.excluded_loss) /
          (lossy.total_prefixes + lossy.excluded_loss),
      0.20, 0.05);
}

}  // namespace
}  // namespace re::core
