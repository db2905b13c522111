// Integration tests for the experiment controller on a scaled-down
// ecosystem: end-to-end behaviour the individual unit tests cannot see.
#include <gtest/gtest.h>

#include <unordered_set>

#include "core/classifier.h"
#include "core/experiment.h"
#include "core/validator.h"
#include "obs/metrics.h"
#include "probing/seeds.h"
#include "runtime/thread_pool.h"
#include "topology/ecosystem.h"

namespace re::core {
namespace {

struct World {
  topo::Ecosystem ecosystem;
  probing::SelectionResult selection;
  ExperimentResult surf, internet2;
  // FIB compiles each run() added to the "fib.compiles" registry counter.
  std::uint64_t surf_fib_compiles = 0, internet2_fib_compiles = 0;
};

// Runs one experiment, returning the FIB compiles it performed.
std::uint64_t run_counting_compiles(const World& world,
                                    const ExperimentConfig& config,
                                    ExperimentResult& out) {
  const obs::Counter& compiles = obs::registry().counter("fib.compiles");
  const std::uint64_t before = compiles.value();
  out = ExperimentController(world.ecosystem, world.selection.seeds, config)
            .run();
  return compiles.value() - before;
}

World* make_world() {
  topo::EcosystemParams params;
  params = params.scaled(0.08);
  params.seed = 20250529;
  auto* world = new World{topo::Ecosystem::generate(params), {}, {}, {}};

  const probing::SeedDatabase db =
      probing::SeedDatabase::generate(world->ecosystem, probing::SeedGenParams{});
  world->selection = probing::select_probe_seeds(world->ecosystem, db, 11);

  ExperimentConfig surf_config;
  surf_config.experiment = ReExperiment::kSurf;
  surf_config.seed = 501;
  world->surf_fib_compiles =
      run_counting_compiles(*world, surf_config, world->surf);

  ExperimentConfig i2_config;
  i2_config.experiment = ReExperiment::kInternet2;
  i2_config.seed = 502;
  world->internet2_fib_compiles =
      run_counting_compiles(*world, i2_config, world->internet2);
  return world;
}

class ExperimentFixture : public ::testing::Test {
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
const World* ExperimentFixture::world_ = nullptr;

TEST_F(ExperimentFixture, NineRoundsWithPaperConfigs) {
  const auto& windows = world().internet2.windows;
  ASSERT_EQ(windows.size(), 9u);
  const char* expected[] = {"4-0", "3-0", "2-0", "1-0", "0-0",
                            "0-1", "0-2", "0-3", "0-4"};
  for (std::size_t i = 0; i < 9; ++i) {
    EXPECT_EQ(windows[i].config.label(), expected[i]);
  }
}

TEST_F(ExperimentFixture, OneHourBetweenChangeAndProbe) {
  for (const RoundWindow& w : world().internet2.windows) {
    EXPECT_GE(w.probe_start - w.config_applied, net::kHour)
        << w.config.label();
  }
}

TEST_F(ExperimentFixture, ConvergenceWellBeforeProbing) {
  // Figure 3: BGP activity settled for at least 50 minutes before each
  // probing window.
  for (const RoundWindow& w : world().internet2.windows) {
    EXPECT_LE(w.converged_at, w.probe_start - 50 * net::kMinute)
        << w.config.label();
  }
}

TEST_F(ExperimentFixture, ObservationsCoverEverySeededPrefix) {
  const auto& result = world().internet2;
  ASSERT_EQ(result.observations.size(), world().selection.seeds.size());
  for (std::size_t i = 0; i < result.observations.size(); ++i) {
    EXPECT_EQ(result.observations[i].prefix,
              world().selection.seeds[i].prefix);
    EXPECT_EQ(result.observations[i].rounds.size(), 9u);
  }
}

TEST_F(ExperimentFixture, VlansDifferPerExperiment) {
  EXPECT_EQ(world().surf.re_vlan, ExperimentController::kSurfReVlan);
  EXPECT_EQ(world().internet2.re_vlan, ExperimentController::kInternet2ReVlan);
  EXPECT_EQ(world().surf.commodity_vlan, world().internet2.commodity_vlan);
  EXPECT_EQ(world().surf.re_origin, net::asn::kSurfExperiment);
  EXPECT_EQ(world().internet2.re_origin, net::asn::kInternet2);
}

TEST_F(ExperimentFixture, Table1ShapeMatchesPaper) {
  for (const ExperimentResult* result : {&world().surf, &world().internet2}) {
    const Table1 table = summarize_table1(classify_experiment(*result));
    ASSERT_GT(table.total_prefixes, 0u);
    // ~81% Always R&E, ~7% Always commodity, ~8-9% Switch to R&E, ~3%
    // Mixed in the paper; allow generous bands at reduced scale.
    EXPECT_GT(table.prefix_share(Inference::kAlwaysRe), 0.70);
    EXPECT_LT(table.prefix_share(Inference::kAlwaysRe), 0.92);
    EXPECT_GT(table.prefix_share(Inference::kAlwaysCommodity), 0.02);
    EXPECT_LT(table.prefix_share(Inference::kAlwaysCommodity), 0.15);
    EXPECT_GT(table.prefix_share(Inference::kSwitchToRe), 0.02);
    EXPECT_LT(table.prefix_share(Inference::kSwitchToRe), 0.16);
    EXPECT_GT(table.prefix_share(Inference::kMixed), 0.005);
    EXPECT_LT(table.prefix_share(Inference::kMixed), 0.08);
    // The degenerate categories stay tiny.
    EXPECT_LT(table.prefix_share(Inference::kSwitchToCommodity), 0.01);
    EXPECT_LT(table.prefix_share(Inference::kOscillating), 0.02);
  }
}

TEST_F(ExperimentFixture, SwitchPrefixesSwitchExactlyOnce) {
  for (const PrefixInference& p :
       classify_experiment(world().internet2)) {
    if (p.inference != Inference::kSwitchToRe) continue;
    ASSERT_TRUE(p.first_re_round.has_value());
    // All rounds before the switch are commodity, all from it are R&E.
    for (std::size_t i = 0; i < p.rounds.size(); ++i) {
      if (static_cast<int>(i) < *p.first_re_round) {
        EXPECT_EQ(p.rounds[i], RoundState::kCommodity);
      } else {
        EXPECT_EQ(p.rounds[i], RoundState::kRe);
      }
    }
  }
}

TEST_F(ExperimentFixture, NiksMembersDivergeBetweenExperiments) {
  // Figure 4 / Table 2: NIKS members are Always R&E in the SURF experiment
  // (GEANT at localpref 102) but Switch to R&E in the Internet2 experiment
  // (NORDUnet and Arelion at equal localpref 50).
  const auto surf = classify_experiment(world().surf);
  const auto i2 = classify_experiment(world().internet2);
  std::unordered_set<net::Asn> niks_members;
  for (const net::Asn member : world().ecosystem.members()) {
    const topo::AsRecord* r = world().ecosystem.directory().find(member);
    if (r->country == "RU") niks_members.insert(member);
  }
  ASSERT_FALSE(niks_members.empty());

  std::size_t surf_always = 0, i2_switch = 0, seen = 0;
  std::unordered_map<net::Prefix, Inference> i2_by_prefix;
  for (const PrefixInference& p : i2) i2_by_prefix[p.prefix] = p.inference;
  // Interconnect-router plants legitimately turn a prefix Mixed, so they
  // are excluded from the divergence invariant.
  std::unordered_set<net::Prefix> interconnect;
  for (const topo::PrefixRecord& record : world().ecosystem.prefixes()) {
    if (record.has_interconnect_system) interconnect.insert(record.prefix);
  }
  for (const PrefixInference& p : surf) {
    if (!niks_members.count(p.origin)) continue;
    if (p.inference == Inference::kExcludedLoss) continue;
    if (interconnect.count(p.prefix)) continue;
    const auto it = i2_by_prefix.find(p.prefix);
    if (it == i2_by_prefix.end() || it->second == Inference::kExcludedLoss) {
      continue;
    }
    ++seen;
    surf_always += p.inference == Inference::kAlwaysRe ? 1 : 0;
    i2_switch += it->second == Inference::kSwitchToRe ? 1 : 0;
  }
  ASSERT_GT(seen, 0u);
  EXPECT_EQ(surf_always, seen);
  EXPECT_EQ(i2_switch, seen);
}

TEST_F(ExperimentFixture, CommodityPhaseChurnDominates) {
  // Figure 3: few public-view updates while varying R&E prepends, heavy
  // churn while varying commodity prepends.
  const auto& result = world().internet2;
  std::size_t re_phase = 0, comm_phase = 0;
  for (const auto& u : result.update_log.updates()) {
    if (u.prefix != result.measurement_prefix) continue;
    if (u.time >= result.experiment_start && u.time < result.re_phase_end) {
      ++re_phase;
    } else if (u.time >= result.re_phase_end &&
               u.time < result.experiment_end) {
      ++comm_phase;
    }
  }
  EXPECT_GT(comm_phase, 4 * re_phase);
  EXPECT_GT(re_phase, 0u);
}

TEST_F(ExperimentFixture, GroundTruthAccuracyHigh) {
  // §4.1.2: at least 32 of 33 validated inferences were correct; our
  // planted ground truth lets us check every AS.
  const GroundTruthReport report = validate_against_plant(
      classify_experiment(world().internet2), world().ecosystem);
  ASSERT_GT(report.ases_checked, 50u);
  EXPECT_GT(report.accuracy(), 0.95);
}

TEST_F(ExperimentFixture, DeterministicRerun) {
  ExperimentConfig config;
  config.experiment = ReExperiment::kInternet2;
  config.seed = 502;
  const ExperimentResult again =
      ExperimentController(world().ecosystem, world().selection.seeds, config)
          .run();
  const auto a = classify_experiment(world().internet2);
  const auto b = classify_experiment(again);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].inference, b[i].inference) << a[i].prefix.to_string();
  }
}

TEST_F(ExperimentFixture, MixedPrefixesLeanTowardsRe) {
  // §4: within mixed prefixes the overall system ratio was ~2:1 in favour
  // of R&E.
  std::size_t re_systems = 0, comm_systems = 0;
  const auto inferences = classify_experiment(world().internet2);
  std::unordered_set<net::Prefix> mixed;
  for (const PrefixInference& p : inferences) {
    if (p.inference == Inference::kMixed) mixed.insert(p.prefix);
  }
  ASSERT_FALSE(mixed.empty());
  for (const PrefixObservation& obs : world().internet2.observations) {
    if (!mixed.count(obs.prefix)) continue;
    for (const auto& round : obs.rounds) {
      for (const auto& outcome : round.outcomes) {
        if (!outcome.responded) continue;
        (outcome.vlan_id == world().internet2.re_vlan ? re_systems
                                                      : comm_systems) += 1;
      }
    }
  }
  EXPECT_GT(re_systems, comm_systems);
}

TEST_F(ExperimentFixture, ProbesResolveThroughCompiledFib) {
  // Every probe target resolves through the experiment's one compiled
  // catchment FIB: it compiled, and recompiled at most once per round
  // (refresh() runs once per round, before probing).
  EXPECT_GT(world().surf_fib_compiles, 0u);
  EXPECT_LE(world().surf_fib_compiles, world().surf.windows.size());
  EXPECT_GT(world().internet2_fib_compiles, 0u);
  EXPECT_LE(world().internet2_fib_compiles, world().internet2.windows.size());
}

// An absolute check, not a relative one: re_survey's setup at --scale 0.05
// (default seed, the default seed database, 11 probe targets per prefix,
// per-experiment seeds ^501 / ^502, a 2-thread probing pool) must reproduce
// the digests `re_survey --scale 0.05` prints. Every other gate compares
// two runs of the current code; this one catches a change that moves both.
// The values hold for the libstdc++ toolchain CI builds with: two
// tie-prone std::sort calls mean another standard library may order equal
// keys differently.
TEST(SurveyDigestPin, ScaleFivePercentMatchesPinnedDigests) {
  constexpr std::uint64_t kSeed = 20250529;
  topo::EcosystemParams params = topo::EcosystemParams{}.scaled(0.05);
  params.seed = kSeed;
  const topo::Ecosystem ecosystem = topo::Ecosystem::generate(params);
  const probing::SeedDatabase db =
      probing::SeedDatabase::generate(ecosystem, probing::SeedGenParams{});
  const probing::SelectionResult selection =
      probing::select_probe_seeds(ecosystem, db, 11);
  runtime::ThreadPool pool(2);

  ExperimentConfig surf_config;
  surf_config.experiment = ReExperiment::kSurf;
  surf_config.seed = kSeed ^ 501;
  const ExperimentResult surf =
      ExperimentController(ecosystem, selection.seeds, surf_config, &pool).run();

  ExperimentConfig i2_config;
  i2_config.experiment = ReExperiment::kInternet2;
  i2_config.seed = kSeed ^ 502;
  const ExperimentResult i2 =
      ExperimentController(ecosystem, selection.seeds, i2_config, &pool).run();

  EXPECT_EQ(result_digest(surf), 0x1f31091f92e96064ull);
  EXPECT_EQ(result_digest(i2), 0xcce29d9669329108ull);
}

}  // namespace
}  // namespace re::core
