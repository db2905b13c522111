// Ablation: three responsive systems per prefix vs one (§3.2).
//
// The paper probes up to three addresses per prefix "to reduce the chance
// that we were unlucky and only selected an address ... assigned to a
// router operated by a different AS". With a single VP per prefix the
// Mixed class disappears (no within-round diversity is observable) and
// interconnect-router addresses silently misattribute the policy.
#include <cstdio>
#include <functional>
#include <map>
#include <vector>

#include "bench/world.h"
#include "core/classifier.h"
#include "runtime/thread_pool.h"

int main() {
  using namespace re;

  topo::EcosystemParams params;
  const double scale = bench::bench_scale();
  if (scale < 1.0) params = params.scaled(scale);
  params.seed = 20250529;
  const topo::Ecosystem ecosystem = topo::Ecosystem::generate(params);
  const probing::SeedDatabase db =
      probing::SeedDatabase::generate(ecosystem, probing::SeedGenParams{});

  // The three target-count variants reselect seeds and rerun the whole
  // experiment independently — batch them on the pool.
  const int target_counts[] = {1, 2, 3};
  auto variant_config = [] {
    core::ExperimentConfig config;
    config.experiment = core::ReExperiment::kInternet2;
    config.seed = 502;
    config.auto_plant_outages = false;
    return config;
  };
  runtime::ThreadPool pool;
  std::vector<probing::SelectionResult> selections(3);
  for (std::size_t i = 0; i < 3; ++i) {
    selections[i] =
        probing::select_probe_seeds(ecosystem, db, 11, target_counts[i]);
  }
  core::ExperimentResult cold_runs[3];
  std::vector<std::function<void()>> cold_tasks;
  for (std::size_t i = 0; i < 3; ++i) {
    cold_tasks.push_back([&, i] {
      cold_runs[i] = core::ExperimentController(
                         ecosystem, selections[i].seeds, variant_config())
                         .run();
    });
  }
  pool.run_batch(cold_tasks);

  // Warm pass: the §3.1 baseline never looks at the probe seeds, so all
  // three seed selections can fork one checkpoint.
  const core::ExperimentController::BaselineCheckpoint base =
      core::ExperimentController(ecosystem, selections[2].seeds,
                                 variant_config())
          .checkpoint_baseline();
  core::ExperimentResult warm_runs[3];
  std::vector<std::function<void()>> warm_tasks;
  for (std::size_t i = 0; i < 3; ++i) {
    warm_tasks.push_back([&, i] {
      warm_runs[i] = core::ExperimentController(
                         ecosystem, selections[i].seeds, variant_config())
                         .run(base);
    });
  }
  pool.run_batch(warm_tasks);
  for (std::size_t i = 0; i < 3; ++i) {
    if (core::result_digest(cold_runs[i]) != core::result_digest(warm_runs[i])) {
      std::printf("FAIL: variant %zu fork-vs-fresh digest mismatch\n", i);
      return 1;
    }
  }
  std::printf("warm start: all 3 forked variants digest-identical to cold"
              " runs\n\n");

  std::vector<std::map<core::Inference, std::size_t>> results(3);
  for (std::size_t i = 0; i < 3; ++i) {
    for (const auto& p : core::classify_experiment(cold_runs[i])) {
      ++results[i][p.inference];
    }
  }

  std::printf("%-14s %10s %10s %10s %10s %10s\n", "targets/prefix",
              "always-re", "comm", "switch", "mixed", "loss");
  for (std::size_t i = 0; i < 3; ++i) {
    const auto& counts = results[i];
    auto count = [&](core::Inference inference) {
      const auto it = counts.find(inference);
      return it == counts.end() ? std::size_t{0} : it->second;
    };
    std::printf("%-14d %10zu %10zu %10zu %10zu %10zu\n", target_counts[i],
                count(core::Inference::kAlwaysRe),
                count(core::Inference::kAlwaysCommodity),
                count(core::Inference::kSwitchToRe),
                count(core::Inference::kMixed),
                count(core::Inference::kExcludedLoss));
  }

  std::printf("\n");
  bench::print_paper_note("§3.2 / §3.4 design choice");
  std::printf(
      "shape criteria: the Mixed class (and with it the §4.1.2\n"
      "interconnect-router diagnosis) only exists with >= 2 systems per\n"
      "prefix; single-VP probing folds those prefixes into the pure\n"
      "classes, overstating policy uniformity. Loss exclusions also rise\n"
      "with fewer systems per prefix.\n");
  return 0;
}
