// Ablation: the paper's prepend-configuration ordering (§3.3 / Appendix A)
// vs a naive interleaved ordering.
//
// The paper's monotone schedule (shrink R&E prepends, then grow commodity
// prepends) guarantees an equal-localpref network transitions commodity ->
// R&E at most once, making "Switch to R&E" an identifiable signature. A
// shuffled schedule makes the same networks flip back and forth, which the
// classifier can only call Oscillating.
#include <cstdio>
#include <functional>
#include <map>
#include <vector>

#include "bench/world.h"
#include "core/classifier.h"
#include "runtime/thread_pool.h"

int main() {
  using namespace re;
  const bench::World world = bench::make_world();

  const std::vector<core::PrependConfig> naive = {
      {0, 2}, {3, 0}, {0, 0}, {0, 4}, {1, 0}, {0, 1}, {4, 0}, {0, 3}, {2, 0}};

  auto config_with = [](const std::vector<core::PrependConfig>& schedule) {
    core::ExperimentConfig config;
    config.experiment = core::ReExperiment::kInternet2;
    config.schedule = schedule;
    config.seed = 502;
    config.auto_plant_outages = false;  // isolate the ordering effect
    return config;
  };

  // The two orderings are independent experiments — run both concurrently.
  runtime::ThreadPool pool;
  core::ExperimentResult paper_cold, shuffled_cold;
  pool.run_batch(
      {[&] {
         paper_cold = core::ExperimentController(
                          world.ecosystem, world.selection.seeds,
                          config_with(core::paper_schedule()))
                          .run();
       },
       [&] {
         shuffled_cold = core::ExperimentController(
                             world.ecosystem, world.selection.seeds,
                             config_with(naive))
                             .run();
       }});

  // Warm pass. The two schedules open with different R&E prepend levels
  // (4-0 vs 0-2), so their baselines differ: the paper ordering forks the
  // checkpoint, the shuffled one is incompatible and run(base) falls back
  // to a cold run — both still digest-identical to the cold pass.
  const core::ExperimentController::BaselineCheckpoint base =
      core::ExperimentController(world.ecosystem, world.selection.seeds,
                                 config_with(core::paper_schedule()))
          .checkpoint_baseline();
  core::ExperimentResult paper_warm, shuffled_warm;
  pool.run_batch(
      {[&] {
         paper_warm = core::ExperimentController(
                          world.ecosystem, world.selection.seeds,
                          config_with(core::paper_schedule()))
                          .run(base);
       },
       [&] {
         shuffled_warm = core::ExperimentController(
                             world.ecosystem, world.selection.seeds,
                             config_with(naive))
                             .run(base);
       }});
  if (core::result_digest(paper_cold) != core::result_digest(paper_warm) ||
      core::result_digest(shuffled_cold) !=
          core::result_digest(shuffled_warm)) {
    std::printf("FAIL: fork-vs-fresh digest mismatch\n");
    return 1;
  }
  std::printf("warm start: forked (paper order) and fallback (shuffled"
              " order) runs digest-identical to cold runs\n\n");

  const std::vector<core::PrefixInference> paper =
      core::classify_experiment(paper_cold);
  const std::vector<core::PrefixInference> shuffled =
      core::classify_experiment(shuffled_cold);

  // How are the *planted equal-localpref* ASes classified under each order?
  auto tally = [&](const std::vector<core::PrefixInference>& inferences) {
    std::map<core::Inference, std::size_t> counts;
    for (const core::PrefixInference& p : inferences) {
      const topo::AsRecord* r = world.ecosystem.directory().find(p.origin);
      if (r == nullptr || r->traits.stance != bgp::ReStance::kEqualPref ||
          r->traits.reject_re_routes || !r->traits.has_commodity ||
          r->traits.uses_route_age) {
        continue;
      }
      ++counts[p.inference];
    }
    return counts;
  };
  const auto paper_counts = tally(paper);
  const auto shuffled_counts = tally(shuffled);

  std::printf(
      "classification of prefixes originated by planted equal-localpref"
      " ASes:\n\n%-24s %14s %16s\n", "inference", "paper order",
      "shuffled order");
  for (const core::Inference inference :
       {core::Inference::kAlwaysRe, core::Inference::kAlwaysCommodity,
        core::Inference::kSwitchToRe, core::Inference::kSwitchToCommodity,
        core::Inference::kMixed, core::Inference::kOscillating,
        core::Inference::kExcludedLoss}) {
    const auto count = [&](const std::map<core::Inference, std::size_t>& m) {
      const auto it = m.find(inference);
      return it == m.end() ? std::size_t{0} : it->second;
    };
    std::printf("%-24s %14zu %16zu\n", to_string(inference).c_str(),
                count(paper_counts), count(shuffled_counts));
  }

  const auto get = [](const std::map<core::Inference, std::size_t>& m,
                      core::Inference i) {
    const auto it = m.find(i);
    return it == m.end() ? std::size_t{0} : it->second;
  };
  const std::size_t paper_switch = get(paper_counts, core::Inference::kSwitchToRe);
  const std::size_t shuffled_switch =
      get(shuffled_counts, core::Inference::kSwitchToRe);
  const std::size_t shuffled_oscillating =
      get(shuffled_counts, core::Inference::kOscillating);
  std::printf(
      "\nidentifiable equal-localpref signature: %zu prefixes under the paper"
      " order vs %zu under the shuffled order (%zu degrade to Oscillating)\n\n",
      paper_switch, shuffled_switch, shuffled_oscillating);

  bench::print_paper_note("§3.3 design choice");
  std::printf(
      "the paper chose the 4-0..0-0..0-4 ordering 'to minimize the\n"
      "variables that could affect routing decisions between tests'.\n"
      "shape criteria: under the paper order nearly all equal-localpref\n"
      "prefixes show the single commodity->R&E switch; under a shuffled\n"
      "order most of that signal collapses into Oscillating.\n");
  return 0;
}
