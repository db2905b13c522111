// Ablation: decision-process fidelity — the route-age tie-break.
//
// Appendix A/B hinge on a small population of networks that ignore AS
// path length and select the oldest route (case J): they are the ASes
// switching exactly at configuration 0-1 in both experiments. If the
// simulator's decision process drops the route-age step (forcing the
// deterministic router-id comparison everywhere), that signature must
// disappear — demonstrating that the 0-1 switchers are genuinely produced
// by route-age semantics and not an artifact of the schedule.
#include <cstdio>
#include <functional>
#include <unordered_map>
#include <vector>

#include "bench/world.h"
#include "core/comparator.h"
#include "core/switch_cdf.h"
#include "runtime/thread_pool.h"

namespace {

// The count of ASes first switching at 0-1 in both experiments, plus how
// many of those are planted case-J networks.
struct ZeroOneSwitchers {
  std::size_t ases = 0;
  std::size_t planted_route_age = 0;
};

re::core::ExperimentResult run_on(const re::topo::Ecosystem& eco,
                                  const re::bench::World& world,
                                  re::core::ReExperiment which) {
  using namespace re;
  core::ExperimentConfig config;
  config.experiment = which;
  config.seed = which == core::ReExperiment::kSurf ? 501 : 502;
  config.auto_plant_outages = false;
  return core::ExperimentController(eco, world.selection.seeds, config).run();
}

ZeroOneSwitchers count_zero_one_switchers(
    const re::bench::World& world,
    const std::vector<re::core::PrefixInference>& surf,
    const std::vector<re::core::PrefixInference>& i2) {
  using namespace re;
  const auto schedule = core::paper_schedule();
  int first_comm_step = -1;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    if (schedule[i].re == 0 && schedule[i].comm > 0) {
      first_comm_step = static_cast<int>(i);
      break;
    }
  }

  std::unordered_map<net::Asn, std::pair<int, int>> first_switch;
  for (const auto& [a, b] : core::switching_in_both(surf, i2)) {
    auto& entry =
        first_switch.try_emplace(a->origin, std::pair<int, int>{99, 99})
            .first->second;
    if (a->first_re_round) entry.first = std::min(entry.first, *a->first_re_round);
    if (b->first_re_round) entry.second = std::min(entry.second, *b->first_re_round);
  }
  ZeroOneSwitchers out;
  for (const auto& [as, rounds] : first_switch) {
    if (rounds.first != first_comm_step || rounds.second != first_comm_step) {
      continue;
    }
    ++out.ases;
    const topo::AsRecord* record = world.ecosystem.directory().find(as);
    if (record != nullptr && record->traits.uses_route_age) {
      ++out.planted_route_age;
    }
  }
  return out;
}

}  // namespace

int main() {
  using namespace re;
  const bench::World world = bench::make_world();

  // The fidelity knob is per-AS decision configuration; for the disabled
  // variant, strip the plant from a copied ecosystem so the rebuilt
  // networks use router-id tie-breaks everywhere.
  topo::Ecosystem stripped = world.ecosystem;
  for (const net::Asn member : stripped.members()) {
    topo::AsRecord* record = stripped.directory().find(member);
    record->traits.uses_route_age = false;
    record->traits.ignores_as_path_length = false;
  }

  // Four independent experiments (two variants x two experiments) — run
  // them as one flat batch on the pool.
  runtime::ThreadPool pool;
  const topo::Ecosystem* ecos[2] = {&world.ecosystem, &stripped};
  const core::ReExperiment whichs[2] = {core::ReExperiment::kSurf,
                                        core::ReExperiment::kInternet2};
  core::ExperimentResult cold_runs[4];
  std::vector<std::function<void()>> cold_tasks;
  for (std::size_t i = 0; i < 4; ++i) {
    cold_tasks.push_back([&, i] {
      cold_runs[i] = run_on(*ecos[i / 2], world, whichs[i % 2]);
    });
  }
  pool.run_batch(cold_tasks);

  // Warm pass: one checkpoint per experiment on the planted ecosystem.
  // The stripped-ecosystem runs hand run(base) an incompatible checkpoint
  // (different ecosystem object) and fall back to cold runs — exercising
  // the guard that keeps a fork from silently crossing worlds.
  core::ExperimentController::BaselineCheckpoint bases[2];
  for (std::size_t e = 0; e < 2; ++e) {
    core::ExperimentConfig config;
    config.experiment = whichs[e];
    config.seed = whichs[e] == core::ReExperiment::kSurf ? 501 : 502;
    config.auto_plant_outages = false;
    bases[e] = core::ExperimentController(world.ecosystem,
                                          world.selection.seeds, config)
                   .checkpoint_baseline();
  }
  core::ExperimentResult warm_runs[4];
  std::vector<std::function<void()>> warm_tasks;
  for (std::size_t i = 0; i < 4; ++i) {
    warm_tasks.push_back([&, i] {
      core::ExperimentConfig config;
      config.experiment = whichs[i % 2];
      config.seed =
          whichs[i % 2] == core::ReExperiment::kSurf ? 501 : 502;
      config.auto_plant_outages = false;
      warm_runs[i] = core::ExperimentController(*ecos[i / 2],
                                                world.selection.seeds,
                                                config)
                         .run(bases[i % 2]);
    });
  }
  pool.run_batch(warm_tasks);
  for (std::size_t i = 0; i < 4; ++i) {
    if (core::result_digest(cold_runs[i]) !=
        core::result_digest(warm_runs[i])) {
      std::printf("FAIL: run %zu fork-vs-fresh digest mismatch\n", i);
      return 1;
    }
  }
  std::printf("warm start: 2 forked + 2 incompatible-fallback runs"
              " digest-identical to cold runs\n\n");

  std::vector<core::PrefixInference> runs[4];
  for (std::size_t i = 0; i < 4; ++i) {
    runs[i] = core::classify_experiment(cold_runs[i]);
  }

  const ZeroOneSwitchers with_age =
      count_zero_one_switchers(world, runs[0], runs[1]);
  const ZeroOneSwitchers without_age =
      count_zero_one_switchers(world, runs[2], runs[3]);

  std::printf(
      "ASes first switching at 0-1 in BOTH experiments:\n"
      "  route-age semantics enabled : %zu (%zu planted case-J networks)\n"
      "  route-age semantics removed : %zu (%zu planted case-J networks)\n\n",
      with_age.ases, with_age.planted_route_age, without_age.ases,
      without_age.planted_route_age);

  bench::print_paper_note("Appendix A/B design fidelity");
  std::printf(
      "the paper infers that 8 prefixes by 4 ASes broke ties on route age\n"
      "because they switched at 0-1 in both experiments — the only\n"
      "configuration where route-age semantics produce a switch.\n"
      "shape criteria: with route-age decision semantics the 0-1 cohort\n"
      "exists and consists of the planted case-J ASes; with the tie-break\n"
      "removed the cohort (largely) vanishes.\n");
  return 0;
}
