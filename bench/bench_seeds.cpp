// §3.2 reproduction: the probe-seed pipeline statistics, plus the
// multi-seed trial study: the same experiment re-run under RE_TRIALS
// (default 16) master-seed-derived seeds to bound Table 1's sensitivity
// to simulation randomness. Trials are independent, so the sweep runs
// once serially and once on the thread pool; the bench fails if the two
// passes disagree anywhere (the determinism contract of src/runtime/).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/world.h"
#include "core/classifier.h"
#include "runtime/env.h"
#include "runtime/rng_streams.h"
#include "runtime/thread_pool.h"

namespace {

std::size_t trial_count() {
  // Validated: RE_TRIALS=8garbage used to silently run 8 trials; now a
  // malformed value aborts (see runtime/env.h).
  return re::runtime::env_positive_size("RE_TRIALS", 16);
}

re::core::Table1 run_trial(const re::bench::World& world, std::uint64_t master,
                           std::size_t trial) {
  re::core::ExperimentConfig config;
  config.experiment = re::core::ReExperiment::kInternet2;
  config.seed = re::runtime::derive_stream_seed(master, trial);
  re::core::ExperimentController controller(world.ecosystem,
                                            world.selection.seeds, config);
  return re::core::summarize_table1(
      re::core::classify_experiment(controller.run()));
}

// Canonical text form of a Table 1 so two sweeps can be diffed cheaply.
std::string fingerprint(const re::core::Table1& table) {
  std::string out;
  for (const auto& [inference, cell] : table.cells) {
    out += re::core::to_string(inference) + ":" +
           std::to_string(cell.prefixes) + "/" + std::to_string(cell.ases) +
           ";";
  }
  out += "total:" + std::to_string(table.total_prefixes) + "/" +
         std::to_string(table.total_ases) +
         ";excluded:" + std::to_string(table.excluded_loss);
  return out;
}

}  // namespace

int main() {
  using namespace re;
  const bench::World world = bench::make_world();
  const probing::SelectionStats& s = world.selection.stats;

  auto pct = [](std::size_t num, std::size_t den) {
    return den == 0 ? 0.0 : 100.0 * static_cast<double>(num) / den;
  };
  std::printf("§3.2 — probe seed pipeline\n\n");
  std::printf("prefix universe (non-covered):        %zu\n", s.total_prefixes);
  std::printf("excluded as covered by another:       %zu\n", s.covered_excluded);
  std::printf("with ISI history seeds:               %zu (%.1f%%)\n",
              s.isi_seeded, pct(s.isi_seeded, s.total_prefixes));
  std::printf("with any seeds (ISI or Censys):       %zu (%.1f%%)\n",
              s.any_seeded, pct(s.any_seeded, s.total_prefixes));
  std::printf("responsive at probe time:             %zu (%.1f%%)\n",
              s.responsive, pct(s.responsive, s.total_prefixes));
  std::printf("with three destinations:              %zu (%.1f%% of responsive)\n",
              s.with_three_targets, pct(s.with_three_targets, s.responsive));
  std::printf("seed origin: ISI-only %zu (%.1f%%), Censys-only %zu (%.1f%%),"
              " mixed %zu (%.1f%%)\n",
              s.isi_only, pct(s.isi_only, s.responsive), s.censys_only,
              pct(s.censys_only, s.responsive), s.mixed,
              pct(s.mixed, s.responsive));
  std::printf("ASes: total %zu, seeded %zu (%.1f%%), responsive %zu (%.1f%%)\n\n",
              s.ases_total, s.ases_seeded, pct(s.ases_seeded, s.ases_total),
              s.ases_responsive, pct(s.ases_responsive, s.ases_total));

  bench::print_paper_note("§3.2");
  std::printf(
      "paper: 17,989 prefixes after excluding 437 covered + the measurement\n"
      "prefix; ISI seeds for 11,731 (65.2%%) covering 95.8%% of ASes; with\n"
      "Censys 13,189 (73.3%%) covering 98.8%%; responsive addresses in\n"
      "12,241 (68.0%%) / 2,594 ASes (97.8%%); three destinations in 10,123\n"
      "(82.7%%) of responsive; ICMP/ISI seeds for 77.8%%, Censys 24.4%%,\n"
      "mixed 2.1%%.\n\n");

  // ---- multi-seed trial study --------------------------------------------
  const std::size_t trials = trial_count();
  const std::uint64_t master = 777;
  const std::size_t threads = runtime::ThreadPool::default_thread_count();
  std::printf("multi-seed study: %zu trials, master seed %llu, %zu threads\n",
              trials, static_cast<unsigned long long>(master), threads);

  auto wall = [](auto&& fn) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  std::vector<core::Table1> serial(trials);
  const double serial_seconds = wall([&] {
    for (std::size_t trial = 0; trial < trials; ++trial) {
      serial[trial] = run_trial(world, master, trial);
    }
  });

  std::vector<core::Table1> parallel(trials);
  runtime::ThreadPool pool(threads);
  const double parallel_seconds = wall([&] {
    pool.parallel_for(trials, [&](std::size_t trial) {
      parallel[trial] = run_trial(world, master, trial);
    });
  });
  // Report the pool's actual worker count, not the requested one — a
  // 1-core container clamps the pool and the line must say so.
  std::printf(
      "serial %.3fs, parallel %.3fs on %zu worker(s): %.2fx speedup\n",
      serial_seconds, parallel_seconds, pool.thread_count(),
      parallel_seconds > 0.0 ? serial_seconds / parallel_seconds : 0.0);

  for (std::size_t trial = 0; trial < trials; ++trial) {
    if (fingerprint(serial[trial]) != fingerprint(parallel[trial])) {
      std::printf("FAIL: trial %zu diverged between serial and parallel\n"
                  "  serial:   %s\n  parallel: %s\n",
                  trial, fingerprint(serial[trial]).c_str(),
                  fingerprint(parallel[trial]).c_str());
      return 1;
    }
  }
  std::printf("determinism: all %zu trials byte-identical serial vs parallel\n",
              trials);

  // Table 1 stability across seeds: the headline Always-R&E share should
  // move by at most a few points between trials (§4's robustness claim).
  double lo = 100.0, hi = 0.0, sum = 0.0;
  for (const core::Table1& table : serial) {
    const double share = 100.0 * table.prefix_share(core::Inference::kAlwaysRe);
    lo = std::min(lo, share);
    hi = std::max(hi, share);
    sum += share;
  }
  std::printf("Always R&E prefix share across trials: mean %.1f%%"
              " min %.1f%% max %.1f%% (spread %.1f pts)\n",
              sum / static_cast<double>(trials), lo, hi, hi - lo);

  // ---- warm-start (checkpoint + fork) trial study ------------------------
  // The fork engine pays off when the shared baseline dominates a trial,
  // which is the realistic configuration: a full internet-like RIB
  // converged once (full_rib_baseline), then N trials forking it. Runs on
  // a small fixed-scale world so the full-RIB convergence stays tractable
  // inside a bench.
  {
    const std::size_t warm_trials =
        runtime::env_positive_size("RE_WARM_TRIALS", 4);
    topo::EcosystemParams params = topo::EcosystemParams{}.scaled(0.05);
    params.seed = 20250529;
    const topo::Ecosystem small_eco = topo::Ecosystem::generate(params);
    const probing::SeedDatabase small_db =
        probing::SeedDatabase::generate(small_eco, probing::SeedGenParams{});
    const probing::SelectionResult small_sel =
        probing::select_probe_seeds(small_eco, small_db, 11);
    std::printf(
        "\nwarm-start study: %zu full-RIB trials on a %zu-AS world\n",
        warm_trials, small_eco.directory().size());

    auto trial_config = [&](std::size_t trial) {
      core::ExperimentConfig config;
      config.experiment = core::ReExperiment::kInternet2;
      config.seed = runtime::derive_stream_seed(master, trial);
      // All trials share one baseline stream (and so one forkable
      // baseline); per-trial randomness draws from the trial seed.
      config.baseline_seed = master;
      config.full_rib_baseline = true;
      return config;
    };

    std::vector<core::ExperimentResult> cold_runs(warm_trials);
    const double cold_seconds = wall([&] {
      for (std::size_t trial = 0; trial < warm_trials; ++trial) {
        cold_runs[trial] = core::ExperimentController(
                               small_eco, small_sel.seeds, trial_config(trial))
                               .run();
      }
    });

    core::ExperimentController::BaselineCheckpoint base;
    const double checkpoint_seconds = wall([&] {
      base = core::ExperimentController(small_eco, small_sel.seeds,
                                        trial_config(0))
                 .checkpoint_baseline();
    });

    std::vector<core::ExperimentResult> warm_runs(warm_trials);
    const double warm_seconds = wall([&] {
      for (std::size_t trial = 0; trial < warm_trials; ++trial) {
        warm_runs[trial] = core::ExperimentController(
                               small_eco, small_sel.seeds, trial_config(trial))
                               .run(base);
      }
    });

    for (std::size_t trial = 0; trial < warm_trials; ++trial) {
      const std::uint64_t cold = core::result_digest(cold_runs[trial]);
      const std::uint64_t warm = core::result_digest(warm_runs[trial]);
      if (cold != warm) {
        std::printf("FAIL: warm trial %zu digest mismatch"
                    " cold=%016llx warm=%016llx\n",
                    trial, static_cast<unsigned long long>(cold),
                    static_cast<unsigned long long>(warm));
        return 1;
      }
    }
    std::printf(
        "cold %.3fs, warm %.3fs after a %.3fs one-time checkpoint: %.2fx\n"
        "all %zu forked trials digest-identical to cold runs\n",
        cold_seconds, warm_seconds, checkpoint_seconds,
        warm_seconds > 0.0 ? cold_seconds / warm_seconds : 0.0, warm_trials);
  }
  return 0;
}
