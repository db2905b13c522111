// re_survey: the full measurement campaign, end to end — the analogue of
// the scamper-driven survey program the paper released.
//
// Generates (or scales) the R&E ecosystem, builds the probe-seed set, runs
// both experiments, prints Tables 1 and 2, and writes per-prefix results
// as JSON lines (prefix, origin ASN, per-round return classes, inference)
// the way the paper's tooling emits JSON results.
//
// usage: re_survey [--scale S] [--seed N] [--json FILE] [--max-lines N]
//                  [--threads N] [--checkpoint DIR] [--resume]
//                  [--abort-after-round N] [--trace FILE]
//
// --threads sets the probing worker count (default: RE_THREADS or the
// hardware concurrency). The per-prefix probing phase shards across the
// pool; results are bit-identical for every thread count.
//
// --trace FILE (or RE_TRACE=FILE; the flag wins) records every scoped
// span — baseline convergence, each experiment round, FIB compiles,
// probing on the pool's worker lanes — as Chrome trace-event JSON
// loadable in Perfetto / chrome://tracing. Tracing is telemetry only:
// result digests are bit-identical with it on or off. A final metrics
// dump (the obs registry) is printed after the tables.
//
// --checkpoint DIR saves the full survey state to DIR after every probing
// round; a later run with the same flags plus --resume continues from the
// last saved round and prints the same result digests as an uninterrupted
// run. --abort-after-round N exits right after round N's checkpoint (the
// kill simulation CI uses to test resume).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "analysis/report.h"
#include "io/snapshot_io.h"
#include "core/classifier.h"
#include "core/comparator.h"
#include "core/experiment.h"
#include "core/validator.h"
#include "io/results_io.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "probing/seeds.h"
#include "runtime/env.h"
#include "runtime/thread_pool.h"
#include "topology/ecosystem.h"

namespace {

struct Options {
  double scale = 0.15;
  std::uint64_t seed = 20250529;
  std::string json_path;
  std::size_t max_lines = 0;  // 0 = unlimited
  std::size_t threads = re::runtime::ThreadPool::default_thread_count();
  std::string checkpoint_dir;
  bool resume = false;
  int abort_after_round = -1;
  // Default from RE_TRACE (strict: set-but-blank aborts); --trace wins.
  std::string trace_path = re::runtime::env_string("RE_TRACE", "");
};

Options parse_options(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const auto has_value = [&](const char* flag) {
      return std::strcmp(argv[i], flag) == 0 && i + 1 < argc;
    };
    if (has_value("--scale")) {
      options.scale = std::atof(argv[++i]);
    } else if (has_value("--seed")) {
      options.seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (has_value("--json")) {
      options.json_path = argv[++i];
    } else if (has_value("--max-lines")) {
      options.max_lines = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (has_value("--threads")) {
      options.threads = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (has_value("--checkpoint")) {
      options.checkpoint_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--resume") == 0) {
      options.resume = true;
    } else if (has_value("--abort-after-round")) {
      options.abort_after_round = std::atoi(argv[++i]);
    } else if (has_value("--trace")) {
      options.trace_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: re_survey [--scale S] [--seed N] [--json FILE]"
                   " [--max-lines N] [--threads N] [--checkpoint DIR]"
                   " [--resume] [--abort-after-round N] [--trace FILE]\n");
      std::exit(2);
    }
  }
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace re;
  const Options options = parse_options(argc, argv);

  topo::EcosystemParams params;
  if (options.scale < 1.0) params = params.scaled(options.scale);
  params.seed = options.seed;
  const topo::Ecosystem ecosystem = topo::Ecosystem::generate(params);

  const probing::SeedDatabase db =
      probing::SeedDatabase::generate(ecosystem, probing::SeedGenParams{});
  const probing::SelectionResult selection =
      probing::select_probe_seeds(ecosystem, db, 11);
  std::printf("surveying %zu prefixes (%zu ASes) with %zu responsive"
              " (%zu probing threads)\n\n",
              selection.stats.total_prefixes, selection.stats.ases_total,
              selection.stats.responsive, options.threads);

  // Open before the pool so every span from here on — baseline, rounds,
  // probing on the worker lanes — lands in one session. The
  // destructor flushes on early exits (abort-after-round).
  obs::TraceSession trace(options.trace_path);

  runtime::ThreadPool pool(options.threads);

  // Round-level disk checkpoints: one key per experiment, shared dir. A
  // resumed run reloads the last round and continues; digests match the
  // uninterrupted run's.
  io::FileCheckpointStore store(options.checkpoint_dir.empty()
                                    ? "."
                                    : options.checkpoint_dir);
  core::CheckpointStore* checkpoints =
      options.checkpoint_dir.empty() ? nullptr : &store;

  core::ExperimentConfig surf_config;
  surf_config.experiment = core::ReExperiment::kSurf;
  surf_config.seed = options.seed ^ 501;
  surf_config.checkpoint_store = checkpoints;
  surf_config.checkpoint_key = "surf";
  surf_config.resume = options.resume;
  surf_config.abort_after_round = options.abort_after_round;
  const core::ExperimentResult surf_result =
      core::ExperimentController(ecosystem, selection.seeds, surf_config, &pool)
          .run();

  core::ExperimentConfig i2_config;
  i2_config.experiment = core::ReExperiment::kInternet2;
  i2_config.seed = options.seed ^ 502;
  i2_config.checkpoint_store = checkpoints;
  i2_config.checkpoint_key = "i2";
  i2_config.resume = options.resume;
  i2_config.abort_after_round = options.abort_after_round;
  const core::ExperimentResult i2_result =
      core::ExperimentController(ecosystem, selection.seeds, i2_config, &pool)
          .run();

  if (options.abort_after_round >= 0) {
    std::printf("aborted after round %d (checkpoints saved); rerun with"
                " --resume to finish\n",
                options.abort_after_round);
    return 0;
  }

  std::printf("result digests: surf=%016llx i2=%016llx\n\n",
              static_cast<unsigned long long>(core::result_digest(surf_result)),
              static_cast<unsigned long long>(core::result_digest(i2_result)));

  const auto surf = core::classify_experiment(surf_result);
  const auto i2 = core::classify_experiment(i2_result);

  std::printf("%s\n", analysis::render_table1(core::summarize_table1(surf),
                                              "SURF experiment")
                          .c_str());
  std::printf("%s\n", analysis::render_table1(core::summarize_table1(i2),
                                              "Internet2 experiment")
                          .c_str());
  std::printf("%s\n",
              analysis::render_table2(core::compare_experiments(surf, i2))
                  .c_str());
  std::printf("%s\n",
              analysis::render_ground_truth(
                  core::validate_against_plant(i2, ecosystem))
                  .c_str());

  // JSON-lines result dump (paper's tooling emits JSON per probed target).
  if (!options.json_path.empty()) {
    std::FILE* out = std::fopen(options.json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", options.json_path.c_str());
      return 1;
    }
    std::size_t lines = 0;
    for (const core::PrefixInference& p : i2) {
      if (options.max_lines != 0 && lines >= options.max_lines) break;
      const std::string line = io::to_json_line(p);
      std::fprintf(out, "%s\n", line.c_str());
      ++lines;
    }
    std::fclose(out);
    std::printf("wrote %zu JSON result lines to %s\n", lines,
                options.json_path.c_str());
  }

  // The quiescence contract for the flush: both experiments returned, so
  // every pool task (and the spans it emitted) happened-before this point.
  if (trace.enabled()) {
    const obs::FlushStats flushed = trace.finish();
    std::printf("trace written: %s (%zu events, %zu lanes, %llu dropped)\n\n",
                trace.path().c_str(), flushed.events, flushed.threads,
                static_cast<unsigned long long>(flushed.dropped));
    std::printf("--- metrics ---\n%s", obs::registry().render().c_str());
  }
  return 0;
}
