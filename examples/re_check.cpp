// re_check: the deterministic simulation fuzzer.
//
// Each seed denotes one world (multi-tier topology, R&E edges, stances)
// and one random operation schedule over it — announce/withdraw, prepend
// steps, session fail/restore, full/dirty/scoped/partial convergence,
// checkpoint/restore, FIB queries. The schedule
// runs under the invariant suite (src/check/invariants.h): RFC 4271
// decision soundness against a clean-room reference, Gao-Rexford export
// safety, AS-path loop freedom, prefix-epoch coherence, snapshot
// round-trips, compiled-FIB-vs-walker agreement, and scoped-vs-full
// digest equivalence on every incremental run.
//
// usage: re_check [--seeds A..B | --seeds N] [--ops N] [--check-every N]
//                 [--shrink] [--trace-out FILE] [--replay FILE]
//                 [--trace FILE] [--mutant med-flip]
//
// --trace FILE (or RE_TRACE=FILE; the flag wins) writes a Chrome
// trace-event JSON of the fuzzing run's spans (convergence rounds,
// snapshot round-trips, FIB compiles) — not to be confused with
// --trace-out, which saves a violating *scenario* for replay.
//
// On a violation: the schedule is written as a checksummed trace
// (--trace-out, default re_check_violation.trace), optionally minimized
// (--shrink) into a small reproducer printed as a ready-to-paste
// regression test, and the process exits 1. `--replay FILE` re-runs a
// saved trace instead of fuzzing (combine with --shrink to minimize it);
// a replay writes no trace files (neither FILE nor FILE.min) unless
// --trace-out is given explicitly.
//
// RE_CHECK_SECONDS caps the fuzzing budget: the seed loop stops cleanly
// once the budget is spent (exit 0 — budget expiry is not a failure).
// --mutant med-flip plants a MED tie-break direction flip: it sets
// DecisionConfig::mutant_med_flip on every speaker of each seed's world
// and on the decision-conformance table's production calls. CI runs
// re_check with it to prove the harness detects a real planted bug
// (mutation-testing smoke), and replays the same trace without it clean.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "check/scenario.h"
#include "check/shrink.h"
#include "io/trace_io.h"
#include "obs/trace.h"
#include "runtime/env.h"

namespace {

using namespace re;

struct Options {
  std::uint64_t seed_begin = 0;
  std::uint64_t seed_end = 8;  // exclusive
  std::size_t ops = 40;
  std::uint64_t check_every = 1;
  bool shrink = false;
  // Where a violating scenario is saved; empty writes none. Fuzzing
  // defaults to re_check_violation.trace, a replay to nothing.
  std::string trace_out;
  std::string replay_path;
  bool med_flip_mutant = false;
  // Chrome-trace telemetry (RE_TRACE is strict: set-but-blank aborts).
  std::string span_trace_path = runtime::env_string("RE_TRACE", "");
};

void usage_and_exit() {
  std::fprintf(stderr,
               "usage: re_check [--seeds A..B | --seeds N] [--ops N]\n"
               "                [--check-every N] [--shrink]\n"
               "                [--trace-out FILE] [--replay FILE]\n"
               "                [--trace FILE] [--mutant med-flip]\n");
  std::exit(2);
}

// "A..B" (half-open A..B+1? no: inclusive range A..B) or a single "N".
void parse_seeds(const char* text, Options& options) {
  const char* dots = std::strstr(text, "..");
  char* end = nullptr;
  if (dots == nullptr) {
    const auto count = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0' || count == 0) usage_and_exit();
    options.seed_begin = 0;
    options.seed_end = count;
    return;
  }
  options.seed_begin = std::strtoull(text, &end, 10);
  if (end != dots) usage_and_exit();
  const char* after = dots + 2;
  options.seed_end = std::strtoull(after, &end, 10) + 1;
  if (end == after || *end != '\0' || options.seed_end <= options.seed_begin) {
    usage_and_exit();
  }
}

Options parse_options(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const auto has_value = [&](const char* flag) {
      return std::strcmp(argv[i], flag) == 0 && i + 1 < argc;
    };
    if (has_value("--seeds")) {
      parse_seeds(argv[++i], options);
    } else if (has_value("--ops")) {
      options.ops = static_cast<std::size_t>(std::atoll(argv[++i]));
      if (options.ops == 0) usage_and_exit();
    } else if (has_value("--check-every")) {
      options.check_every =
          static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--shrink") == 0) {
      options.shrink = true;
    } else if (has_value("--trace-out")) {
      options.trace_out = argv[++i];
    } else if (has_value("--replay")) {
      options.replay_path = argv[++i];
    } else if (has_value("--trace")) {
      options.span_trace_path = argv[++i];
    } else if (has_value("--mutant")) {
      if (std::strcmp(argv[++i], "med-flip") != 0) usage_and_exit();
      options.med_flip_mutant = true;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", argv[i]);
      usage_and_exit();
    }
  }
  if (options.trace_out.empty() && options.replay_path.empty()) {
    options.trace_out = "re_check_violation.trace";
  }
  return options;
}

// Reports one violating scenario: trace file, optional shrink, skeleton.
// Returns the process exit code (always 1 — a violation is a failure).
int report_violation(const check::Scenario& scenario,
                     const check::Violation& violation,
                     const Options& options,
                     const check::CheckOptions& check_options) {
  if (violation.op_index < scenario.ops.size()) {
    std::printf("re_check: invariant violated: %s at op %zu (%s): %s\n",
                violation.invariant.c_str(), violation.op_index,
                check::to_string(scenario.ops[violation.op_index].kind),
                violation.detail.c_str());
  } else {
    std::printf("re_check: invariant violated: %s (pre-schedule): %s\n",
                violation.invariant.c_str(), violation.detail.c_str());
  }
  // Empty only for a replay without --trace-out: the scenario is
  // already on disk.
  const bool save = !options.trace_out.empty();
  if (save && io::save_trace(options.trace_out, scenario)) {
    std::printf("trace written: %s (%zu ops)\n", options.trace_out.c_str(),
                scenario.ops.size());
    std::printf("replay with: re_check --replay %s\n",
                options.trace_out.c_str());
  } else if (save) {
    std::fprintf(stderr, "re_check: cannot write trace %s\n",
                 options.trace_out.c_str());
  }
  if (options.shrink) {
    check::ShrinkStats stats;
    const check::Scenario minimal = check::shrink_to_violation(
        scenario, violation.invariant, check_options, &stats);
    std::printf("shrunk to %zu ops (from %zu, %zu oracle runs)\n",
                minimal.ops.size(), scenario.ops.size(), stats.oracle_runs);
    const std::string minimal_path = options.trace_out + ".min";
    if (save && io::save_trace(minimal_path, minimal)) {
      std::printf("shrunk trace written: %s\n", minimal_path.c_str());
    }
    std::printf("--- regression skeleton ---\n%s"
                "--- end skeleton ---\n",
                check::regression_skeleton(minimal, violation.invariant)
                    .c_str());
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse_options(argc, argv);
  // Flushes on every exit path via the destructor; inert when no path.
  obs::TraceSession span_trace(options.span_trace_path);
  check::CheckOptions check_options;
  check_options.check_every_rounds = options.check_every;
  check_options.med_flip_mutant = options.med_flip_mutant;

  if (!options.replay_path.empty()) {
    const auto scenario = io::load_trace(options.replay_path);
    if (!scenario) {
      std::fprintf(stderr, "re_check: cannot load trace %s (corrupt?)\n",
                   options.replay_path.c_str());
      return 2;
    }
    std::printf("replaying %s: seed %llu, %zu ops\n",
                options.replay_path.c_str(),
                static_cast<unsigned long long>(scenario->seed),
                scenario->ops.size());
    const check::ScenarioResult result =
        check::run_scenario(*scenario, check_options);
    if (result.violation) {
      return report_violation(*scenario, *result.violation, options,
                              check_options);
    }
    std::printf("replay clean: ops=%zu checks=%zu digest=%016llx\n",
                result.ops_executed, result.invariant_checks,
                static_cast<unsigned long long>(result.final_digest));
    return 0;
  }

  const double budget_seconds =
      runtime::env_positive_double("RE_CHECK_SECONDS", 0.0);
  const auto start = std::chrono::steady_clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  std::size_t seeds_run = 0;
  std::size_t total_ops = 0;
  std::size_t total_checks = 0;
  for (std::uint64_t seed = options.seed_begin; seed < options.seed_end;
       ++seed) {
    if (budget_seconds > 0.0 && elapsed() >= budget_seconds &&
        seeds_run > 0) {
      std::printf("budget exhausted after %zu seeds (%.1fs)\n", seeds_run,
                  elapsed());
      break;
    }
    const check::Scenario scenario = check::make_scenario(seed, options.ops);
    const check::ScenarioResult result =
        check::run_scenario(scenario, check_options);
    ++seeds_run;
    total_ops += result.ops_executed;
    total_checks += result.invariant_checks;
    if (result.violation) {
      std::printf("seed %llu: FAILED after %zu ops\n",
                  static_cast<unsigned long long>(seed),
                  result.ops_executed);
      return report_violation(scenario, *result.violation, options,
                              check_options);
    }
    std::printf("seed %llu: ok (ops=%zu checks=%zu digest=%016llx)\n",
                static_cast<unsigned long long>(seed), result.ops_executed,
                result.invariant_checks,
                static_cast<unsigned long long>(result.final_digest));
  }
  std::printf(
      "re_check: %zu seeds, 0 violations, %zu ops, %zu invariant checks, "
      "%.1fs\n",
      seeds_run, total_ops, total_checks, elapsed());
  return 0;
}
