// re_bench: the repository benchmark. One process runs one workload.
//
// usage: re_bench --workload NAME --seed N --seconds S [--trace FILE]
//
// Workloads (all closed loops: the next operation starts when the
// previous one returns; benchmark/README.md says why each exists):
//   survey           one cold paper campaign (SURF + Internet2, classify,
//                    compare, validate, render) on the full-scale world
//   fullrib_sweep    one warm Internet2 trial forked from a full-RIB
//                    baseline on a small world
//   churn            one member-prefix announce/prepend/withdraw cycle on
//                    the full-scale network
//   trials_parallel  cold Internet2 trials on the full-scale world, spread
//                    over min(nproc, 4) threads
//
// A run sets its workload up several times (setup_s is the median; each
// set-up ends with one untimed warm-up op), then times ops for --seconds.
// With --trace it then reruns the first ops under a tracing session,
// reduces the spans to per-layer self time, and reports the per-layer
// metrics instead of the end-to-end ones. Correctness gates run last,
// untimed. Every metric is printed on its own line with unit and sample
// count; the last line of stdout is one JSON object. The exit code is
// non-zero if any gate fails.
//
// The benchmark times calls into the simulator's public API from outside
// and reads no environment variables.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "analysis/report.h"
#include "core/classifier.h"
#include "core/comparator.h"
#include "core/experiment.h"
#include "core/validator.h"
#include "obs/trace.h"
#include "probing/seeds.h"
#include "runtime/rng_streams.h"
#include "runtime/thread_pool.h"
#include "topology/ecosystem.h"

namespace {

using namespace re;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Every workload runs on the paper-scale world the repository's benches
// and examples use; --seed drives the per-op draws (experiment and trial
// seeds, churned prefixes, the shared full-RIB baseline, network jitter).
// Different worlds differ in size by several percent, which would swamp
// the run-to-run spread the bounds are set from.
constexpr std::uint64_t kWorldSeed = 20250529;

// Stream indices for seeds that are not per-operation.
constexpr std::uint64_t kBaselineStream = 1ull << 40;
constexpr std::uint64_t kNetworkStream = (1ull << 40) + 1;
constexpr std::uint64_t kChurnOrderStream = (1ull << 40) + 2;
constexpr std::uint64_t kWarmupIndex = 1ull << 41;

// Survey accuracy floor against the planted ground truth. Measured
// 0.9886-0.9945 over ten world seeds, and 0.990-0.992 on this world.
constexpr double kMinAccuracy = 0.98;

// --- Operation results --------------------------------------------------

// What one operation produced: its timed seconds, whether it completed,
// and, for ops run with `detail` (the first traced_ops() indices), a
// digest of its outputs for the re-run gates plus the exact counts the
// per-layer metrics report. Digests and counts are taken outside the
// timed part.
struct OpResult {
  double seconds = 0.0;
  bool complete = true;  // false: an incomplete result (a failed op)
  std::uint64_t digest = 0;
  std::uint64_t probes = 0;
  std::uint64_t responses = 0;
  std::uint64_t best_changes = 0;
  std::uint64_t collector_updates = 0;
};

// Times the measured part of an op and records it as a bench.op span
// (inert outside a tracing session). The span opens first and closes
// last, so the time it records covers the time the op reports.
class OpTimer {
 public:
  explicit OpTimer(double& seconds) : seconds_(seconds) {}
  ~OpTimer() { seconds_ = seconds_since(start_); }
  OpTimer(const OpTimer&) = delete;
  OpTimer& operator=(const OpTimer&) = delete;

 private:
  double& seconds_;
  obs::SpanGuard span_{"bench.op"};
  Clock::time_point start_ = Clock::now();
};

std::uint64_t combine(std::uint64_t h, std::uint64_t v) {
  return runtime::derive_stream_seed(h, v);
}

bool complete(const core::ExperimentResult& result,
              const std::vector<probing::PrefixSeeds>& seeds) {
  return result.observations.size() == seeds.size() &&
         result.windows.size() == core::paper_schedule().size();
}

void count_probes(const core::ExperimentResult& result, OpResult& out) {
  for (const core::PrefixObservation& obs : result.observations) {
    for (const probing::PrefixRoundResult& round : obs.rounds) {
      out.probes += round.outcomes.size();
      out.responses += round.response_count();
    }
  }
  out.collector_updates += result.update_log.size();
}

// --- Workloads ----------------------------------------------------------

struct World {
  topo::Ecosystem ecosystem;
  probing::SelectionResult selection;
};

struct SetupTimes {
  double generate_s = 0.0;
  double select_seeds_s = 0.0;
};

World make_world(double scale, SetupTimes& times) {
  auto start = Clock::now();
  topo::EcosystemParams params;
  if (scale < 1.0) params = params.scaled(scale);
  params.seed = kWorldSeed;
  topo::Ecosystem ecosystem = topo::Ecosystem::generate(params);
  times.generate_s = seconds_since(start);

  start = Clock::now();
  const probing::SeedDatabase db =
      probing::SeedDatabase::generate(ecosystem, probing::SeedGenParams{});
  probing::SelectionResult selection =
      probing::select_probe_seeds(ecosystem, db, 11);
  times.select_seeds_s = seconds_since(start);
  return World{std::move(ecosystem), std::move(selection)};
}

// Trace events one experiment emits beyond one per probed prefix per
// round (rounds, FIB compiles, convergence runs and their rounds).
// Measured: about 1K on the full-scale world.
constexpr std::size_t kExperimentSpanSlack = 8192;

std::size_t experiment_events(const World& world) {
  return core::paper_schedule().size() * world.selection.seeds.size() +
         kExperimentSpanSlack;
}

class Workload {
 public:
  virtual ~Workload() = default;
  // Runs operation `index`; deterministic in (seed, index). Must be safe
  // to call concurrently when parallel() is true. `detail` asks for the
  // digest and counts.
  virtual OpResult op(std::uint64_t index, bool detail) = 0;
  // Untimed check of the state the last op left behind (serial only).
  virtual bool check_last_op() { return true; }
  // Untimed workload-specific gates, run after all measurement.
  virtual bool verify() { return true; }
  // True: ops are spread over min(nproc, 4) lanes.
  virtual bool parallel() const { return false; }
  // Ops the traced phase runs, and an upper estimate of the trace
  // events one op emits (sizes the per-thread rings so none drop).
  virtual std::size_t traced_ops() const = 0;
  virtual std::size_t events_per_op() const = 0;
};

class Survey final : public Workload {
 public:
  Survey(std::uint64_t seed, SetupTimes& times)
      : seed_(seed), world_(make_world(1.0, times)) {}

  OpResult op(std::uint64_t index, bool detail) override {
    const std::uint64_t op_seed = runtime::derive_stream_seed(seed_, index);
    OpResult out;
    core::ExperimentResult surf, i2;
    std::vector<core::PrefixInference> surf_inf, i2_inf;
    core::GroundTruthReport truth;
    std::string tables;
    {
      const OpTimer timer(out.seconds);
      surf = run(core::ReExperiment::kSurf, op_seed ^ 501);
      i2 = run(core::ReExperiment::kInternet2, op_seed ^ 502);
      core::Table1 surf_t1, i2_t1;
      core::Table2 t2;
      {
        RE_SPAN("bench.classify");
        surf_inf = core::classify_experiment(surf);
        i2_inf = core::classify_experiment(i2);
        surf_t1 = core::summarize_table1(surf_inf);
        i2_t1 = core::summarize_table1(i2_inf);
        t2 = core::compare_experiments(surf_inf, i2_inf);
        truth = core::validate_against_plant(i2_inf, world_.ecosystem);
      }
      RE_SPAN("bench.render");
      tables += analysis::render_table1(surf_t1, "SURF experiment");
      tables += analysis::render_table1(i2_t1, "Internet2 experiment");
      tables += analysis::render_table2(t2);
      tables += analysis::render_ground_truth(truth);
    }
    out.complete = complete(surf, world_.selection.seeds) &&
                   complete(i2, world_.selection.seeds);
    worst_accuracy_ = std::min(worst_accuracy_, truth.accuracy());
    if (detail) {
      out.digest = combine(combine(core::result_digest(surf),
                                   core::result_digest(i2)),
                           std::hash<std::string>{}(tables));
      count_probes(surf, out);
      count_probes(i2, out);
    }
    return out;
  }

  bool verify() override {
    const bool ok = worst_accuracy_ >= kMinAccuracy;
    std::printf("gate survey planted-truth accuracy: worst %.4f %s %.2f\n",
                worst_accuracy_, ok ? ">=" : "<", kMinAccuracy);
    return ok;
  }

  std::size_t traced_ops() const override { return 4; }
  std::size_t events_per_op() const override {
    return 2 * experiment_events(world_);
  }

 private:
  core::ExperimentResult run(core::ReExperiment which, std::uint64_t seed) {
    RE_SPAN("bench.experiment");
    core::ExperimentConfig config;
    config.experiment = which;
    config.seed = seed;
    return core::ExperimentController(world_.ecosystem, world_.selection.seeds,
                                      config)
        .run();
  }

  std::uint64_t seed_;
  World world_;
  double worst_accuracy_ = 1.0;
};

// Small enough that five full-RIB baselines fit in one run's set-up and
// the process stays near 0.5 GiB; large enough that fork and scoped
// convergence dominate a warm trial.
constexpr double kFullRibScale = 0.03;

class FullRibSweep final : public Workload {
 public:
  FullRibSweep(std::uint64_t seed, SetupTimes& times)
      : seed_(seed),
        world_(make_world(kFullRibScale, times)),
        base_(core::ExperimentController(world_.ecosystem,
                                         world_.selection.seeds,
                                         config(kWarmupIndex))
                  .checkpoint_baseline()) {}

  OpResult op(std::uint64_t index, bool detail) override {
    OpResult out;
    core::ExperimentResult result;
    {
      const OpTimer timer(out.seconds);
      {
        RE_SPAN("bench.warm_run");
        result = core::ExperimentController(world_.ecosystem,
                                            world_.selection.seeds,
                                            config(index))
                     .run(base_);
      }
      RE_SPAN("bench.classify");
      (void)core::classify_experiment(result);
    }
    out.complete = complete(result, world_.selection.seeds);
    if (detail) {
      out.digest = core::result_digest(result);
      count_probes(result, out);
      if (index == 0) warm_digest_ = out.digest;
    }
    return out;
  }

  // A cold run of trial 0 must reproduce the warm trial bit for bit.
  bool verify() override {
    const std::uint64_t cold = core::result_digest(
        core::ExperimentController(world_.ecosystem, world_.selection.seeds,
                                   config(0))
            .run());
    std::printf("gate fullrib_sweep trial 0 cold %016llx %s warm %016llx\n",
                static_cast<unsigned long long>(cold),
                cold == warm_digest_ ? "==" : "!=",
                static_cast<unsigned long long>(warm_digest_));
    return cold == warm_digest_;
  }

  std::size_t traced_ops() const override { return 8; }
  std::size_t events_per_op() const override {
    return experiment_events(world_);
  }

 private:
  core::ExperimentConfig config(std::uint64_t index) const {
    core::ExperimentConfig config;
    config.experiment = core::ReExperiment::kInternet2;
    config.full_rib_baseline = true;
    config.baseline_seed = runtime::derive_stream_seed(seed_, kBaselineStream);
    config.seed = runtime::derive_stream_seed(seed_, index);
    return config;
  }

  std::uint64_t seed_;
  World world_;
  core::ExperimentController::BaselineCheckpoint base_;
  std::uint64_t warm_digest_ = 0;
};

class Churn final : public Workload {
 public:
  Churn(std::uint64_t seed, SetupTimes& times)
      : world_(make_world(1.0, times)),
        network_(runtime::derive_stream_seed(seed, kNetworkStream)) {
    world_.ecosystem.build_network(network_);
  }

  // One cycle over a probed member prefix. The previous cycle's prefix is
  // cleared first, so check_last_op() can inspect its withdrawn state.
  // Ops walk a fixed ring of kRing prefixes, the same in every run
  // (--seed varies the network's delay jitter): each run then times the
  // same prefix mix, and since the network's maps never shrink, peak
  // memory is set by the ring's largest prefix rather than by how many
  // cycles a run happened to reach.
  OpResult op(std::uint64_t index, bool detail) override {
    const std::vector<probing::PrefixSeeds>& seeds = world_.selection.seeds;
    const std::uint64_t slot = index % kRing;
    const probing::PrefixSeeds& target =
        seeds[runtime::derive_stream_seed(kChurnOrderStream, slot) %
              seeds.size()];
    OpResult out;
    out.digest = index;
    Fingerprint fingerprint;
    {
      const OpTimer timer(out.seconds);
      cycle(target, out, fingerprint);
    }
    if (detail) fingerprints_[index] = fingerprint;
    return out;
  }

  // After the withdrawal converges, no speaker may keep a best route.
  bool check_last_op() override {
    for (std::size_t i = 0; i < network_.speaker_count(); ++i) {
      if (network_.speaker_at(i).best(*last_) != nullptr) {
        std::printf("gate FAILED: AS%u keeps a route to withdrawn %s\n",
                    network_.speaker_at(i).asn().value(),
                    last_->to_string().c_str());
        return false;
      }
    }
    return true;
  }

  // The run fingerprint: totals over the cycles that keep a digest.
  bool verify() override {
    Fingerprint total;
    for (const Fingerprint& f : fingerprints_) {
      total.messages += f.messages;
      total.best_changes += f.best_changes;
      total.converged_ticks += f.converged_ticks;
    }
    std::printf("# churn fingerprint, cycles 0..%zu: messages=%llu "
                "best_changes=%llu converged_at_sum=%llu\n",
                fingerprints_.size() - 1,
                static_cast<unsigned long long>(total.messages),
                static_cast<unsigned long long>(total.best_changes),
                static_cast<unsigned long long>(total.converged_ticks));
    return true;
  }

  // The traced phase covers the ring once.
  std::size_t traced_ops() const override { return kRing; }
  // Measured: about 350 spans per cycle (convergence rounds).
  std::size_t events_per_op() const override { return 4096; }

 private:
  static constexpr std::size_t kRing = 60;

  struct Fingerprint {
    std::uint64_t messages = 0;
    std::uint64_t best_changes = 0;
    std::uint64_t converged_ticks = 0;  // relative to each cycle's start
  };

  void cycle(const probing::PrefixSeeds& target, OpResult& out,
             Fingerprint& fingerprint) {
    // The collector log is cleared too, so memory stays flat however many
    // cycles a run completes.
    if (last_ != nullptr) {
      RE_SPAN("bench.clear_prefix");
      network_.clear_prefix(*last_);
      network_.update_log().clear();
    }
    last_ = &target.prefix;
    const net::SimTime start = network_.clock().now();
    // Convergence times are taken relative to the cycle start, so the
    // digest does not depend on how many cycles ran before.
    const auto account = [&](const bgp::ConvergenceStats& stats) {
      const auto ticks = static_cast<std::uint64_t>(stats.converged_at - start);
      out.complete = out.complete && stats.fully_converged;
      out.best_changes += stats.best_changes;
      out.digest = combine(out.digest, stats.messages_delivered);
      out.digest = combine(out.digest, stats.best_changes);
      out.digest = combine(out.digest, ticks);
      fingerprint.messages += stats.messages_delivered;
      fingerprint.best_changes += stats.best_changes;
      fingerprint.converged_ticks += ticks;
    };
    {
      RE_SPAN("bench.announce");
      network_.announce(target.origin, target.prefix);
      account(network_.run_to_convergence());
    }
    // The prepend count is per origin, not per prefix: the withdrawal
    // step restores it (emitting nothing), or later cycles over the same
    // origin would start prepended.
    const std::uint32_t prepend =
        network_.speaker(target.origin)->export_policy().default_prepend;
    {
      RE_SPAN("bench.prepend");
      network_.set_origin_prepend(target.origin, target.prefix, prepend + 2);
      account(network_.run_to_convergence());
    }
    {
      RE_SPAN("bench.withdraw");
      network_.withdraw(target.origin, target.prefix);
      account(network_.run_to_convergence());
      network_.set_origin_prepend(target.origin, target.prefix, prepend);
    }
    out.collector_updates = network_.update_log().size();
    out.digest = combine(out.digest, out.collector_updates);
  }

  World world_;
  bgp::BgpNetwork network_;
  const net::Prefix* last_ = nullptr;
  std::vector<Fingerprint> fingerprints_ = std::vector<Fingerprint>(kRing);
};

class TrialsParallel final : public Workload {
 public:
  TrialsParallel(std::uint64_t seed, SetupTimes& times)
      : seed_(seed), world_(make_world(1.0, times)) {}

  OpResult op(std::uint64_t index, bool detail) override {
    OpResult out;
    core::ExperimentResult result;
    {
      const OpTimer timer(out.seconds);
      {
        RE_SPAN("bench.experiment");
        core::ExperimentConfig config;
        config.experiment = core::ReExperiment::kInternet2;
        config.seed = runtime::derive_stream_seed(seed_, index);
        result = core::ExperimentController(world_.ecosystem,
                                            world_.selection.seeds, config)
                     .run();
      }
      RE_SPAN("bench.classify");
      (void)core::summarize_table1(core::classify_experiment(result));
    }
    out.complete = complete(result, world_.selection.seeds);
    if (detail) {
      out.digest = core::result_digest(result);
      count_probes(result, out);
    }
    return out;
  }

  bool parallel() const override { return true; }
  std::size_t traced_ops() const override { return 16; }
  std::size_t events_per_op() const override {
    return experiment_events(world_);
  }

 private:
  std::uint64_t seed_;
  World world_;
};

template <typename W>
std::unique_ptr<Workload> make(std::uint64_t seed, SetupTimes& times) {
  return std::make_unique<W>(seed, times);
}

struct WorkloadEntry {
  const char* name;
  std::unique_ptr<Workload> (*make)(std::uint64_t seed, SetupTimes& times);
};

const WorkloadEntry kWorkloads[] = {
    {"survey", make<Survey>},
    {"fullrib_sweep", make<FullRibSweep>},
    {"churn", make<Churn>},
    {"trials_parallel", make<TrialsParallel>},
};

// --- Closed loop --------------------------------------------------------

struct Sample {
  OpResult result;
  bool ran = false;
};

// Ops below the workload's traced_ops() return digests and counts: the
// traced phase, the re-run gates and the traced-vs-untraced comparison
// all use that prefix.
void run_op(Workload& workload, std::uint64_t index, Sample& sample) {
  try {
    sample.result = workload.op(index, index < workload.traced_ops());
  } catch (const std::exception& error) {
    std::printf("op %llu threw: %s\n", static_cast<unsigned long long>(index),
                error.what());
    sample.result.complete = false;
  }
  sample.ran = true;
}

// Runs ops 0, 1, 2, ... until `seconds` have passed or `max_ops` ran. On
// a pool every lane takes the next index as soon as its op returns;
// indices are claimed in order, so the ops that ran form a prefix.
// `batch` bounds how many indices one parallel_for hands out. Returns the
// wall time.
double run_closed_loop(Workload& workload, runtime::ThreadPool* pool,
                       double seconds, std::size_t max_ops, std::size_t batch,
                       bool& gates_ok, std::vector<Sample>& samples) {
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  if (pool == nullptr) {
    while (samples.size() < max_ops && Clock::now() < deadline) {
      samples.emplace_back();
      run_op(workload, samples.size() - 1, samples.back());
      gates_ok = workload.check_last_op() && gates_ok;
    }
    return seconds_since(start);
  }
  while (samples.size() < max_ops && Clock::now() < deadline) {
    const std::size_t base = samples.size();
    samples.resize(base + std::min(batch, max_ops - base));
    pool->parallel_for(samples.size() - base, [&](std::size_t i) {
      if (Clock::now() < deadline) {
        run_op(workload, base + i, samples[base + i]);
      }
    });
    while (samples.size() > base && !samples.back().ran) samples.pop_back();
  }
  return seconds_since(start);
}

// --- Statistics and output ----------------------------------------------

// Linear-interpolated percentile of a sample.
double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

void print_metrics(const char* group, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%s %-30s %14.6g %-6s n=%zu\n", group, m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
}

// VmHWM (peak resident set) of this process, in MiB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    const std::size_t colon = line.find(':');
    if (line.rfind("model name", 0) == 0 && colon != std::string::npos) {
      return line.substr(colon + 2);
    }
  }
  return "unknown";
}

// --- Trace reduction ----------------------------------------------------

// The layer a span's self time belongs to. Convergence splits by the
// experiment phase that drove it; spans this table does not know (added
// to the program after the benchmark) land in obs.unattributed_s.
std::string layer_of(const std::string& name, const std::string& phase) {
  if (name == "bench.op") return "bench.self_s";
  if (name == "bench.experiment" || name == "bench.warm_run") {
    return "core.experiment_self_s";
  }
  if (name == "bench.classify") return "core.classify_s";
  if (name == "bench.render") return "analysis.render_s";
  if (name == "bench.announce" || name == "bench.prepend" ||
      name == "bench.withdraw" || name == "bench.clear_prefix") {
    return "bgp.mutate_s";
  }
  if (name == "experiment.baseline") return "core.baseline_self_s";
  if (name == "experiment.round") return "core.round_self_s";
  if (name.rfind("converge.", 0) == 0) {
    if (phase == "experiment.baseline") return "bgp.converge_baseline_s";
    if (phase == "experiment.round") return "bgp.converge_rounds_s";
    return "bgp.converge_direct_s";
  }
  if (name.rfind("snapshot.", 0) == 0) return "bgp.snapshot_s";
  if (name == "fib.compile") return "dataplane.fib_compile_s";
  if (name.rfind("probe.", 0) == 0) return "probing.probe_s";
  return "obs.unattributed_s";
}

// Every layer layer_of() can return: the self-time partition of an op.
const char* const kLayers[] = {
    "bench.self_s",          "core.experiment_self_s",
    "core.baseline_self_s",  "core.round_self_s",
    "core.classify_s",       "analysis.render_s",
    "bgp.mutate_s",          "bgp.converge_baseline_s",
    "bgp.converge_rounds_s", "bgp.converge_direct_s",
    "bgp.snapshot_s",        "dataplane.fib_compile_s",
    "probing.probe_s",       "obs.unattributed_s",
};

// Bench spans whose inclusive time is reported, with the metric name.
const char* const kInclusive[][2] = {
    {"bench.experiment", "core.experiment_s"},
    {"bench.warm_run", "core.warm_run_s"},
    {"bench.announce", "bgp.announce_converge_s"},
    {"bench.prepend", "bgp.prepend_converge_s"},
    {"bench.withdraw", "bgp.withdraw_converge_s"},
    {"bench.clear_prefix", "bgp.clear_prefix_s"},
};

struct LayerTimes {
  std::unordered_map<std::string, double> self_s;       // by layer
  std::unordered_map<std::string, double> inclusive_s;  // by span name
  std::uint64_t messages = 0;  // "messages" args of converge.run*
  std::uint64_t rounds = 0;    // converge.round spans
};

// Reads the Chrome trace-event file a TraceSession wrote (one event per
// line), rebuilds each lane's span nesting with a stack, and sums self
// time (duration minus the time child spans cover) per layer over every
// span under a bench.op root.
bool reduce_trace(const std::string& path, LayerTimes& out) {
  struct Event {
    std::size_t tid = 0;
    std::uint64_t start = 0, dur = 0, arg = 0;
    int name = 0;
  };
  std::vector<std::string> names;
  std::unordered_map<std::string, int> name_ids;
  std::vector<Event> events;

  std::FILE* in = std::fopen(path.c_str(), "r");
  if (in == nullptr) return false;
  char line[512];
  bool ok = true;
  while (ok && std::fgets(line, sizeof(line), in) != nullptr) {
    if (std::strncmp(line, "{\"ph\":\"X\"", 9) != 0) continue;
    Event event;
    char name[128];
    double ts = 0.0, dur = 0.0;
    ok = std::sscanf(line,
                     "{\"ph\":\"X\",\"pid\":0,\"tid\":%zu,\"name\":\"%127[^\"]"
                     "\",\"ts\":%lf,\"dur\":%lf",
                     &event.tid, name, &ts, &dur) == 4;
    // Timestamps are printed in microseconds with three decimals, so
    // rounding recovers the recorded nanoseconds exactly.
    event.start = static_cast<std::uint64_t>(std::llround(ts * 1000.0));
    event.dur = static_cast<std::uint64_t>(std::llround(dur * 1000.0));
    if (const char* args = std::strstr(line, "\"args\":{\"")) {
      if (const char* colon = std::strchr(args + 9, ':')) {
        event.arg = std::strtoull(colon + 1, nullptr, 10);
      }
    }
    const auto [it, inserted] =
        name_ids.emplace(name, static_cast<int>(names.size()));
    if (inserted) names.emplace_back(name);
    event.name = it->second;
    events.push_back(event);
  }
  std::fclose(in);
  if (!ok) return false;

  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.start != b.start) return a.start < b.start;
    return a.dur > b.dur;  // a parent sorts before a child opened with it
  });

  struct Open {
    std::size_t event;
    std::uint64_t end;
    bool in_op;
    int phase;  // name id of the nearest experiment phase, or -1
  };
  std::vector<std::uint64_t> covered(events.size(), 0);
  std::vector<Open> stack;
  std::vector<Open> info(events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    if (i > 0 && events[i - 1].tid != e.tid) stack.clear();
    while (!stack.empty() && stack.back().end <= e.start) stack.pop_back();
    Open open{i, e.start + e.dur, names[e.name] == "bench.op", -1};
    if (!stack.empty()) {
      covered[stack.back().event] += e.dur;
      open.in_op = open.in_op || stack.back().in_op;
      open.phase = stack.back().phase;
    }
    info[i] = open;
    const std::string& name = names[e.name];
    if (name == "experiment.baseline" || name == "experiment.round") {
      open.phase = e.name;
    }
    stack.push_back(open);
  }

  for (std::size_t i = 0; i < events.size(); ++i) {
    if (!info[i].in_op) continue;
    const Event& e = events[i];
    const std::string& name = names[e.name];
    const std::string phase = info[i].phase < 0 ? "" : names[info[i].phase];
    out.self_s[layer_of(name, phase)] +=
        static_cast<double>(e.dur - std::min(e.dur, covered[i])) * 1e-9;
    out.inclusive_s[name] += static_cast<double>(e.dur) * 1e-9;
    if (name == "converge.run" || name == "converge.run_scoped") {
      out.messages += e.arg;
    }
    if (name == "converge.round") ++out.rounds;
  }
  return true;
}

// --- Command line -------------------------------------------------------

struct Options {
  const WorkloadEntry* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  std::string trace_path;
};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: re_bench --workload survey|fullrib_sweep|churn|"
               "trials_parallel --seed N --seconds S [--trace FILE]\n");
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options options;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      for (const WorkloadEntry& entry : kWorkloads) {
        if (std::strcmp(value, entry.name) == 0) {
          options.workload = &entry;
        }
      }
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0') options.seconds = 0.0;
    } else if (flag == "--trace") {
      options.trace_path = value;
    } else {
      usage();
    }
  }
  if (argc % 2 == 0 || options.workload == nullptr || !have_seed ||
      !(options.seconds > 0.0)) {
    usage();
  }
  return options;
}

// Set-up repetitions per run; setup_s reports their median.
constexpr int kSetupRepeats = 5;

// Untimed ops per lane before a pool's timed phase.
constexpr std::size_t kLaneWarmupOps = 3;

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse_options(argc, argv);
  const bool tracing = !options.trace_path.empty();
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t nproc = hw == 0 ? 1 : hw;

  std::printf("# host: nproc=%zu cpu=\"%s\" compiler=\"%s\" build=%s\n",
              nproc, cpu_model().c_str(), kCompiler, RE_BENCH_BUILD_TYPE);
  std::printf("# run: workload=%s seed=%llu seconds=%g trace=%s\n",
              options.workload->name,
              static_cast<unsigned long long>(options.seed), options.seconds,
              tracing ? "on" : "off");

  // --- Set-up, repeated; each repetition ends with a warm-up op ---
  std::unique_ptr<Workload> workload;
  std::vector<double> setup_s, generate_s, select_s, prepare_s;
  std::size_t attempted = 0, failed = 0;
  bool gates_ok = true;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    workload.reset();  // one world alive at a time keeps peak RSS honest
    SetupTimes times;
    const auto start = Clock::now();
    workload = options.workload->make(options.seed, times);
    Sample warm;
    run_op(*workload, kWarmupIndex + rep, warm);
    const double total = seconds_since(start);
    ++attempted;
    if (!warm.result.complete) ++failed;
    gates_ok = workload->check_last_op() && gates_ok;
    setup_s.push_back(total);
    generate_s.push_back(times.generate_s);
    select_s.push_back(times.select_seeds_s);
    prepare_s.push_back(total - times.generate_s - times.select_seeds_s);
  }

  // Thread rings are sized when a thread first registers, so the capacity
  // is set before the pool starts and before the session registers main.
  // The caller joins parallel_for, so lanes - 1 workers run `lanes` ops
  // at once. A pool of one worker runs inline, so two cores give one lane.
  std::size_t lanes =
      workload->parallel() ? std::min<std::size_t>(nproc, 4) : 1;
  if (lanes == 2) lanes = 1;
  if (tracing) {
    // On a pool, twice the even share: dynamic scheduling may hand one
    // lane more ops than another.
    const std::size_t per_lane =
        lanes == 1 ? workload->traced_ops()
                   : 2 * ((workload->traced_ops() + lanes - 1) / lanes);
    obs::trace_set_buffer_capacity(per_lane * workload->events_per_op());
  }
  std::unique_ptr<runtime::ThreadPool> pool;
  std::size_t batch = 1;
  if (workload->parallel()) {
    pool = std::make_unique<runtime::ThreadPool>(lanes - 1);
    // Warm every lane with a few ops, untimed: the first ops on a fresh
    // thread run measurably slower while its allocator arena grows. The
    // op time also sizes the index batches, so one parallel_for normally
    // covers the whole run.
    std::vector<Sample> warm(kLaneWarmupOps * lanes);
    pool->parallel_for(warm.size(), [&](std::size_t i) {
      run_op(*workload, kWarmupIndex + kSetupRepeats + i, warm[i]);
    });
    double fastest_s = 1.0;
    for (const Sample& s : warm) {
      fastest_s = std::min(fastest_s, s.result.seconds);
      ++attempted;
      if (!s.result.complete) ++failed;
    }
    batch = static_cast<std::size_t>(2.0 * options.seconds * lanes /
                                     std::max(fastest_s, 1e-3)) +
            lanes;
  }

  // --- Timed phase ---
  std::vector<Sample> timed;
  const double wall = run_closed_loop(*workload, pool.get(), options.seconds,
                                      SIZE_MAX, batch, gates_ok, timed);
  std::vector<double> op_s;
  double busy_s = 0.0;
  for (const Sample& s : timed) {
    op_s.push_back(s.result.seconds);
    busy_s += s.result.seconds;
    ++attempted;
    if (!s.result.complete) ++failed;
  }
  const double op_p50 = percentile(op_s, 0.50);
  const double rss_mb = peak_rss_mb();

  // The bounded op-time metric is the tenth percentile: on a shared host,
  // other tenants slow whole stretches of a run by up to 1.5x, which moves
  // the median by as much between runs while the fastest tenth of ops
  // stays within a few percent (benchmark/README.md has the numbers).
  // The median, upper quartile and throughput are reported unbounded.
  const std::vector<Metric> end_to_end = {
      {"setup_s", percentile(setup_s, 0.5), "s", setup_s.size()},
      {"peak_rss_mb", rss_mb, "MiB", 1},
      {"op_s.p10", percentile(op_s, 0.10), "s", op_s.size()},
  };
  const std::vector<Metric> unbounded = {
      {"op_s.p50", op_p50, "s", op_s.size()},
      {"op_s.p75", percentile(op_s, 0.75), "s", op_s.size()},
      {"ops_per_s", ratio(static_cast<double>(timed.size()), wall), "1/s",
       op_s.size()},
  };
  std::printf("# timed: %zu ops in %.3f s on %zu lane(s)\n", timed.size(),
              wall, lanes);
  print_metrics("metric", end_to_end);
  print_metrics("info", unbounded);

  // --- Traced phase: ops 0..traced_ops-1 again, under a session ---
  std::vector<Metric> per_layer;
  if (tracing) {
    std::vector<Sample> traced;
    obs::FlushStats flushed;
    {
      obs::TraceSession session(options.trace_path);
      run_closed_loop(*workload, pool.get(), 1e9, workload->traced_ops(),
                      workload->traced_ops(), gates_ok, traced);
      flushed = session.finish();
    }
    LayerTimes layers;
    if (!reduce_trace(options.trace_path, layers)) {
      std::printf("gate FAILED: cannot read back trace %s\n",
                  options.trace_path.c_str());
      gates_ok = false;
    }
    const double n = static_cast<double>(traced.size());
    std::vector<double> traced_op_s;
    double traced_wall = 0.0;
    OpResult counts;
    for (std::size_t i = 0; i < traced.size(); ++i) {
      const Sample& s = traced[i];
      traced_op_s.push_back(s.result.seconds);
      traced_wall += s.result.seconds;
      ++attempted;
      if (!s.result.complete) ++failed;
      counts.probes += s.result.probes;
      counts.responses += s.result.responses;
      counts.best_changes += s.result.best_changes;
      counts.collector_updates += s.result.collector_updates;
      // Tracing is telemetry only: a traced op reproduces its timed twin.
      if (i < timed.size() && s.result.digest != timed[i].result.digest) {
        std::printf("gate FAILED: traced op %zu digest differs\n", i);
        gates_ok = false;
      }
    }
    double layer_sum = 0.0;
    for (const char* layer : kLayers) layer_sum += layers.self_s[layer];
    double converge_s = layers.self_s["bgp.converge_baseline_s"] +
                        layers.self_s["bgp.converge_rounds_s"] +
                        layers.self_s["bgp.converge_direct_s"];

    const std::size_t k = traced.size();
    per_layer = {
        {"topology.generate_s", percentile(generate_s, 0.5), "s",
         generate_s.size()},
        {"probing.select_seeds_s", percentile(select_s, 0.5), "s",
         select_s.size()},
        {"setup.prepare_s", percentile(prepare_s, 0.5), "s", prepare_s.size()},
    };
    for (const char* layer : kLayers) {
      per_layer.push_back({layer, layers.self_s[layer] / n, "s/op", k});
    }
    for (const auto& [span, metric] : kInclusive) {
      per_layer.push_back({metric, layers.inclusive_s[span] / n, "s/op", k});
    }
    const double messages = static_cast<double>(layers.messages);
    const double rounds = static_cast<double>(layers.rounds);
    const double probes = static_cast<double>(counts.probes);
    per_layer.insert(
        per_layer.end(),
        {
            {"bgp.messages", messages / n, "count/op", k},
            {"bgp.rounds", rounds / n, "count/op", k},
            {"bgp.msgs_per_round", ratio(messages, rounds), "count", k},
            {"bgp.msgs_per_s", ratio(messages, converge_s), "1/s", k},
            {"bgp.best_changes",
             static_cast<double>(counts.best_changes) / n, "count/op", k},
            {"bgp.best_change_frac",
             ratio(static_cast<double>(counts.best_changes), messages),
             "frac", k},
            {"bgp.collector_updates",
             static_cast<double>(counts.collector_updates) / n, "count/op", k},
            {"probing.probes", probes / n, "count/op", k},
            {"probing.response_frac",
             ratio(static_cast<double>(counts.responses), probes), "frac", k},
            {"runtime.busy_frac",
             ratio(busy_s, static_cast<double>(lanes) * wall), "frac",
             timed.size()},
            {"obs.trace_events", static_cast<double>(flushed.events), "count",
             1},
            {"obs.trace_dropped", static_cast<double>(flushed.dropped),
             "count", 1},
            {"obs.layer_sum_frac", ratio(layer_sum, traced_wall), "frac", k},
            {"obs.trace_overhead_frac",
             ratio(percentile(traced_op_s, 0.5), op_p50) - 1.0, "frac", k},
        });
    print_metrics("layer", per_layer);

    if (flushed.dropped > 0) {
      std::printf("gate FAILED: trace dropped %llu events\n",
                  static_cast<unsigned long long>(flushed.dropped));
      gates_ok = false;
    }
    const double layer_frac = ratio(layer_sum, traced_wall);
    if (layer_frac < 0.95 || layer_frac > 1.05) {
      std::printf("gate FAILED: layers sum to %.4f of traced wall time\n",
                  layer_frac);
      gates_ok = false;
    }
  }

  // --- Correctness gates (untimed) ---
  // Re-running the first op (and, on a pool, the last timed op that kept
  // a digest) serially reproduces the digests the measured run produced.
  // The closed loop always runs at least one op.
  std::vector<std::size_t> reruns = {0};
  const std::size_t last = std::min(workload->traced_ops(), timed.size()) - 1;
  if (workload->parallel() && last > 0) reruns.push_back(last);
  for (const std::size_t index : reruns) {
    Sample again;
    run_op(*workload, index, again);
    gates_ok = workload->check_last_op() && gates_ok;
    const bool same = again.result.digest == timed[index].result.digest;
    std::printf("gate re-run op %zu digest %016llx %s\n", index,
                static_cast<unsigned long long>(again.result.digest),
                same ? "reproduced" : "DIFFERS");
    gates_ok = gates_ok && same;
  }
  gates_ok = workload->verify() && gates_ok;
  if (failed > 0) {
    std::printf("gate FAILED: %zu of %zu ops failed\n", failed, attempted);
  }
  const bool correct = gates_ok && failed == 0;
  std::printf("# correct=%s attempted=%zu failed=%zu\n",
              correct ? "true" : "false", attempted, failed);

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : tracing ? per_layer : end_to_end) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    json += first ? "" : ", ";
    json += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
