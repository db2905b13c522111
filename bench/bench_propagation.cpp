// Large-topology propagation stress bench.
//
// The reproduction benches finish in tens of milliseconds — far too small
// to expose hot-path costs (per-message path copies, node-based hash maps).
// This bench synthesizes a ~5K-AS ecosystem and sweeps hundreds of member
// prefixes through announce / prepend-change / withdraw convergence
// cycles, the same per-prefix loop the §3.3 experiment schedule drives, at
// a scale where the propagation engine dominates.
//
// Scenarios (names get RE_BENCH_SUFFIX appended, so a pre-change build
// can record "_baseline" rows into BENCH_results.json):
//   * stress_sweep_serial   — RE_PROP_TRIALS trial sweeps, one after the
//     other.
//   * loop_check_micro      — import-time loop-detection / path-replace
//     micro-loop (the AsPath::contains fast-path satellite).
//   * probe_resolve_legacy / probe_resolve_fib — the probing-phase
//     return-path resolution of the §3.3 rounds: nine prepend rounds,
//     every AS resolved RE_PROP_PROBE_REPS times per round (the
//     three-addresses-per-prefix shape), once through the reference
//     AS-by-AS walker (check/return_path.h) and once through the
//     compiled catchment FIB
//     (dataplane/fib.h). Classification digests must match bit for bit
//     (exit 1 otherwise); the wall-clock ratio is the headline FIB
//     speedup, and the [fib] counter lines are what the CI smoke greps.
//   * sweep_full_rounds / sweep_incremental / sweep_incremental_drain —
//     the §3.3-shaped nine-round prepend sweep over a forked converged
//     baseline carrying background churn: the full pass re-converges the
//     whole network every round, the incremental pass converges only the
//     measurement prefix (run_to_convergence(scope)) and pays the
//     deferred churn in one final drain. Per-round and post-drain
//     per-prefix content digests must match bit for bit (exit 1
//     otherwise); the full-vs-incremental round wall-clock ratio is the
//     headline incremental-convergence speedup.
//
// Size knobs: RE_PROP_MEMBERS (default 4600 member ASes → ~5K total),
// RE_PROP_PREFIXES (default 200), RE_PROP_TRIALS (default 2),
// RE_PROP_LOOP_ITERS (default 400000), RE_PROP_BG (default 24 background
// churn prefixes in the incremental sweep).
#include <cstdio>
#include <cstdlib>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bench/timing.h"
#include "bgp/network.h"
#include "check/return_path.h"
#include "dataplane/fib.h"
#include "runtime/env.h"
#include "runtime/perf_counters.h"
#include "runtime/rng_streams.h"
#include "topology/ecosystem.h"

namespace {

std::size_t env_size(const char* name, std::size_t fallback) {
  // Validated: a malformed RE_PROP_* aborts instead of silently running
  // the default configuration (see runtime/env.h).
  return re::runtime::env_positive_size(name, fallback);
}

std::string suffixed(const char* base) {
  std::string name(base);
  if (const char* s = std::getenv("RE_BENCH_SUFFIX")) name += s;
  return name;
}

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

struct StressParams {
  std::size_t members = 4600;
  std::size_t prefixes = 200;
  std::size_t trials = 2;
  std::size_t loop_iters = 400000;
  std::size_t background = 24;
};

StressParams stress_params() {
  StressParams p;
  p.members = env_size("RE_PROP_MEMBERS", p.members);
  p.prefixes = env_size("RE_PROP_PREFIXES", p.prefixes);
  p.trials = env_size("RE_PROP_TRIALS", p.trials);
  p.loop_iters = env_size("RE_PROP_LOOP_ITERS", p.loop_iters);
  p.background = env_size("RE_PROP_BG", p.background);
  return p;
}

// One trial: wire the ecosystem into a fresh network, then sweep `count`
// member prefixes through announce → converge → prepend change → converge
// → withdraw → converge → clear, summing convergence stats.
struct TrialResult {
  std::uint64_t messages = 0;
  re::runtime::PerfCounters perf;
};

TrialResult run_sweep(const re::topo::Ecosystem& eco, std::uint64_t seed,
                      std::size_t count) {
  using namespace re;
  bgp::BgpNetwork network(seed);
  eco.build_network(network);

  TrialResult out;
  std::size_t swept = 0;
  for (const topo::PrefixRecord& rec : eco.prefixes()) {
    if (swept == count) break;
    if (rec.covered) continue;
    ++swept;

    network.announce(rec.origin, rec.prefix);
    const bgp::ConvergenceStats announce = network.run_to_convergence();
    network.set_origin_prepend(rec.origin, rec.prefix, 2);
    const bgp::ConvergenceStats prepend = network.run_to_convergence();
    network.withdraw(rec.origin, rec.prefix);
    const bgp::ConvergenceStats withdraw = network.run_to_convergence();
    if (bgp::Speaker* origin = network.speaker(rec.origin)) {
      origin->export_policy().default_prepend = 0;
    }

    for (const bgp::ConvergenceStats& stats :
         {announce, prepend, withdraw}) {
      out.messages += stats.messages_delivered;
      out.perf += stats.perf;
    }
    network.clear_prefix(rec.prefix);
  }
  return out;
}

// Import-time micro-loop: the receiving speaker alternates between two
// long announcement paths (each install replaces the previous route) and
// every third update carries a looping path it must discard. Loop
// detection and path replacement are exactly the per-import operations
// the interned-path fast path targets.
std::uint64_t run_loop_check(std::size_t iters) {
  using namespace re;
  const net::Asn receiver{64500}, sender{64501};
  bgp::BgpNetwork network(17);
  network.connect_transit(receiver, sender);
  bgp::Speaker* rcv = network.speaker(receiver);
  const net::Prefix prefix = *net::Prefix::parse("198.51.100.0/24");

  std::vector<net::Asn> spine;
  spine.push_back(sender);
  for (std::uint32_t i = 0; i < 38; ++i) spine.push_back(net::Asn{65000 + i});
  const bgp::PathId path_a = network.paths().intern(bgp::AsPath(spine));
  std::vector<net::Asn> alt = spine;
  alt.push_back(net::Asn{65100});
  const bgp::PathId path_b = network.paths().intern(bgp::AsPath(alt));
  std::vector<net::Asn> looped = spine;
  looped.insert(looped.begin() + 20, receiver);
  const bgp::PathId path_loop = network.paths().intern(bgp::AsPath(looped));

  bgp::UpdateMessage update;
  update.prefix = prefix;
  std::uint64_t fp = 0;
  for (std::size_t i = 0; i < iters; ++i) {
    update.path = (i % 3 == 2) ? path_loop : (i % 2 == 0 ? path_a : path_b);
    rcv->receive(sender, update, static_cast<net::SimTime>(i));
    if (const bgp::Route* best = rcv->best(prefix)) {
      fp = fnv1a(fp, best->path_length);
    }
  }
  return fp;
}

// ---- prefix-scoped incremental re-convergence -----------------------------
//
// The §3.3 shape: a converged baseline carrying the measurement prefix
// plus `background` member prefixes, then nine rounds at fixed one-hour
// boundaries. Each round changes the measurement origin's prepend AND
// flaps every background origin's prepend (realistic internet churn).
// The full pass re-converges everything every round; the incremental
// pass converges only the measurement prefix and leaves the churn queued,
// paying it once in a final drain. Per-prefix content digests prove the
// two histories identical.
struct IncrementalSweepResult {
  double rounds_wall = 0.0;       // nine mutation+convergence rounds
  double drain_wall = 0.0;        // deferred catch-up (0 for the full pass)
  std::uint64_t digest = 0;       // per-round + post-drain content digests
  re::runtime::PerfCounters perf;
};

IncrementalSweepResult run_incremental_sweep(
    const re::bgp::NetworkSnapshot& base, const re::topo::PrefixRecord& meas,
    const std::vector<const re::topo::PrefixRecord*>& background,
    bool incremental) {
  using namespace re;
  const std::unique_ptr<bgp::BgpNetwork> network = base.fork();
  const net::SimTime t0 = network->clock().now();
  std::uint64_t digest = 1469598103934665603ull;

  const auto rounds_start = std::chrono::steady_clock::now();
  IncrementalSweepResult out;
  for (std::size_t round = 1; round <= 9; ++round) {
    // Fixed boundaries keep every mutation at the same simulated time in
    // both passes regardless of when each pass's convergence stopped.
    network->clock().advance_to(t0 +
                                static_cast<net::SimTime>(round) * net::kHour);
    network->set_origin_prepend(meas.origin, meas.prefix,
                                static_cast<std::uint32_t>(round % 3));
    for (std::size_t i = 0; i < background.size(); ++i) {
      const topo::PrefixRecord& rec = *background[i];
      network->set_origin_prepend(
          rec.origin, rec.prefix,
          static_cast<std::uint32_t>((round + i) % 3));
    }
    const bgp::ConvergenceStats stats =
        incremental
            ? network->run_to_convergence(std::span(&meas.prefix, 1))
            : network->run_to_convergence();
    out.perf += stats.perf;
    // The measurement prefix's world must look identical after every
    // round whether or not the background churn was processed yet.
    digest = fnv1a(digest, network->prefix_state_digest(meas.prefix));
  }
  out.rounds_wall = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - rounds_start)
                        .count();

  // Deferred catch-up: the background churn converges here, each message
  // at its original delivery tick. A full pass has nothing left.
  const auto drain_start = std::chrono::steady_clock::now();
  const bgp::ConvergenceStats drained = network->run_to_convergence();
  out.drain_wall = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - drain_start)
                       .count();
  out.perf += drained.perf;

  // Post-drain, every prefix's content history (RIBs, send state, flow
  // clamps, collector-log slice) must match the eager pass bit for bit.
  digest = fnv1a(digest, network->prefix_state_digest(meas.prefix));
  for (const topo::PrefixRecord* rec : background) {
    digest = fnv1a(digest, network->prefix_state_digest(rec->prefix));
  }
  out.digest = digest;
  return out;
}

}  // namespace

int main() {
  using namespace re;
  bench::BenchTimer timer("bench_propagation");
  const StressParams params = stress_params();

  topo::EcosystemParams eco_params;
  eco_params.seed = 4242;
  eco_params.member_count = static_cast<int>(params.members);
  eco_params.target_prefixes = static_cast<int>(params.members * 2);
  eco_params.covered_prefixes = static_cast<int>(params.members / 20);
  const topo::Ecosystem eco = topo::Ecosystem::generate(eco_params);
  std::printf("[stress] ases=%zu prefixes=%zu sweep=%zu trials=%zu\n",
              eco.directory().size(), eco.prefixes().size(), params.prefixes,
              params.trials);

  const std::uint64_t master = 99991;
  auto trial_seed = [master](std::size_t trial) {
    return runtime::derive_stream_seed(master, trial);
  };

  // ---- stress sweep ------------------------------------------------------
  std::vector<TrialResult> serial(params.trials);
  const auto serial_start = std::chrono::steady_clock::now();
  for (std::size_t t = 0; t < params.trials; ++t) {
    serial[t] = run_sweep(eco, trial_seed(t), params.prefixes);
  }
  const double serial_wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    serial_start)
          .count();
  std::uint64_t total_messages = 0;
  for (const TrialResult& r : serial) total_messages += r.messages;
  runtime::PerfCounters perf;
  for (const TrialResult& r : serial) perf += r.perf;
  timer.record(suffixed("stress_sweep_serial"), serial_wall, 1,
               {{"messages_delivered", static_cast<double>(total_messages)},
                {"avg_probe_length", perf.avg_probe_length()}});
  std::printf("[stress] serial: %.3fs, %llu messages (%.2fM msg/s)\n",
              serial_wall, static_cast<unsigned long long>(total_messages),
              serial_wall > 0
                  ? static_cast<double>(total_messages) / serial_wall / 1e6
                  : 0.0);
  std::printf("[stress] perf: %s\n", perf.summary().c_str());

  // ---- prefix-scoped incremental re-convergence --------------------------
  // Converged baseline: measurement prefix plus RE_PROP_BG background
  // prefixes, checkpointed once and forked for each pass so both start
  // from bit-identical state.
  {
    const topo::PrefixRecord* meas = nullptr;
    std::vector<const topo::PrefixRecord*> background;
    for (const topo::PrefixRecord& rec : eco.prefixes()) {
      if (rec.covered) continue;
      if (meas == nullptr) {
        meas = &rec;
      } else if (background.size() < params.background) {
        background.push_back(&rec);
      } else {
        break;
      }
    }
    if (meas == nullptr) {
      std::printf("FAIL: no usable prefix for the incremental sweep\n");
      return 1;
    }

    bgp::BgpNetwork baseline_network(master);
    eco.build_network(baseline_network);
    baseline_network.announce(meas->origin, meas->prefix);
    for (const topo::PrefixRecord* rec : background) {
      baseline_network.announce(rec->origin, rec->prefix);
    }
    baseline_network.run_to_convergence();
    const bgp::NetworkSnapshot base = baseline_network.checkpoint();

    const IncrementalSweepResult full =
        run_incremental_sweep(base, *meas, background, false);
    const IncrementalSweepResult incr =
        run_incremental_sweep(base, *meas, background, true);

    timer.record(
        suffixed("sweep_full_rounds"), full.rounds_wall, 1,
        {{"messages_delivered",
          static_cast<double>(full.perf.messages_delivered)}});
    timer.record(
        suffixed("sweep_incremental"), incr.rounds_wall, 1,
        {{"messages_delivered",
          static_cast<double>(incr.perf.messages_delivered)},
         {"messages_skipped_by_scope",
          static_cast<double>(incr.perf.messages_skipped_by_scope)}});
    timer.record(suffixed("sweep_incremental_drain"), incr.drain_wall, 1);

    const double speedup =
        incr.rounds_wall > 0 ? full.rounds_wall / incr.rounds_wall : 0.0;
    std::printf(
        "[incr] rounds: full=%.3fs incremental=%.3fs (speedup %.2fx), "
        "drain=%.3fs, %zu background prefix(es)\n",
        full.rounds_wall, incr.rounds_wall, speedup, incr.drain_wall,
        background.size());
    std::printf("[incr] perf: %s\n", incr.perf.summary().c_str());
    std::printf("[incr] messages_skipped_by_scope=%llu\n",
                static_cast<unsigned long long>(
                    incr.perf.messages_skipped_by_scope));
    // Machine-parseable digest line — CI greps for full/incremental
    // divergence.
    std::printf("[incr] digest full=%016llx incremental=%016llx\n",
                static_cast<unsigned long long>(full.digest),
                static_cast<unsigned long long>(incr.digest));
    if (full.digest != incr.digest) {
      std::printf("FAIL: incremental sweep diverged from full sweep\n");
      return 1;
    }
    std::printf("[incr] determinism: 9 rounds + drain bit-identical full vs "
                "scoped\n");
  }

  // ---- probing-phase return-path resolution ------------------------------
  // The §3.3 probing shape: nine prepend rounds over a two-origin
  // measurement prefix; after each round every AS's return path is
  // resolved RE_PROP_PROBE_REPS times (one per probed address). The
  // legacy pass runs the reference walker in src/check, which walks the
  // RIBs AS-by-AS per query; the FIB pass compiles
  // one catchment table per round and answers each query in O(1).
  {
    const std::size_t probe_reps = env_size("RE_PROP_PROBE_REPS", 3);
    const topo::PrefixRecord* meas = nullptr;
    const topo::PrefixRecord* second = nullptr;
    for (const topo::PrefixRecord& rec : eco.prefixes()) {
      if (rec.covered) continue;
      if (meas == nullptr) {
        meas = &rec;
      } else if (second == nullptr && rec.origin != meas->origin) {
        second = &rec;
        break;
      }
    }
    if (meas == nullptr || second == nullptr) {
      std::printf("FAIL: no usable prefixes for the probe-resolve bench\n");
      return 1;
    }

    bgp::BgpNetwork network(master);
    eco.build_network(network);
    network.announce(meas->origin, meas->prefix);
    network.announce(second->origin, meas->prefix);
    network.run_to_convergence();
    const net::SimTime t0 = network.clock().now();

    const std::vector<net::Asn> sources = eco.directory().all();
    const std::vector<net::Asn> terminals{meas->origin, second->origin};
    check::ReturnPathResolver legacy_resolver(network, meas->prefix,
                                              terminals);
    dataplane::CatchmentFib fib(network, meas->prefix, terminals);

    auto fold = [](std::uint64_t h, bool reachable, net::Asn terminal,
                   bool via_default) {
      h = fnv1a(h, reachable ? 1 : 0);
      h = fnv1a(h, reachable ? terminal.value() : 0);
      return fnv1a(h, via_default ? 1 : 0);
    };

    double legacy_wall = 0.0, fib_wall = 0.0;
    std::uint64_t legacy_digest = 1469598103934665603ull;
    std::uint64_t fib_digest = legacy_digest;
    dataplane::ReturnPath scratch;
    for (std::size_t round = 1; round <= 9; ++round) {
      network.clock().advance_to(
          t0 + static_cast<net::SimTime>(round) * net::kHour);
      network.set_origin_prepend(meas->origin, meas->prefix,
                                 static_cast<std::uint32_t>(round % 3));
      network.run_to_convergence();

      const auto legacy_start = std::chrono::steady_clock::now();
      for (std::size_t rep = 0; rep < probe_reps; ++rep) {
        for (const net::Asn source : sources) {
          legacy_resolver.resolve(source, scratch);
          legacy_digest = fold(legacy_digest, scratch.reachable,
                               scratch.terminal, scratch.used_default_route);
        }
      }
      legacy_wall += std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - legacy_start)
                         .count();

      const auto fib_start = std::chrono::steady_clock::now();
      fib.refresh();
      for (std::size_t rep = 0; rep < probe_reps; ++rep) {
        for (const net::Asn source : sources) {
          const dataplane::CatchmentFib::Attribution attr =
              fib.attribution(source);
          fib_digest = fold(fib_digest, attr.reachable, attr.terminal,
                            attr.used_default_route);
        }
      }
      fib_wall += std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - fib_start)
                      .count();
    }

    timer.record(suffixed("probe_resolve_legacy"), legacy_wall, 1);
    timer.record(suffixed("probe_resolve_fib"), fib_wall, 1,
                 {{"fib_hits", static_cast<double>(fib.hits())},
                  {"fib_compiles", static_cast<double>(fib.compiles())},
                  {"fib_invalidations",
                   static_cast<double>(fib.invalidations())}});
    std::printf(
        "[fib] probe resolve: %zu ASes x %zu reps x 9 rounds: legacy=%.3fs "
        "fib=%.3fs (speedup %.2fx)\n",
        sources.size(), probe_reps, legacy_wall, fib_wall,
        fib_wall > 0 ? legacy_wall / fib_wall : 0.0);
    // Machine-parseable lines for the CI smoke: the counters prove the
    // memoization actually engaged (hits from a compiled table, epoch
    // invalidations across rounds), and the digests gate classification
    // divergence between the walker and the compiled table.
    std::printf("[fib] fib_hits=%llu fib_invalidations=%llu "
                "fib_compiles=%llu\n",
                static_cast<unsigned long long>(fib.hits()),
                static_cast<unsigned long long>(fib.invalidations()),
                static_cast<unsigned long long>(fib.compiles()));
    std::printf("[fib] digest legacy=%016llx fib=%016llx\n",
                static_cast<unsigned long long>(legacy_digest),
                static_cast<unsigned long long>(fib_digest));
    if (legacy_digest != fib_digest) {
      std::printf("FAIL: compiled FIB diverged from the legacy walker\n");
      return 1;
    }
    std::printf("[fib] determinism: 9 rounds bit-identical walker vs "
                "compiled table\n");
  }

  // ---- loop-check micro --------------------------------------------------
  const auto micro_start = std::chrono::steady_clock::now();
  const std::uint64_t micro_fp = run_loop_check(params.loop_iters);
  const double micro_wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    micro_start)
          .count();
  timer.record(suffixed("loop_check_micro"), micro_wall, 1);
  std::printf("[micro] loop_check: %zu imports in %.3fs (%.2fM/s, fp %016llx)\n",
              params.loop_iters, micro_wall,
              micro_wall > 0
                  ? static_cast<double>(params.loop_iters) / micro_wall / 1e6
                  : 0.0,
              static_cast<unsigned long long>(micro_fp));

  std::printf("PROPAGATION OK\n");
  return 0;
}
