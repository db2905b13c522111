// The measurement experiment of §3: announce the measurement prefix via
// R&E and commodity simultaneously, step through the nine prepend
// configurations, probe every seeded prefix after each change, and record
// which VLAN responses arrive on.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bgp/network.h"
#include "bgp/update_log.h"
#include "core/checkpoint.h"
#include "dataplane/outage.h"
#include "netbase/binio.h"
#include "netbase/clock.h"
#include "netbase/rng.h"
#include "probing/prober.h"
#include "probing/seeds.h"
#include "runtime/thread_pool.h"
#include "topology/ecosystem.h"

namespace re::core {

// Which R&E network originates the R&E route (§3.3).
enum class ReExperiment : std::uint8_t { kSurf, kInternet2 };

std::string to_string(ReExperiment e);

// One prepend configuration "R-C": extra copies of the R&E origin's ASN
// and of the commodity origin's ASN.
struct PrependConfig {
  std::uint32_t re = 0;
  std::uint32_t comm = 0;

  std::string label() const {
    return std::to_string(re) + "-" + std::to_string(comm);
  }
  friend bool operator==(const PrependConfig&, const PrependConfig&) = default;
};

// The paper's schedule: decrease R&E prepends, then increase commodity
// prepends, minimizing the variables changing between tests.
std::vector<PrependConfig> paper_schedule();

struct ExperimentConfig {
  ReExperiment experiment = ReExperiment::kInternet2;
  std::vector<PrependConfig> schedule = paper_schedule();

  // Wait after each configuration change before probing (§3.3: one hour,
  // to stay under route-flap-damping suppress times).
  net::SimTime convergence_wait = net::kHour;

  // When false, probing starts `convergence_wait` after the change even if
  // BGP has not converged — updates scheduled later stay in flight. The
  // ablation counterpart of the paper's deliberate pacing.
  bool full_convergence = true;

  probing::ProberConfig prober;

  // Probability that a prefix's systems all go dark for one random round
  // (the packet-loss exclusions of Table 1/2).
  double p_prefix_flaky = 0.010;

  // Outage plants producing the Switch-to-commodity / Oscillating rows.
  // When empty and auto_plant_outages is set, the controller plants
  // auto_outage_count of them on R&E-preferring members.
  std::vector<dataplane::OutagePlan> outages;
  bool auto_plant_outages = true;
  int auto_outage_count = 3;

  // Probability that a member's R&E connectivity differs this week
  // (provider/peering churn between the two experiment dates — the source
  // of Table 2's non-NIKS difference rows).
  double p_week_variation = 0.005;

  std::uint64_t seed = 99;

  // When set, the baseline phase also announces and converges every
  // member prefix before the measurement prefix — the network carries a
  // full internet-like RIB, as in the real experiment, instead of the
  // measurement prefix alone. Makes the baseline by far the most
  // expensive phase; the checkpoint/fork engine exists to pay it once
  // per sweep instead of once per run.
  bool full_rib_baseline = false;

  // Baseline sharing (checkpoint/fork engine). When set, the §3.1
  // baseline phase — week-variation draws, network build, commodity and
  // R&E baseline convergence — is seeded from baseline_seed, and the
  // post-baseline phase (flaky rounds, outage plants) draws from a fresh
  // Rng(seed). That split is what lets N trials with different seeds
  // fork one shared converged baseline and still differ where they
  // should. Unset = the classic single-stream run, byte-identical to the
  // behavior before this knob existed.
  std::optional<std::uint64_t> baseline_seed;

  // Round-level disk checkpointing. With a store configured, the
  // controller saves its complete state (result so far, prober RNG
  // position, outage/flaky state, full network snapshot) under
  // checkpoint_key after every probing round; a run with resume=true
  // continues from the last saved round and produces a result digest
  // identical to an uninterrupted run. abort_after_round >= 0 returns
  // right after saving that round's checkpoint (the CI kill simulation).
  CheckpointStore* checkpoint_store = nullptr;
  std::string checkpoint_key = "experiment";
  bool resume = false;
  int abort_after_round = -1;
};

// The probing/announcement timeline of one configuration (Figure 3's
// grey bars and change points).
struct RoundWindow {
  int round = 0;
  PrependConfig config;
  net::SimTime config_applied = 0;
  // Simulated time of the last delivered update before probing. Only a
  // true convergence timestamp when `converged` is set; in
  // partial-convergence mode it marks when delivery stopped, and updates
  // may still be in flight when the probes run.
  net::SimTime converged_at = 0;
  bool converged = true;
  net::SimTime probe_start = 0;
  net::SimTime probe_end = 0;
};

// Everything observed for one prefix across all rounds: iterating
// `rounds` yields one PrefixRoundResult view per probed round.
struct PrefixObservation {
  net::Prefix prefix;
  net::Asn origin;
  topo::ReSide side = topo::ReSide::kParticipant;
  probing::ProbeColumn rounds;
};

struct ExperimentResult {
  ReExperiment experiment = ReExperiment::kInternet2;
  net::Prefix measurement_prefix;
  net::Asn re_origin;          // 1125 (SURF) or 11537 (Internet2)
  net::Asn commodity_origin;   // 396955
  int re_vlan = 0, commodity_vlan = 0;

  std::vector<RoundWindow> windows;
  std::vector<PrefixObservation> observations;

  // Public-view updates recorded over the whole experiment (Figure 3,
  // Table 3). Copied out of the network at completion.
  bgp::UpdateLog update_log;

  // Phase boundaries: [experiment_start, re_phase_end) varies R&E
  // prepends; [re_phase_end, experiment_end) varies commodity prepends.
  net::SimTime experiment_start = 0;
  net::SimTime re_phase_end = 0;
  net::SimTime experiment_end = 0;
};

// Runs one experiment end to end on a freshly built network.
//
// When `pool` is non-null, the per-prefix probing phase of every round
// shards across its workers. Probing is read-only against the converged
// network state and every prefix draws from its own RNG stream, so the
// result is bit-identical to a run without a pool.
class ExperimentController {
 public:
  ExperimentController(const topo::Ecosystem& ecosystem,
                       const std::vector<probing::PrefixSeeds>& seeds,
                       ExperimentConfig config,
                       runtime::ThreadPool* pool = nullptr)
      : ecosystem_(ecosystem),
        seeds_(seeds),
        config_(std::move(config)),
        pool_(pool) {}

  ExperimentResult run();

  // A converged §3.1 baseline captured once and forked many times: the
  // full post-baseline network state plus the provenance needed to
  // decide whether a config may warm-start from it.
  struct BaselineCheckpoint {
    ReExperiment experiment = ReExperiment::kInternet2;
    std::uint32_t first_re_prepend = 0;
    std::uint64_t baseline_seed = 0;  // effective (seed or baseline_seed)
    double p_week_variation = 0.0;
    bool full_rib = false;
    const topo::Ecosystem* ecosystem = nullptr;
    bgp::NetworkSnapshot network;
  };

  // Runs only the baseline phase and captures it. The snapshot shares
  // its path arena with every fork, so keeping one checkpoint alive
  // across a whole sweep costs one baseline's memory.
  BaselineCheckpoint checkpoint_baseline();

  // True when this controller's config would reproduce `base`'s baseline
  // exactly (same ecosystem object, experiment, first-round R&E prepend,
  // effective baseline seed, and week-variation rate).
  bool compatible(const BaselineCheckpoint& base) const;

  // Warm-start: forks `base` instead of rebuilding and re-converging the
  // baseline. Result digests are bit-identical to run(). Falls back to a
  // cold run when the checkpoint is not compatible.
  ExperimentResult run(const BaselineCheckpoint& base);

  // VLAN numbering from Figure 2.
  static constexpr int kCommodityVlan = 18;
  static constexpr int kInternet2ReVlan = 17;
  static constexpr int kSurfReVlan = 1001;

 private:
  struct Setup;       // baseline artifacts (experiment.cpp)
  struct RoundState;  // per-round driver state (experiment.cpp)

  std::uint64_t effective_baseline_seed() const;
  ExperimentResult make_result_header() const;
  Setup make_baseline();
  net::Rng post_baseline_rng() const;
  RoundState make_round_state(Setup& setup);
  ExperimentResult run_rounds(Setup setup, RoundState state,
                              std::size_t first_round);
  void save_round_checkpoint(const ExperimentResult& result,
                             const RoundState& state, bgp::BgpNetwork& network,
                             std::size_t rounds_done);
  std::optional<ExperimentResult> try_resume();

  const topo::Ecosystem& ecosystem_;
  const std::vector<probing::PrefixSeeds>& seeds_;
  ExperimentConfig config_;
  runtime::ThreadPool* pool_ = nullptr;
};

// The observation codec shared by the round checkpoint and
// result_digest: prefix, origin, side, then per round the prefix, the
// origin, a retired 0, the outcome count and (address, responded, VLAN as
// u32 with -1 when silent) per target. The decoder returns nullopt for
// rounds that disagree with the first on target count or addresses, that
// name another prefix or origin, or that carry a VLAN outside `vlans`;
// the column it builds has room for `reserve_rounds` rounds.
void encode_observation(net::BinaryWriter& w, const PrefixObservation& obs);
std::optional<PrefixObservation> decode_observation(
    net::BinaryReader& r, probing::VlanPair vlans,
    std::size_t reserve_rounds = 0);

// Content digest over a result's canonical serialization (windows,
// observations, update log, phase boundaries). The equality the warm
// paths are held to: fork-vs-fresh and resumed-vs-uninterrupted runs
// must produce equal digests.
std::uint64_t result_digest(const ExperimentResult& result);

}  // namespace re::core
