#include "core/experiment.h"

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <utility>

#include "dataplane/fib.h"
#include "obs/trace.h"
#include "netbase/binio.h"
#include "netbase/rng.h"

namespace re::core {

std::string to_string(ReExperiment e) {
  return e == ReExperiment::kSurf ? "SURF (May 2025)" : "Internet2 (June 2025)";
}

std::vector<PrependConfig> paper_schedule() {
  return {{4, 0}, {3, 0}, {2, 0}, {1, 0}, {0, 0},
          {0, 1}, {0, 2}, {0, 3}, {0, 4}};
}

// --- Controller-internal state ----------------------------------------------

// Everything the baseline phase produces: the result header, the
// converged network, and the RNG stream positioned for the post-baseline
// draws (flaky rounds, outage plants).
struct ExperimentController::Setup {
  ExperimentResult result;
  std::unique_ptr<bgp::BgpNetwork> network;
  net::Rng rng{0};
};

// The per-round driver state that must survive a kill/resume: which
// prefixes go dark in which round, the outage injector (plans + applied
// set), and the prober with its stream position.
struct ExperimentController::RoundState {
  std::unordered_map<net::Prefix, int> flaky_round;
  dataplane::OutageInjector injector;
  probing::Prober prober;
};

namespace {

// Outcome codes of the experiment's VLAN pair, {commodity, R&E}.
constexpr probing::OutcomeCode kCommodityCode = 1;
constexpr probing::OutcomeCode kReCode = 2;

probing::VlanPair result_vlans(const ExperimentResult& result) {
  return {result.commodity_vlan, result.re_vlan};
}

// What the resolver needs that no round changes, built once per
// experiment as dense arrays: a probe then costs one loss roll and one
// compiled-FIB read at its source's dense speaker index.
struct ProbePlan {
  // Sentinels in `source` for the slow path: a §3.4 stance override
  // re-selects the first hop, and a source outside the network has no
  // dense index.
  static constexpr std::uint32_t kStance = 0xFFFFFFFFu;
  static constexpr std::uint32_t kNoSpeaker = 0xFFFFFFFEu;

  std::vector<std::uint32_t> first_target;  // per prefix, into `source`
  std::vector<std::uint32_t> source;        // per target, prefix-major
  std::vector<int> flaky_round;             // per prefix; -1: never dark
};

ProbePlan make_probe_plan(const std::vector<probing::PrefixSeeds>& seeds,
                          const bgp::BgpNetwork& network,
                          const std::unordered_map<net::Prefix, int>& flaky) {
  ProbePlan plan;
  plan.first_target.reserve(seeds.size());
  plan.flaky_round.reserve(seeds.size());
  for (const probing::PrefixSeeds& s : seeds) {
    plan.first_target.push_back(static_cast<std::uint32_t>(plan.source.size()));
    const auto it = flaky.find(s.prefix);
    plan.flaky_round.push_back(it == flaky.end() ? -1 : it->second);
    for (const probing::ProbeTarget& target : s.targets) {
      // §3.4: a per-prefix egress stance applies to the origin's own
      // systems; interconnect addresses follow their owner's routing.
      if (s.stance_override.has_value() && !target.routes_via.has_value()) {
        plan.source.push_back(ProbePlan::kStance);
        continue;
      }
      const std::size_t idx =
          network.speaker_index(target.routes_via.value_or(s.origin));
      plan.source.push_back(idx < ProbePlan::kNoSpeaker
                                ? static_cast<std::uint32_t>(idx)
                                : ProbePlan::kNoSpeaker);
    }
  }
  return plan;
}

}  // namespace

std::uint64_t ExperimentController::effective_baseline_seed() const {
  return config_.baseline_seed.value_or(config_.seed);
}

ExperimentResult ExperimentController::make_result_header() const {
  ExperimentResult result;
  result.experiment = config_.experiment;
  result.measurement_prefix = ecosystem_.measurement().prefix;
  result.commodity_origin = ecosystem_.measurement().commodity_origin;
  result.commodity_vlan = kCommodityVlan;
  if (config_.experiment == ReExperiment::kSurf) {
    result.re_origin = ecosystem_.measurement().surf_re_origin;
    result.re_vlan = kSurfReVlan;
  } else {
    result.re_origin = ecosystem_.measurement().internet2_re_origin;
    result.re_vlan = kInternet2ReVlan;
  }
  return result;
}

ExperimentController::Setup ExperimentController::make_baseline() {
  RE_SPAN("experiment.baseline");
  Setup setup;
  setup.result = make_result_header();
  ExperimentResult& result = setup.result;

  const std::uint64_t base_seed = effective_baseline_seed();
  setup.rng = net::Rng(base_seed);
  setup.network = std::make_unique<bgp::BgpNetwork>(base_seed ^ 0x5eedULL);
  bgp::BgpNetwork& network = *setup.network;
  ecosystem_.build_network(network);

  // Week-specific connectivity churn: a handful of members lose their
  // primary R&E session for this experiment's duration (provider or
  // peering changes between the two measurement dates).
  for (const net::Asn member : ecosystem_.members()) {
    if (!setup.rng.chance(config_.p_week_variation)) continue;
    const topo::AsRecord* r = ecosystem_.directory().find(member);
    if (r == nullptr || r->re_providers.empty() ||
        (!r->traits.has_commodity && !r->traits.default_route_commodity)) {
      continue;  // unknown member, or dropping the only connectivity
    }
    bgp::Speaker* speaker = network.speaker(member);
    if (speaker == nullptr) continue;
    speaker->import_policy().reject_neighbors.push_back(
        r->re_providers.front());
  }

  const net::Prefix meas = result.measurement_prefix;

  // Full-RIB mode: converge the whole prefix universe first, so the
  // measurement prefix joins an internet-like table instead of an empty
  // one. This is the expensive phase the checkpoint/fork engine shares
  // across a sweep.
  if (config_.full_rib_baseline) {
    for (const net::Asn member : ecosystem_.members()) {
      ecosystem_.announce_member_prefixes(network, member);
    }
    network.run_to_convergence();
  }

  // Commodity announcement exists well before the experiment (§3.1).
  network.announce(result.commodity_origin, meas);
  network.run_to_convergence();
  network.clock().advance(net::kHour);

  // R&E announcement starts at the first configuration's prepend level,
  // one hour before the first probing round, scoped to the R&E fabric.
  {
    bgp::Speaker* origin = network.speaker(result.re_origin);
    origin->export_policy().default_prepend = config_.schedule.front().re;
    bgp::OriginationOptions options;
    options.re_only = true;
    network.announce(result.re_origin, meas, options);
    network.run_to_convergence();
  }
  result.experiment_start = network.clock().now();

  // With a dedicated baseline seed, the per-trial draws come from a
  // fresh stream so trials that share a baseline still differ where they
  // should. Without one, the baseline stream simply continues — the
  // classic single-seed behavior, draw for draw.
  if (config_.baseline_seed.has_value()) setup.rng = net::Rng(config_.seed);
  return setup;
}

net::Rng ExperimentController::post_baseline_rng() const {
  if (config_.baseline_seed.has_value()) return net::Rng(config_.seed);
  // Classic mode: replay the baseline's week-variation draws (one per
  // member, unconditionally) so a warm-started run's stream position
  // matches a cold run's exactly.
  net::Rng rng(config_.seed);
  for ([[maybe_unused]] const net::Asn member : ecosystem_.members()) {
    (void)rng.chance(config_.p_week_variation);
  }
  return rng;
}

ExperimentController::RoundState ExperimentController::make_round_state(
    Setup& setup) {
  net::Rng& rng = setup.rng;

  // Per-prefix flaky round (packet-loss model).
  std::unordered_map<net::Prefix, int> flaky_round;
  for (const probing::PrefixSeeds& s : seeds_) {
    if (rng.chance(config_.p_prefix_flaky)) {
      flaky_round[s.prefix] =
          static_cast<int>(rng.below(config_.schedule.size()));
    }
  }

  // Outage plants: R&E-preferring members losing their R&E session.
  std::vector<dataplane::OutagePlan> outages = config_.outages;
  if (outages.empty() && config_.auto_plant_outages) {
    int planted = 0;
    const int rounds = static_cast<int>(config_.schedule.size());
    for (const net::Asn member : ecosystem_.members()) {
      if (planted >= config_.auto_outage_count) break;
      const topo::AsRecord* r = ecosystem_.directory().find(member);
      if (r == nullptr) continue;
      if (r->traits.stance != bgp::ReStance::kPreferRe ||
          r->traits.reject_re_routes || !r->traits.has_commodity ||
          r->re_providers.empty() ||
          ecosystem_.prefixes_of(member).size() > 3 || !rng.chance(0.02)) {
        continue;  // outages hit small origins, as in the paper (1-3 prefixes)
      }
      dataplane::OutagePlan plan;
      plan.as = member;
      plan.re_neighbor = r->re_providers.front();
      if (planted == 0) {
        // Persistent outage: reverts to commodity and stays (the §4
        // "Switch to commodity" case).
        plan.from_round = rounds - 3;
        plan.to_round = rounds;
      } else {
        // Transient outage: R&E -> commodity -> R&E (Oscillating).
        plan.from_round = 2 + static_cast<int>(rng.below(3));
        plan.to_round = plan.from_round;
      }
      outages.push_back(plan);
      ++planted;
    }
  }

  return RoundState{std::move(flaky_round),
                    dataplane::OutageInjector(std::move(outages)),
                    probing::Prober(config_.prober,
                                    config_.seed ^ 0x9e3779b9ULL)};
}

ExperimentResult ExperimentController::run_rounds(Setup setup,
                                                  RoundState state,
                                                  std::size_t first_round) {
  ExperimentResult& result = setup.result;
  bgp::BgpNetwork& network = *setup.network;
  const net::Prefix meas = result.measurement_prefix;

  // Observation storage parallel to seeds (already populated on resume),
  // each column sized for the whole schedule up front.
  if (result.observations.empty()) {
    const probing::VlanPair vlans = result_vlans(result);
    result.observations.reserve(seeds_.size());
    for (const probing::PrefixSeeds& s : seeds_) {
      PrefixObservation obs;
      obs.prefix = s.prefix;
      obs.origin = s.origin;
      if (const topo::AsRecord* r = ecosystem_.directory().find(s.origin)) {
        obs.side = r->side;
      }
      obs.rounds = probing::ProbeColumn::for_seeds(s, vlans,
                                                   config_.schedule.size());
      result.observations.push_back(std::move(obs));
    }
  }

  // The probing plane: one compiled catchment FIB, refreshed once per
  // round, O(1) per probe target. fib_test.cpp checks it per AS against
  // the reference walker in src/check; SurveyDigestPin pins the result.
  dataplane::CatchmentFib fib(network, meas,
                              {result.commodity_origin, result.re_origin});
  const ProbePlan plan = make_probe_plan(seeds_, network, state.flaky_round);
  // The arrival VLAN (Figure 2) is keyed by the terminal a return path
  // reaches: the commodity origin's VLAN is code 1, the R&E origin's 2.
  const auto code_of =
      [&](const dataplane::CatchmentFib::Attribution& attr) {
        if (!attr.reachable) return probing::kNoResponse;
        if (attr.terminal == result.commodity_origin) return kCommodityCode;
        if (attr.terminal == result.re_origin) return kReCode;
        return probing::kNoResponse;
      };
  const auto column_of = [&](std::size_t i) -> probing::ProbeColumn& {
    return result.observations[i].rounds;
  };

  for (std::size_t round = first_round; round < config_.schedule.size();
       ++round) {
    // One span per schedule entry: the nine-round sweep is the unit the
    // paper's timeline is drawn in, so it is the top-level trace shape.
    RE_SPAN_ARG("experiment.round", "round", round);
    const PrependConfig& cfg = config_.schedule[round];
    RoundWindow window;
    window.round = static_cast<int>(round);
    window.config = cfg;

    if (round > 0) {
      // Apply the configuration delta (§3.3: changed immediately after the
      // previous probing round).
      network.set_origin_prepend(result.re_origin, meas, cfg.re);
      network.set_origin_prepend(result.commodity_origin, meas, cfg.comm);
    }
    window.config_applied = network.clock().now();
    if (config_.full_convergence) {
      // Converge exactly the prefixes this round's mutations dirtied —
      // for rounds 1..8 that is the measurement prefix alone, out of the
      // potentially full-RIB channel set. The baseline drained every
      // channel before round 0, so the dirty set covers all in-flight
      // work and the outcome is bit-identical to a full sweep (round 0's
      // dirty set is empty: a no-op).
      const bgp::ConvergenceStats stats = network.run_dirty_to_convergence();
      window.converged_at = stats.converged_at;
      window.converged = true;
      // Probe one hour after the change.
      network.clock().advance_to(window.config_applied +
                                 config_.convergence_wait);
    } else {
      // Deliver only what would have arrived by probe time; the rest stays
      // in flight and the probes see a half-converged network.
      const net::SimTime probe_at =
          window.config_applied + config_.convergence_wait;
      const bgp::ConvergenceStats stats = network.run_until(probe_at);
      // converged_at is the last *delivered* update, not the probe time
      // the clock advances to next — a window that never settled must not
      // report a settle timestamp it never reached.
      window.converged_at = stats.converged_at;
      window.converged = stats.fully_converged;
      network.clock().advance_to(probe_at);
    }

    state.injector.apply(network, meas, static_cast<int>(round));

    window.probe_start = network.clock().now();
    // Outage injection (and the round's prepend change) may have moved
    // the prefix's epoch: recompile here, once, before the prober fans
    // queries out — possibly across the pool, against a table that is
    // strictly read-only for the rest of the round.
    fib.refresh();
    const int flaky_check = static_cast<int>(round);
    const auto resolve = [&](std::size_t i,
                             std::size_t t) -> probing::OutcomeCode {
      if (plan.flaky_round[i] == flaky_check) return probing::kNoResponse;
      const std::uint32_t source = plan.source[plan.first_target[i] + t];
      if (source < ProbePlan::kNoSpeaker) {
        return code_of(fib.attribution_at(source));
      }
      const probing::PrefixSeeds& seeds = seeds_[i];
      const net::Asn from = seeds.targets[t].routes_via.value_or(seeds.origin);
      return code_of(source == ProbePlan::kStance
                         ? fib.attribution_with_stance(
                               from, *seeds.stance_override)
                         : fib.attribution(from));
    };
    state.prober.run_round(seeds_.size(), resolve, column_of, network.clock(),
                           pool_);
    window.probe_end = network.clock().now();

    result.windows.push_back(window);

    if (cfg.re == 0 && cfg.comm == 0) {
      result.re_phase_end = network.clock().now();
    }

    if (config_.checkpoint_store != nullptr) {
      save_round_checkpoint(result, state, network, round + 1);
      if (config_.abort_after_round == static_cast<int>(round)) {
        // CI kill simulation: the checkpoint is on disk; a resume run
        // completes the sweep digest-identically.
        return std::move(result);
      }
    }
  }

  result.experiment_end = network.clock().now();
  result.update_log = std::move(network.update_log());
  return std::move(result);
}

ExperimentResult ExperimentController::run() {
  if (config_.checkpoint_store != nullptr && config_.resume) {
    if (std::optional<ExperimentResult> resumed = try_resume()) {
      return *std::move(resumed);
    }
    // No (or unusable) checkpoint: fall through to a cold start.
  }
  Setup setup = make_baseline();
  RoundState state = make_round_state(setup);
  return run_rounds(std::move(setup), std::move(state), 0);
}

ExperimentController::BaselineCheckpoint
ExperimentController::checkpoint_baseline() {
  Setup setup = make_baseline();
  BaselineCheckpoint base;
  base.experiment = config_.experiment;
  base.first_re_prepend = config_.schedule.front().re;
  base.baseline_seed = effective_baseline_seed();
  base.p_week_variation = config_.p_week_variation;
  base.full_rib = config_.full_rib_baseline;
  base.ecosystem = &ecosystem_;
  base.network = setup.network->checkpoint();
  return base;
}

bool ExperimentController::compatible(const BaselineCheckpoint& base) const {
  return base.ecosystem == &ecosystem_ &&
         base.experiment == config_.experiment && !config_.schedule.empty() &&
         base.first_re_prepend == config_.schedule.front().re &&
         base.baseline_seed == effective_baseline_seed() &&
         base.p_week_variation == config_.p_week_variation &&
         base.full_rib == config_.full_rib_baseline;
}

ExperimentResult ExperimentController::run(const BaselineCheckpoint& base) {
  if (!compatible(base)) return run();
  Setup setup;
  setup.result = make_result_header();
  setup.network = base.network.fork();
  setup.result.experiment_start = setup.network->clock().now();
  setup.rng = post_baseline_rng();
  RoundState state = make_round_state(setup);
  return run_rounds(std::move(setup), std::move(state), 0);
}

// --- Round-checkpoint codec --------------------------------------------------

namespace {

constexpr std::uint32_t kRoundCheckpointMagic = 0x52454331;  // "REC1"

void encode_prefix(net::BinaryWriter& w, const net::Prefix& prefix) {
  w.u32(prefix.network().value());
  w.u8(prefix.length());
}
net::Prefix decode_prefix(net::BinaryReader& r) {
  const std::uint32_t network = r.u32();
  return net::Prefix(net::IPv4Address(network), r.u8());
}

void encode_window(net::BinaryWriter& w, const RoundWindow& window) {
  w.u32(static_cast<std::uint32_t>(window.round));
  w.u32(window.config.re);
  w.u32(window.config.comm);
  w.i64(window.config_applied);
  w.i64(window.converged_at);
  w.boolean(window.converged);
  w.i64(window.probe_start);
  w.i64(window.probe_end);
}
RoundWindow decode_window(net::BinaryReader& r) {
  RoundWindow window;
  window.round = static_cast<int>(r.u32());
  window.config.re = r.u32();
  window.config.comm = r.u32();
  window.config_applied = r.i64();
  window.converged_at = r.i64();
  window.converged = r.boolean();
  window.probe_start = r.i64();
  window.probe_end = r.i64();
  return window;
}

}  // namespace

void encode_observation(net::BinaryWriter& w, const PrefixObservation& obs) {
  encode_prefix(w, obs.prefix);
  w.u32(obs.origin.value());
  w.u8(static_cast<std::uint8_t>(obs.side));
  w.u64(obs.rounds.size());
  for (const probing::PrefixRoundResult& round : obs.rounds) {
    encode_prefix(w, round.prefix);
    w.u32(round.origin.value());
    w.u64(0);  // retired field (was packet_mismatches): keeps the format
    w.u64(round.outcomes.size());
    for (const probing::ProbeOutcome& outcome : round.outcomes) {
      w.u32(outcome.address.value());
      w.boolean(outcome.responded);
      w.u32(static_cast<std::uint32_t>(outcome.vlan_id));
    }
  }
}

std::optional<PrefixObservation> decode_observation(net::BinaryReader& r,
                                                    probing::VlanPair vlans,
                                                    std::size_t reserve_rounds) {
  PrefixObservation obs;
  obs.prefix = decode_prefix(r);
  obs.origin = net::Asn{r.u32()};
  obs.side = static_cast<topo::ReSide>(r.u8());
  const std::uint64_t rounds = r.length(1u << 16);
  // The column stores addresses once, so every round must list the same
  // targets as the first; codes are staged until the first round fixes
  // the target count.
  std::vector<net::IPv4Address> addresses;
  std::vector<probing::OutcomeCode> codes;
  for (std::uint64_t i = 0; i < rounds; ++i) {
    if (decode_prefix(r) != obs.prefix || net::Asn{r.u32()} != obs.origin) {
      return std::nullopt;
    }
    r.u64();  // retired field (was packet_mismatches): always 0
    const std::uint64_t outcomes = r.length(1u << 24);
    if (i > 0 && outcomes != addresses.size()) return std::nullopt;
    for (std::uint64_t j = 0; j < outcomes; ++j) {
      const net::IPv4Address address(r.u32());
      const bool responded = r.boolean();
      const int vlan = static_cast<int>(r.u32());
      if (r.failed()) return std::nullopt;  // truncated: stop before a
                                            // corrupt count drives the loop
      if (i == 0) {
        addresses.push_back(address);
      } else if (addresses[j] != address) {
        return std::nullopt;
      }
      if (!responded) {
        if (vlan != -1) return std::nullopt;
        codes.push_back(probing::kNoResponse);
      } else if (vlan == vlans[0]) {
        codes.push_back(kCommodityCode);
      } else if (vlan == vlans[1]) {
        codes.push_back(kReCode);
      } else {
        return std::nullopt;  // a VLAN outside the experiment's pair
      }
    }
  }
  const std::size_t targets = addresses.size();
  obs.rounds = probing::ProbeColumn(
      obs.prefix, obs.origin, std::move(addresses), vlans,
      std::max<std::size_t>(rounds, reserve_rounds));
  for (std::uint64_t i = 0; i < rounds; ++i) {
    const std::span<probing::OutcomeCode> round = obs.rounds.add_round();
    std::copy_n(codes.begin() + static_cast<std::ptrdiff_t>(i * targets),
                targets, round.begin());
  }
  return obs;
}

void ExperimentController::save_round_checkpoint(
    const ExperimentResult& result, const RoundState& state,
    bgp::BgpNetwork& network, std::size_t rounds_done) {
  net::BinaryWriter w;
  w.u32(kRoundCheckpointMagic);
  w.u64(rounds_done);
  w.u64(config_.seed);
  w.i64(result.experiment_start);
  w.i64(result.re_phase_end);

  w.u64(result.windows.size());
  for (const RoundWindow& window : result.windows) encode_window(w, window);
  w.u64(result.observations.size());
  for (const PrefixObservation& obs : result.observations) {
    encode_observation(w, obs);
  }

  // Flaky rounds, sorted by prefix for canonical bytes.
  std::vector<std::pair<net::Prefix, int>> flaky(state.flaky_round.begin(),
                                                 state.flaky_round.end());
  std::sort(flaky.begin(), flaky.end());
  w.u64(flaky.size());
  for (const auto& [prefix, round] : flaky) {
    encode_prefix(w, prefix);
    w.u32(static_cast<std::uint32_t>(round));
  }

  w.u64(state.injector.plans().size());
  for (const dataplane::OutagePlan& plan : state.injector.plans()) {
    w.u32(plan.as.value());
    w.u32(plan.re_neighbor.value());
    w.u32(static_cast<std::uint32_t>(plan.from_round));
    w.u32(static_cast<std::uint32_t>(plan.to_round));
  }
  const std::vector<bool>& active = state.injector.active();
  w.u64(active.size());
  for (const bool flag : active) w.boolean(flag);

  for (const std::uint64_t word : state.prober.rng_state()) w.u64(word);

  network.checkpoint().encode(w);

  (void)config_.checkpoint_store->save(config_.checkpoint_key, w.bytes());
}

std::optional<ExperimentResult> ExperimentController::try_resume() {
  const std::optional<std::vector<std::uint8_t>> bytes =
      config_.checkpoint_store->load(config_.checkpoint_key);
  if (!bytes.has_value()) return std::nullopt;

  net::BinaryReader r(*bytes);
  if (r.u32() != kRoundCheckpointMagic) return std::nullopt;
  const std::uint64_t rounds_done = r.length(1u << 16);
  const std::uint64_t saved_seed = r.u64();
  if (saved_seed != config_.seed || rounds_done > config_.schedule.size()) {
    return std::nullopt;  // checkpoint from a different run
  }

  Setup setup;
  setup.result = make_result_header();
  setup.result.experiment_start = r.i64();
  setup.result.re_phase_end = r.i64();

  const std::uint64_t window_count = r.length(1u << 16);
  if (window_count != rounds_done) return std::nullopt;
  setup.result.windows.reserve(window_count);
  for (std::uint64_t i = 0; i < window_count; ++i) {
    setup.result.windows.push_back(decode_window(r));
  }
  // The observations must be this run's: one per seed, in seed order,
  // with the same prefix, origin and targets, and one round per window.
  // Anything else (a checkpoint of another seed list, say) would splice
  // foreign columns into this run, so it falls back to a cold start.
  const std::uint64_t obs_count = r.length(1u << 24);
  if (obs_count != seeds_.size()) return std::nullopt;
  setup.result.observations.reserve(obs_count);
  const probing::VlanPair vlans = result_vlans(setup.result);
  for (const probing::PrefixSeeds& s : seeds_) {
    std::optional<PrefixObservation> obs =
        decode_observation(r, vlans, config_.schedule.size());
    if (!obs.has_value() || obs->prefix != s.prefix ||
        obs->origin != s.origin || obs->rounds.size() != rounds_done ||
        obs->rounds.targets() != s.targets.size()) {
      return std::nullopt;
    }
    for (std::size_t t = 0; t < s.targets.size(); ++t) {
      if (obs->rounds.addresses()[t] != s.targets[t].address) {
        return std::nullopt;
      }
    }
    setup.result.observations.push_back(*std::move(obs));
  }

  std::unordered_map<net::Prefix, int> flaky_round;
  const std::uint64_t flaky_count = r.length(1u << 24);
  for (std::uint64_t i = 0; i < flaky_count; ++i) {
    const net::Prefix prefix = decode_prefix(r);
    flaky_round[prefix] = static_cast<int>(r.u32());
  }

  std::vector<dataplane::OutagePlan> plans;
  const std::uint64_t plan_count = r.length(1u << 16);
  plans.reserve(plan_count);
  for (std::uint64_t i = 0; i < plan_count; ++i) {
    dataplane::OutagePlan plan;
    plan.as = net::Asn{r.u32()};
    plan.re_neighbor = net::Asn{r.u32()};
    plan.from_round = static_cast<int>(r.u32());
    plan.to_round = static_cast<int>(r.u32());
    plans.push_back(plan);
  }
  std::vector<bool> active;
  const std::uint64_t active_count = r.length(1u << 16);
  active.reserve(active_count);
  for (std::uint64_t i = 0; i < active_count; ++i) {
    active.push_back(r.boolean());
  }

  std::array<std::uint64_t, 4> prober_state{};
  for (std::uint64_t& word : prober_state) word = r.u64();

  bgp::NetworkSnapshot snapshot = bgp::NetworkSnapshot::decode(r);
  if (!r.ok()) return std::nullopt;  // truncated or corrupt checkpoint

  setup.network = snapshot.fork();
  setup.rng = net::Rng(config_.seed);  // unused after the baseline phase

  RoundState state{std::move(flaky_round),
                   dataplane::OutageInjector(std::move(plans)),
                   probing::Prober(config_.prober,
                                   config_.seed ^ 0x9e3779b9ULL)};
  state.injector.restore_active(std::move(active));
  state.prober.restore_rng_state(prober_state);

  return run_rounds(std::move(setup), std::move(state),
                    static_cast<std::size_t>(rounds_done));
}

std::uint64_t result_digest(const ExperimentResult& result) {
  net::BinaryWriter w;
  w.u8(static_cast<std::uint8_t>(result.experiment));
  encode_prefix(w, result.measurement_prefix);
  w.u32(result.re_origin.value());
  w.u32(result.commodity_origin.value());
  w.u32(static_cast<std::uint32_t>(result.re_vlan));
  w.u32(static_cast<std::uint32_t>(result.commodity_vlan));
  w.i64(result.experiment_start);
  w.i64(result.re_phase_end);
  w.i64(result.experiment_end);
  w.u64(result.windows.size());
  for (const RoundWindow& window : result.windows) encode_window(w, window);
  w.u64(result.observations.size());
  for (const PrefixObservation& obs : result.observations) {
    encode_observation(w, obs);
  }
  result.update_log.encode(w);

  std::uint64_t h = 1469598103934665603ull;
  for (const std::uint8_t byte : w.bytes()) {
    h ^= byte;
    h *= 1099511628211ull;
  }
  return net::mix64(h);
}

}  // namespace re::core
