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

  // Measurement host (Figure 2): the VLAN a response arrives on is keyed
  // by the announcement endpoint the walk terminates at.
  probing::MeasurementHost host(
      result.measurement_prefix.address_at(63));  // 163.253.63.63
  host.add_interface({result.commodity_vlan, "ens3f1np1.18", false,
                      result.commodity_origin});
  host.add_interface({result.re_vlan,
                      config_.experiment == ReExperiment::kSurf
                          ? "ens3f1np1.1001"
                          : "ens3f1np1.17",
                      true, result.re_origin});

  // Observation storage parallel to seeds (already populated on resume).
  if (result.observations.empty()) {
    result.observations.reserve(seeds_.size());
    for (const probing::PrefixSeeds& s : seeds_) {
      PrefixObservation obs;
      obs.prefix = s.prefix;
      obs.origin = s.origin;
      if (const topo::AsRecord* r = ecosystem_.directory().find(s.origin)) {
        obs.side = r->side;
      }
      result.observations.push_back(std::move(obs));
    }
  }

  // The probing plane: one compiled catchment FIB, refreshed once per
  // round, O(1) per probe target. fib_test.cpp checks it per AS against
  // the reference walker in src/check; SurveyDigestPin pins the result.
  dataplane::CatchmentFib fib(network, meas,
                              {result.commodity_origin, result.re_origin});

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
    const probing::TargetResolver target_resolver =
        [&](const probing::PrefixSeeds& seeds,
            const probing::ProbeTarget& target) -> std::optional<int> {
      if (const auto it = state.flaky_round.find(seeds.prefix);
          it != state.flaky_round.end() && it->second == flaky_check) {
        return std::nullopt;
      }
      const net::Asn from = target.routes_via.value_or(seeds.origin);
      // §3.4: a per-prefix egress stance applies to the origin's own
      // systems; interconnect addresses follow their owner's routing.
      const bool stance =
          seeds.stance_override.has_value() && !target.routes_via.has_value();
      const dataplane::CatchmentFib::Attribution attr =
          stance ? fib.attribution_with_stance(from, *seeds.stance_override)
                 : fib.attribution(from);
      if (!attr.reachable) return std::nullopt;
      const probing::VlanInterface* iface =
          host.interface_for_terminal(attr.terminal);
      return iface == nullptr ? std::nullopt
                              : std::optional<int>(iface->vlan_id);
    };
    probing::RoundResult round_result =
        state.prober.run_round(seeds_, target_resolver, network.clock(), pool_);
    window.probe_end = network.clock().now();

    for (std::size_t i = 0; i < round_result.prefixes.size(); ++i) {
      result.observations[i].rounds.push_back(
          std::move(round_result.prefixes[i]));
    }
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
PrefixObservation decode_observation(net::BinaryReader& r) {
  PrefixObservation obs;
  obs.prefix = decode_prefix(r);
  obs.origin = net::Asn{r.u32()};
  obs.side = static_cast<topo::ReSide>(r.u8());
  const std::uint64_t rounds = r.length(1u << 16);
  obs.rounds.reserve(rounds);
  for (std::uint64_t i = 0; i < rounds; ++i) {
    probing::PrefixRoundResult round;
    round.prefix = decode_prefix(r);
    round.origin = net::Asn{r.u32()};
    r.u64();  // retired field (was packet_mismatches): always 0
    const std::uint64_t outcomes = r.length(1u << 24);
    round.outcomes.reserve(outcomes);
    for (std::uint64_t j = 0; j < outcomes; ++j) {
      probing::ProbeOutcome outcome;
      outcome.address = net::IPv4Address(r.u32());
      outcome.responded = r.boolean();
      outcome.vlan_id = static_cast<int>(r.u32());
      round.outcomes.push_back(outcome);
    }
    obs.rounds.push_back(std::move(round));
  }
  return obs;
}

}  // namespace

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
  setup.result.windows.reserve(window_count);
  for (std::uint64_t i = 0; i < window_count; ++i) {
    setup.result.windows.push_back(decode_window(r));
  }
  const std::uint64_t obs_count = r.length(1u << 24);
  setup.result.observations.reserve(obs_count);
  for (std::uint64_t i = 0; i < obs_count; ++i) {
    setup.result.observations.push_back(decode_observation(r));
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
