#include "check/scenario.h"

#include <array>
#include <map>

#include "bgp/speaker.h"
#include "dataplane/fib.h"
#include "netbase/rng.h"
#include "runtime/rng_streams.h"

namespace re::check {
namespace {

using net::Asn;
using net::Prefix;

Violation make_violation(const char* invariant, std::string detail) {
  Violation v;
  v.invariant = invariant;
  v.detail = std::move(detail);
  return v;
}

// FIB terminals for a prefix: every speaker currently originating it,
// except the designated squatter (the non-terminal-originator pathology).
// Derived from live network state so restores stay consistent for free.
std::vector<Asn> terminals_for(const bgp::BgpNetwork& network,
                               const Prefix& prefix, Asn squatter) {
  std::vector<Asn> out;
  for (const Asn asn : network.asns()) {
    if (asn == squatter) continue;
    if (network.speaker(asn)->originates(prefix)) out.push_back(asn);
  }
  return out;
}

struct FibCache {
  std::vector<Asn> terminals;
  std::unique_ptr<dataplane::CatchmentFib> fib;
};

}  // namespace

const char* to_string(OpKind kind) {
  switch (kind) {
    case OpKind::kAnnounce: return "announce";
    case OpKind::kWithdraw: return "withdraw";
    case OpKind::kSetPrepend: return "set-prepend";
    case OpKind::kFailSession: return "fail-session";
    case OpKind::kRestoreSession: return "restore-session";
    case OpKind::kRunFull: return "run-full";
    case OpKind::kRunDirty: return "run-dirty";
    case OpKind::kRunScoped: return "run-scoped";
    case OpKind::kRunPartial: return "run-partial";
    case OpKind::kCheckpoint: return "checkpoint";
    case OpKind::kRestoreSnapshot: return "restore-snapshot";
    case OpKind::kFibQuery: return "fib-query";
  }
  return "?";
}

std::unique_ptr<bgp::BgpNetwork> make_world(std::uint64_t seed,
                                            WorldSpec* spec,
                                            bool med_flip_mutant) {
  auto network = std::make_unique<bgp::BgpNetwork>(seed);
  // Stream 0 of the master seed: topology. Stream 1 is the schedule
  // (make_scenario), so one world can be driven by many schedules.
  net::Rng rng(runtime::derive_stream_seed(seed, 0));

  WorldSpec local;
  local.prefixes = {*Prefix::parse("163.253.63.0/24"),
                    *Prefix::parse("198.51.100.0/24"),
                    *Prefix::parse("203.0.113.0/24")};

  std::uint32_t next_asn = 100;
  std::vector<std::vector<Asn>> tiers;
  for (const std::size_t count : {std::size_t{3}, std::size_t{4},
                                  std::size_t{5}}) {
    tiers.emplace_back();
    for (std::size_t i = 0; i < count; ++i) {
      tiers.back().push_back(Asn{next_asn++});
    }
  }
  const auto connect_peers = [&](Asn a, Asn b, bool re_edge) {
    network->connect_peering(a, b, re_edge);
    local.sessions.emplace_back(a, b);
  };
  const auto connect = [&](Asn provider, Asn customer, bool re_edge) {
    network->connect_transit(provider, customer, re_edge);
    local.sessions.emplace_back(provider, customer);
  };

  // Tier 0: full-mesh peering clique; some members are R&E backbones that
  // glue peer NRENs (re_transit_between_peers + re_edge peerings).
  for (std::size_t i = 0; i < tiers[0].size(); ++i) {
    for (std::size_t j = i + 1; j < tiers[0].size(); ++j) {
      connect_peers(tiers[0][i], tiers[0][j], rng.chance(0.5));
    }
  }
  for (const Asn as : tiers[0]) {
    network->speaker(as)->set_re_transit_between_peers(rng.chance(0.5));
  }
  // Lower tiers: one or two providers each from the tier above.
  for (std::size_t t = 1; t < tiers.size(); ++t) {
    for (const Asn as : tiers[t]) {
      const int providers = 1 + static_cast<int>(rng.below(2));
      std::vector<Asn> pool = tiers[t - 1];
      rng.shuffle(pool);
      const bool re_edge = rng.chance(0.4);
      for (int p = 0; p < providers; ++p) {
        connect(pool[static_cast<std::size_t>(p)], as, re_edge && p == 0);
      }
    }
  }

  // Route-stripped AS reaching terminals only through its default route
  // (the §4.2 hidden-upstream case).
  const Asn stripped{next_asn++};
  connect(tiers[0][0], stripped, /*re_edge=*/true);
  network->speaker(stripped)->import_policy().reject_re_routes = true;
  network->speaker(stripped)->set_session_default_route(tiers[0][0]);

  // Non-terminal originator: announces pool prefixes but is excluded from
  // FIB terminals, so the return-path rule must black-hole it.
  const Asn squatter{next_asn++};
  network->add_speaker(squatter);
  local.squatter = squatter;

  // Random stances so both R&E and commodity origins attract catchments.
  for (const auto& tier : tiers) {
    for (const Asn as : tier) {
      const auto draw = rng.below(3);
      network->speaker(as)->import_policy().re_stance =
          draw == 0   ? bgp::ReStance::kPreferRe
          : draw == 1 ? bgp::ReStance::kPreferCommodity
                      : bgp::ReStance::kEqualPref;
    }
  }

  // One public collector feed, so schedules exercise the collector-log
  // slice of prefix_state_digest too.
  network->add_collector_peer(tiers[0][1]);

  local.origins = tiers.back();
  local.origins.push_back(tiers[1][0]);
  local.origins.push_back(stripped);
  local.origins.push_back(squatter);

  if (med_flip_mutant) {
    for (const Asn asn : network->asns()) {
      network->speaker(asn)->decision().mutant_med_flip = true;
    }
  }

  // Converged two-origin baseline on the first pool prefix, so every
  // schedule starts from a populated world (fib_test's announcement
  // shape: one R&E-scoped origin, one commodity origin).
  bgp::OriginationOptions re_only;
  re_only.re_only = true;
  network->announce(tiers.back()[0], local.prefixes[0], re_only);
  network->announce(tiers.back()[tiers.back().size() / 2], local.prefixes[0]);
  network->run_to_convergence();

  if (spec != nullptr) *spec = std::move(local);
  return network;
}

Scenario make_scenario(std::uint64_t seed, std::size_t op_count) {
  Scenario scenario;
  scenario.seed = seed;
  net::Rng rng(runtime::derive_stream_seed(seed, 1));
  scenario.ops.reserve(op_count);
  for (std::size_t i = 0; i < op_count; ++i) {
    const std::uint64_t draw = rng.below(110);
    OpKind kind = OpKind::kRunFull;
    if (draw < 18) kind = OpKind::kAnnounce;
    else if (draw < 28) kind = OpKind::kWithdraw;
    else if (draw < 38) kind = OpKind::kSetPrepend;
    else if (draw < 48) kind = OpKind::kFailSession;
    else if (draw < 56) kind = OpKind::kRestoreSession;
    else if (draw < 68) kind = OpKind::kRunFull;
    else if (draw < 80) kind = OpKind::kRunDirty;
    else if (draw < 88) kind = OpKind::kRunScoped;
    else if (draw < 92) kind = OpKind::kRunPartial;
    else if (draw < 96) kind = OpKind::kCheckpoint;
    else if (draw < 99) kind = OpKind::kRestoreSnapshot;
    else kind = OpKind::kFibQuery;
    ScenarioOp op;
    op.kind = kind;
    op.a = static_cast<std::uint32_t>(rng.below(64));
    op.b = static_cast<std::uint32_t>(rng.below(8));
    op.c = static_cast<std::uint32_t>(rng.below(8));
    scenario.ops.push_back(op);
  }
  return scenario;
}

ScenarioResult run_scenario(const Scenario& scenario,
                            const CheckOptions& options) {
  ScenarioResult result;
  WorldSpec spec;
  const auto network_ptr =
      make_world(scenario.seed, &spec, options.med_flip_mutant);
  bgp::BgpNetwork& network = *network_ptr;
  InvariantSuite suite;
  std::size_t executor_checks = 0;

  // Decision-process conformance first: table-driven and RIB-independent,
  // it catches tie-break faults (the med-flip mutant) even on schedules
  // whose routes never exercise the broken step.
  if (auto v = suite.decision_conformance(options.med_flip_mutant)) {
    result.violation = std::move(v);
    result.invariant_checks = suite.checks_run();
    return result;
  }

  // Round-boundary hook: the cheap bundle every N propagation rounds of
  // every run op, catching mid-convergence corruption op-boundary checks
  // would miss once the run settles.
  std::optional<Violation> round_violation;
  if (options.check_every_rounds > 0) {
    network.set_round_observer([&](net::SimTime, std::uint64_t round) {
      if (round_violation || round % options.check_every_rounds != 0) return;
      round_violation = suite.check_cheap(network, spec.prefixes);
    });
  }

  std::array<std::optional<bgp::BgpNetwork::Snapshot>, 4> slots;
  // Each slot's digest when it was taken. Snapshots share prefix columns
  // copy-on-write with the network and its forks, so a write that reaches
  // a shared column instead of cloning it shows up as a changed digest.
  std::array<std::uint64_t, 4> slot_digests{};
  const auto check_slots = [&]() -> std::optional<Violation> {
    for (std::size_t s = 0; s < slots.size(); ++s) {
      ++executor_checks;
      if (slots[s] && slots[s]->digest() != slot_digests[s]) {
        return make_violation("snapshot-mutated",
                              "checkpoint slot " + std::to_string(s) +
                                  " changed after it was taken");
      }
    }
    return std::nullopt;
  };
  std::map<Prefix, FibCache> fibs;

  // Persistent per-prefix FIBs: reusing them across ops (and across
  // restores) is what exercises the epoch-based refresh machinery.
  const auto fib_check = [&](const Prefix& prefix) {
    auto terminals = terminals_for(network, prefix, spec.squatter);
    FibCache& cache = fibs[prefix];
    if (cache.fib == nullptr || cache.terminals != terminals) {
      cache.terminals = std::move(terminals);
      cache.fib = std::make_unique<dataplane::CatchmentFib>(
          network, prefix, std::span<const Asn>(cache.terminals));
    }
    return suite.fib_agreement(network, prefix, cache.terminals, *cache.fib);
  };

  // A fully converged fork of the current state: the oracle every
  // scoped/dirty/full run is compared against.
  const auto shadow_full = [&]() {
    auto snap = network.checkpoint();
    auto shadow = snap.fork();
    shadow->run_to_convergence();
    return shadow;
  };

  std::optional<Violation> violation;
  for (std::size_t i = 0; i < scenario.ops.size(); ++i) {
    const ScenarioOp& op = scenario.ops[i];
    const Prefix prefix = spec.prefixes[op.b % spec.prefixes.size()];
    bool ran = false;  // a run op: converged checks apply afterwards
    switch (op.kind) {
      case OpKind::kAnnounce: {
        bgp::OriginationOptions origination;
        origination.re_only = (op.c & 1) != 0;
        network.announce(spec.origins[op.a % spec.origins.size()], prefix,
                         origination);
        break;
      }
      case OpKind::kWithdraw:
        network.withdraw(spec.origins[op.a % spec.origins.size()], prefix);
        break;
      case OpKind::kSetPrepend:
        network.set_origin_prepend(spec.origins[op.a % spec.origins.size()],
                                   prefix, op.c % 4);
        break;
      case OpKind::kFailSession: {
        const auto [x, y] = spec.sessions[op.a % spec.sessions.size()];
        network.fail_session(x, y, prefix);
        break;
      }
      case OpKind::kRestoreSession: {
        const auto [x, y] = spec.sessions[op.a % spec.sessions.size()];
        network.restore_session(x, y, prefix);
        break;
      }
      case OpKind::kRunFull: {
        ran = true;
        if (options.scoped_equivalence) {
          const auto shadow = shadow_full();
          network.run_to_convergence();
          ++executor_checks;
          if (network.state_digest() != shadow->state_digest()) {
            violation = make_violation(
                "full-vs-fork",
                "full run diverged from a fully converged fork");
          }
        } else {
          network.run_to_convergence();
        }
        break;
      }
      case OpKind::kRunDirty: {
        ran = true;
        const auto dirty = network.dirty_prefixes();
        if (options.scoped_equivalence && !dirty.empty()) {
          const auto shadow = shadow_full();
          network.run_dirty_to_convergence();
          for (const Prefix& p : dirty) {
            ++executor_checks;
            if (network.prefix_state_digest(p) !=
                shadow->prefix_state_digest(p)) {
              violation = make_violation(
                  "scoped-vs-full",
                  "dirty run diverged from the full oracle on " +
                      p.to_string());
              break;
            }
          }
        } else {
          network.run_dirty_to_convergence();
        }
        break;
      }
      case OpKind::kRunScoped: {
        ran = true;
        std::uint32_t mask = op.a % 8;
        if (mask == 0) mask = 1;
        std::vector<Prefix> scope;
        for (std::size_t p = 0; p < spec.prefixes.size(); ++p) {
          if ((mask >> p) & 1) scope.push_back(spec.prefixes[p]);
        }
        if (options.scoped_equivalence) {
          const auto shadow = shadow_full();
          network.run_to_convergence(scope);
          for (const Prefix& p : scope) {
            ++executor_checks;
            if (network.prefix_state_digest(p) !=
                shadow->prefix_state_digest(p)) {
              violation = make_violation(
                  "scoped-vs-full",
                  "scoped run diverged from the full oracle on " +
                      p.to_string());
              break;
            }
          }
        } else {
          network.run_to_convergence(scope);
        }
        break;
      }
      case OpKind::kRunPartial:
        ran = true;
        network.run_until(network.clock().now() + 1 + op.a % 37);
        break;
      case OpKind::kCheckpoint: {
        const std::size_t s = op.c % slots.size();
        slots[s] = network.checkpoint();
        slot_digests[s] = slots[s]->digest();
        break;
      }
      case OpKind::kRestoreSnapshot:
        violation = check_slots();
        if (const auto& slot = slots[op.c % slots.size()]; slot && !violation) {
          network.restore(*slot);
        }
        break;
      case OpKind::kFibQuery:
        if (options.fib_agreement) violation = fib_check(prefix);
        break;
    }
    if (!violation && round_violation) violation = std::move(round_violation);
    if (!violation) violation = suite.check_cheap(network, spec.prefixes);
    if (!violation && ran) {
      if (options.snapshot_roundtrip) {
        violation = suite.snapshot_roundtrip(network);
      }
      if (!violation && options.fib_agreement) {
        for (const Prefix& p : spec.prefixes) {
          if ((violation = fib_check(p))) break;
        }
      }
    }
    if (violation) {
      violation->op_index = i;
      break;
    }
    result.ops_executed = i + 1;
  }
  network.set_round_observer({});
  // Slots are only filled by ops, so a late violation has a last op.
  if (!violation && (violation = check_slots())) {
    violation->op_index = scenario.ops.size() - 1;
  }

  result.invariant_checks = suite.checks_run() + executor_checks;
  if (violation) {
    result.violation = std::move(violation);
  } else {
    result.final_digest = network.state_digest();
  }
  return result;
}

}  // namespace re::check
