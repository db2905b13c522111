// Google-benchmark microbenchmarks of the computational kernels: the BGP
// decision process, speaker update processing, network propagation,
// longest-prefix matching, return-path resolution, and the re_check
// invariant suite.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <memory>

#include "bgp/decision.h"
#include "bgp/network.h"
#include "bgp/rpki.h"
#include "check/invariants.h"
#include "check/return_path.h"
#include "check/scenario.h"
#include "core/classifier.h"
#include "dataplane/fib.h"
#include "io/results_io.h"
#include "netbase/prefix_trie.h"
#include "netbase/rng.h"
#include "topology/ecosystem.h"

namespace {

using namespace re;

std::vector<bgp::Route> make_candidates(std::size_t n) {
  static bgp::PathTable table;
  net::Rng rng(7);
  std::vector<bgp::Route> routes;
  for (std::size_t i = 0; i < n; ++i) {
    bgp::Route r;
    r.local_pref = 100 + static_cast<std::uint32_t>(rng.below(3)) * 10;
    std::vector<net::Asn> asns;
    const std::size_t len = 1 + rng.below(6);
    for (std::size_t j = 0; j < len; ++j) {
      asns.push_back(net::Asn{static_cast<std::uint32_t>(rng.below(70000))});
    }
    r.set_path(table, table.intern(bgp::AsPath(asns)));
    r.learned_from = net::Asn{static_cast<std::uint32_t>(1000 + i)};
    r.neighbor_router_id = static_cast<std::uint32_t>(rng.next());
    routes.push_back(std::move(r));
  }
  return routes;
}

void BM_DecisionProcess(benchmark::State& state) {
  const auto candidates = make_candidates(static_cast<std::size_t>(state.range(0)));
  const bgp::DecisionConfig config;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bgp::select_best(candidates, config));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DecisionProcess)->Arg(2)->Arg(4)->Arg(8)->Arg(32);

void BM_SpeakerReceive(benchmark::State& state) {
  const net::Prefix prefix = *net::Prefix::parse("163.253.63.0/24");
  bgp::Speaker speaker(net::Asn{42});
  bgp::Session session;
  session.neighbor = net::Asn{1};
  session.relationship = bgp::Relationship::kProvider;
  speaker.add_session(session);
  bgp::UpdateMessage a, b;
  a.prefix = b.prefix = prefix;
  a.path = speaker.paths().intern(bgp::AsPath{net::Asn{1}, net::Asn{9}});
  b.path =
      speaker.paths().intern(bgp::AsPath{net::Asn{1}, net::Asn{9}, net::Asn{9}});
  net::SimTime now = 0;
  for (auto _ : state) {
    speaker.receive(net::Asn{1}, a, ++now);
    speaker.receive(net::Asn{1}, b, ++now);
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_SpeakerReceive);

void BM_MeasurementPrefixPropagation(benchmark::State& state) {
  topo::EcosystemParams params;
  params = params.scaled(static_cast<double>(state.range(0)) / 100.0);
  const topo::Ecosystem eco = topo::Ecosystem::generate(params);
  const net::Prefix meas = eco.measurement().prefix;
  for (auto _ : state) {
    bgp::BgpNetwork network(1);
    eco.build_network(network);
    network.announce(eco.measurement().commodity_origin, meas);
    bgp::OriginationOptions re_only;
    re_only.re_only = true;
    network.announce(eco.internet2(), meas, re_only);
    const auto stats = network.run_to_convergence();
    benchmark::DoNotOptimize(stats.messages_delivered);
  }
}
BENCHMARK(BM_MeasurementPrefixPropagation)->Arg(5)->Arg(20)->Arg(100)
    ->Unit(benchmark::kMillisecond);

void BM_PrependChangeReconvergence(benchmark::State& state) {
  topo::EcosystemParams params;
  params = params.scaled(0.2);
  const topo::Ecosystem eco = topo::Ecosystem::generate(params);
  const net::Prefix meas = eco.measurement().prefix;
  bgp::BgpNetwork network(1);
  eco.build_network(network);
  network.announce(eco.measurement().commodity_origin, meas);
  bgp::OriginationOptions re_only;
  re_only.re_only = true;
  network.announce(eco.internet2(), meas, re_only);
  network.run_to_convergence();
  std::uint32_t prepend = 0;
  for (auto _ : state) {
    prepend = (prepend + 1) % 5;
    network.set_origin_prepend(eco.internet2(), meas, prepend);
    const auto stats = network.run_to_convergence();
    benchmark::DoNotOptimize(stats.messages_delivered);
  }
}
BENCHMARK(BM_PrependChangeReconvergence)->Unit(benchmark::kMillisecond);

void BM_PrefixTrieLongestMatch(benchmark::State& state) {
  net::PrefixTrie<int> trie;
  net::Rng rng(5);
  for (int i = 0; i < state.range(0); ++i) {
    const auto addr = net::IPv4Address(static_cast<std::uint32_t>(rng.next()));
    trie.insert(net::Prefix(addr, static_cast<std::uint8_t>(16 + rng.below(9))),
                i);
  }
  net::Rng lookup_rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(trie.longest_match(
        net::IPv4Address(static_cast<std::uint32_t>(lookup_rng.next()))));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PrefixTrieLongestMatch)->Arg(1000)->Arg(18000);

void BM_ReturnPathResolution(benchmark::State& state) {
  topo::EcosystemParams params;
  params = params.scaled(0.2);
  const topo::Ecosystem eco = topo::Ecosystem::generate(params);
  const net::Prefix meas = eco.measurement().prefix;
  bgp::BgpNetwork network(1);
  eco.build_network(network);
  network.announce(eco.measurement().commodity_origin, meas);
  bgp::OriginationOptions re_only;
  re_only.re_only = true;
  network.announce(eco.internet2(), meas, re_only);
  network.run_to_convergence();
  check::ReturnPathResolver resolver(
      network, meas,
      {eco.measurement().commodity_origin, eco.internet2()});
  std::size_t i = 0;
  const auto& members = eco.members();
  for (auto _ : state) {
    benchmark::DoNotOptimize(resolver.resolve(members[i++ % members.size()]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReturnPathResolution);

// The compiled-FIB counterpart of BM_ReturnPathResolution: same world,
// same two-origin announcement, queries answered from the compiled
// catchment table. Warm = the steady-state probing path (table already
// compiled, O(1) per query); cold = invalidate + recompile every
// iteration, pricing the per-round compile the warm path amortizes.
void BM_CatchmentFibWarm(benchmark::State& state) {
  topo::EcosystemParams params;
  params = params.scaled(0.2);
  const topo::Ecosystem eco = topo::Ecosystem::generate(params);
  const net::Prefix meas = eco.measurement().prefix;
  bgp::BgpNetwork network(1);
  eco.build_network(network);
  network.announce(eco.measurement().commodity_origin, meas);
  bgp::OriginationOptions re_only;
  re_only.re_only = true;
  network.announce(eco.internet2(), meas, re_only);
  network.run_to_convergence();
  dataplane::CatchmentFib fib(
      network, meas, {eco.measurement().commodity_origin, eco.internet2()});
  fib.refresh();
  std::size_t i = 0;
  const auto& members = eco.members();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fib.attribution(members[i++ % members.size()]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CatchmentFibWarm);

void BM_CatchmentFibCold(benchmark::State& state) {
  topo::EcosystemParams params;
  params = params.scaled(0.2);
  const topo::Ecosystem eco = topo::Ecosystem::generate(params);
  const net::Prefix meas = eco.measurement().prefix;
  bgp::BgpNetwork network(1);
  eco.build_network(network);
  network.announce(eco.measurement().commodity_origin, meas);
  bgp::OriginationOptions re_only;
  re_only.re_only = true;
  network.announce(eco.internet2(), meas, re_only);
  network.run_to_convergence();
  dataplane::CatchmentFib fib(
      network, meas, {eco.measurement().commodity_origin, eco.internet2()});
  std::size_t i = 0;
  const auto& members = eco.members();
  for (auto _ : state) {
    fib.invalidate();
    fib.refresh();  // full table compile
    benchmark::DoNotOptimize(
        fib.attribution(members[i++ % members.size()]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CatchmentFibCold);

void BM_ClassifyPrefix(benchmark::State& state) {
  core::PrefixObservation obs;
  obs.prefix = *net::Prefix::parse("128.0.0.0/24");
  obs.origin = net::Asn{50001};
  std::vector<net::IPv4Address> systems;
  for (std::uint64_t sys = 0; sys < 3; ++sys) {
    systems.push_back(obs.prefix.address_at(sys + 1));
  }
  // Codes name the {commodity 18, R&E 17} pair: four commodity rounds,
  // then R&E.
  obs.rounds = probing::ProbeColumn(obs.prefix, obs.origin,
                                    std::move(systems), {18, 17}, 9);
  for (int round = 0; round < 9; ++round) {
    for (probing::OutcomeCode& code : obs.rounds.add_round()) {
      code = round < 4 ? 1 : 2;
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::classify_prefix(obs, 17));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ClassifyPrefix);

void BM_RovValidation(benchmark::State& state) {
  bgp::RoaTable roas;
  net::Rng rng(5);
  for (int i = 0; i < state.range(0); ++i) {
    bgp::Roa roa;
    roa.prefix = net::Prefix(
        net::IPv4Address(static_cast<std::uint32_t>(rng.next())), 16);
    roa.max_length = 24;
    roa.origin = net::Asn{static_cast<std::uint32_t>(1 + rng.below(70000))};
    roas.add(roa);
  }
  net::Rng lookup(9);
  for (auto _ : state) {
    const net::Prefix p(
        net::IPv4Address(static_cast<std::uint32_t>(lookup.next())), 24);
    benchmark::DoNotOptimize(
        roas.validate(p, net::Asn{static_cast<std::uint32_t>(lookup.below(70000))}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RovValidation)->Arg(1000)->Arg(20000);

void BM_ResultLineRoundTrip(benchmark::State& state) {
  core::PrefixInference p;
  p.prefix = *net::Prefix::parse("163.253.63.0/24");
  p.origin = net::Asn{50123};
  p.inference = core::Inference::kSwitchToRe;
  p.first_re_round = 4;
  for (int i = 0; i < 9; ++i) {
    p.rounds.push_back(i < 4 ? core::RoundState::kCommodity
                             : core::RoundState::kRe);
  }
  for (auto _ : state) {
    const std::string line = io::to_json_line(p);
    benchmark::DoNotOptimize(io::from_json_line(line));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ResultLineRoundTrip);

// --- per-invariant check cost (re_check harness, DESIGN.md §5g) -----------
//
// One benchmark per invariant on re_check's own seeded fuzzing world, so
// each row prices exactly what the fuzzer pays per round/op boundary: a
// check that silently goes quadratic shows up as a jump in its row.
struct InvariantWorld {
  check::WorldSpec spec;
  std::unique_ptr<bgp::BgpNetwork> network = check::make_world(1, &spec);
  check::InvariantSuite suite;
  std::vector<net::Asn> terminals;
  std::unique_ptr<dataplane::CatchmentFib> fib;

  InvariantWorld() {
    for (const net::Asn asn : network->asns()) {
      if (asn != spec.squatter &&
          network->speaker(asn)->originates(spec.prefixes[0])) {
        terminals.push_back(asn);
      }
    }
    fib = std::make_unique<dataplane::CatchmentFib>(
        *network, spec.prefixes[0], terminals);
  }
};

// One world shared by every row (each BM_Invariant instantiation would
// otherwise build its own).
InvariantWorld& invariant_world() {
  static InvariantWorld world;
  return world;
}

template <typename Check>
void BM_Invariant(benchmark::State& state, Check check) {
  InvariantWorld& world = invariant_world();
  for (auto _ : state) {
    if (const auto violation = check(world); violation.has_value()) {
      std::fprintf(stderr, "[bench] invariant violated on healthy world: %s: %s\n",
                   violation->invariant.c_str(), violation->detail.c_str());
      std::exit(1);
    }
  }
}
BENCHMARK_CAPTURE(BM_Invariant, loop_freedom, [](InvariantWorld& w) {
  return w.suite.loop_freedom(*w.network);
});
BENCHMARK_CAPTURE(BM_Invariant, decision_soundness, [](InvariantWorld& w) {
  return w.suite.decision_soundness(*w.network);
});
BENCHMARK_CAPTURE(BM_Invariant, export_safety, [](InvariantWorld& w) {
  return w.suite.export_safety(*w.network);
});
BENCHMARK_CAPTURE(BM_Invariant, epoch_coherence, [](InvariantWorld& w) {
  return w.suite.epoch_coherence(*w.network, w.spec.prefixes);
});
BENCHMARK_CAPTURE(BM_Invariant, snapshot_roundtrip, [](InvariantWorld& w) {
  return w.suite.snapshot_roundtrip(*w.network);
});
BENCHMARK_CAPTURE(BM_Invariant, fib_agreement, [](InvariantWorld& w) {
  return w.suite.fib_agreement(*w.network, w.spec.prefixes[0], w.terminals,
                               *w.fib);
});
BENCHMARK_CAPTURE(BM_Invariant, decision_conformance, [](InvariantWorld& w) {
  return w.suite.decision_conformance();
});

}  // namespace

BENCHMARK_MAIN();
