// Prefix-scoped incremental re-convergence: the delta-driven engine
// (run_dirty_to_convergence / the scoped run_to_convergence overload)
// must be *provably boring* — a scoped run performs exactly the work a
// full run would perform for the scoped prefixes, and deferred prefixes
// catch up to the identical per-prefix state later. These tests pin that
// contract three ways:
//   1. same-schedule runs (only the measurement prefix ever dirty) are
//      bit-identical full vs dirty vs scoped;
//   2. fork -> scoped prepend sweep equals a cold full-run sweep;
//   3. deferred catch-up: scoping past live background churn, then
//      draining, lands every prefix on the eager run's content digest.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "bgp/network.h"
#include "netbase/clock.h"
#include "topology/ecosystem.h"

namespace re::bgp {
namespace {

topo::Ecosystem make_world() {
  topo::EcosystemParams params;
  params = params.scaled(0.06);
  params.seed = 20250806;
  return topo::Ecosystem::generate(params);
}

// The nine §3.3 prepend configurations, collapsed to the network-level
// blanket knob: the monotone 4..0..4 sweep exercises shrink, floor, and
// grow transitions.
constexpr std::uint32_t kSweep[9] = {4, 3, 2, 1, 0, 1, 2, 3, 4};

// Picks the measurement prefix (first non-covered) plus `background`
// further member prefixes.
struct Cast {
  const topo::PrefixRecord* meas = nullptr;
  std::vector<const topo::PrefixRecord*> background;
};

Cast pick_cast(const topo::Ecosystem& eco, std::size_t background) {
  Cast cast;
  for (const topo::PrefixRecord& rec : eco.prefixes()) {
    if (rec.covered) continue;
    if (cast.meas == nullptr) {
      cast.meas = &rec;
    } else if (cast.background.size() < background) {
      cast.background.push_back(&rec);
    } else {
      break;
    }
  }
  return cast;
}

// Builds a network, announces the cast, and drains to a converged
// baseline at a fixed clock position.
std::unique_ptr<BgpNetwork> converged_baseline(const topo::Ecosystem& eco,
                                               const Cast& cast) {
  auto network = std::make_unique<BgpNetwork>(424244);
  eco.build_network(*network);
  network->announce(cast.meas->origin, cast.meas->prefix);
  for (const topo::PrefixRecord* rec : cast.background) {
    network->announce(rec->origin, rec->prefix);
  }
  network->run_to_convergence();
  EXPECT_TRUE(network->converged());
  EXPECT_TRUE(network->dirty_prefixes().empty());
  return network;
}

enum class RunMode { kFull, kDirty, kScoped };

// The nine-round prepend sweep on a converged baseline. Only the
// measurement prefix is ever dirtied, so all three run modes execute the
// exact same message schedule and must land on the same state_digest.
std::uint64_t sweep_digest(BgpNetwork& network, const net::Prefix& prefix,
                           net::Asn origin, RunMode mode) {
  const net::SimTime t0 = network.clock().now();
  for (int round = 0; round < 9; ++round) {
    network.clock().advance_to(t0 + (round + 1) * net::kHour);
    network.set_origin_prepend(origin, prefix, kSweep[round]);
    switch (mode) {
      case RunMode::kFull:
        network.run_to_convergence();
        break;
      case RunMode::kDirty:
        network.run_dirty_to_convergence();
        break;
      case RunMode::kScoped:
        network.run_to_convergence(std::span<const net::Prefix>(&prefix, 1));
        break;
    }
    EXPECT_TRUE(network.converged()) << "round " << round;
  }
  return network.state_digest();
}

TEST(NetworkIncremental, NineConfigSweepBitIdenticalAcrossRunModes) {
  const topo::Ecosystem eco = make_world();
  const Cast cast = pick_cast(eco, 4);
  ASSERT_NE(cast.meas, nullptr);
  ASSERT_FALSE(cast.background.empty());

  std::uint64_t reference = 0;
  for (const RunMode mode :
       {RunMode::kFull, RunMode::kDirty, RunMode::kScoped}) {
    auto network = converged_baseline(eco, cast);
    const std::uint64_t digest =
        sweep_digest(*network, cast.meas->prefix, cast.meas->origin, mode);
    if (mode == RunMode::kFull) {
      reference = digest;
    } else {
      EXPECT_EQ(digest, reference) << "mode " << static_cast<int>(mode);
    }
    EXPECT_TRUE(network->dirty_prefixes().empty());
  }
  ASSERT_NE(reference, 0u);
}

TEST(NetworkIncremental, ForkThenScopedSweepMatchesColdFullSweep) {
  const topo::Ecosystem eco = make_world();
  const Cast cast = pick_cast(eco, 4);
  ASSERT_NE(cast.meas, nullptr);

  // Cold path: fresh network, full drains every round.
  auto cold = converged_baseline(eco, cast);
  const NetworkSnapshot snap = cold->checkpoint();
  const std::uint64_t cold_digest =
      sweep_digest(*cold, cast.meas->prefix, cast.meas->origin, RunMode::kFull);

  // Warm path: fork the converged checkpoint, run the sweep scoped.
  auto warm = snap.fork();
  EXPECT_TRUE(warm->converged());
  EXPECT_TRUE(warm->dirty_prefixes().empty());
  const std::uint64_t warm_digest = sweep_digest(
      *warm, cast.meas->prefix, cast.meas->origin, RunMode::kScoped);
  EXPECT_EQ(warm_digest, cold_digest);
}

TEST(NetworkIncremental, DeferredBackgroundCatchesUpToEagerContentDigests) {
  const topo::Ecosystem eco = make_world();
  const Cast cast = pick_cast(eco, 3);
  ASSERT_NE(cast.meas, nullptr);
  ASSERT_EQ(cast.background.size(), 3u);

  // Both passes mutate measurement AND background prefixes at identical
  // clock times; the scoped pass defers all background work until one
  // final drain. Global seq/intern order then legitimately diverges, so
  // the gate is the per-prefix *content* digest.
  auto run_pass = [&](bool scoped) {
    auto network = converged_baseline(eco, cast);
    const net::SimTime t0 = network->clock().now();
    for (int round = 0; round < 9; ++round) {
      network->clock().advance_to(t0 + (round + 1) * net::kHour);
      network->set_origin_prepend(cast.meas->origin, cast.meas->prefix,
                                  kSweep[round]);
      for (std::size_t i = 0; i < cast.background.size(); ++i) {
        network->set_origin_prepend(cast.background[i]->origin,
                                    cast.background[i]->prefix,
                                    kSweep[(round + i + 1) % 9]);
      }
      if (scoped) {
        network->run_to_convergence(
            std::span<const net::Prefix>(&cast.meas->prefix, 1));
      } else {
        network->run_to_convergence();
      }
    }
    if (scoped) {
      // Background churn is still queued/dirty — the deferred work exists.
      EXPECT_FALSE(network->dirty_prefixes().empty());
      network->run_to_convergence();
    }
    EXPECT_TRUE(network->converged());
    return network;
  };

  auto eager = run_pass(/*scoped=*/false);
  auto deferred = run_pass(/*scoped=*/true);
  EXPECT_EQ(deferred->prefix_state_digest(cast.meas->prefix),
            eager->prefix_state_digest(cast.meas->prefix));
  for (const topo::PrefixRecord* rec : cast.background) {
    EXPECT_EQ(deferred->prefix_state_digest(rec->prefix),
              eager->prefix_state_digest(rec->prefix))
        << "background prefix " << rec->prefix.to_string();
  }
}

TEST(NetworkIncremental, DirtyBookkeepingAndScopeCounters) {
  const topo::Ecosystem eco = make_world();
  const Cast cast = pick_cast(eco, 2);
  ASSERT_NE(cast.meas, nullptr);
  ASSERT_EQ(cast.background.size(), 2u);

  BgpNetwork network(7);
  eco.build_network(network);
  EXPECT_TRUE(network.converged());
  EXPECT_TRUE(network.dirty_prefixes().empty());

  // Mutators seed the dirty set even before any message is queued.
  network.announce(cast.meas->origin, cast.meas->prefix);
  network.announce(cast.background[0]->origin, cast.background[0]->prefix);
  std::vector<net::Prefix> dirty = network.dirty_prefixes();
  ASSERT_EQ(dirty.size(), 2u);
  EXPECT_GT(network.pending_messages(), 0u);
  EXPECT_FALSE(network.converged());

  // A scoped run converges its prefix and leaves the other's backlog
  // queued, untouched by the scope.
  const ConvergenceStats scoped = network.run_to_convergence(
      std::span<const net::Prefix>(&cast.meas->prefix, 1));
  EXPECT_GT(scoped.messages_delivered, 0u);
  EXPECT_GT(network.pending_messages(), 0u);
  EXPECT_FALSE(network.converged());  // background still in flight
  dirty = network.dirty_prefixes();
  ASSERT_EQ(dirty.size(), 1u);
  EXPECT_EQ(dirty[0], cast.background[0]->prefix);

  // run_dirty converges the rest and clears the set; a converged network
  // reports a zero-width dirty run.
  const ConvergenceStats rest = network.run_dirty_to_convergence();
  EXPECT_GT(rest.messages_delivered, 0u);
  EXPECT_TRUE(network.converged());
  EXPECT_TRUE(network.dirty_prefixes().empty());
  const ConvergenceStats idle = network.run_dirty_to_convergence();
  EXPECT_EQ(idle.messages_delivered, 0u);
  EXPECT_TRUE(network.dirty_prefixes().empty());
  EXPECT_TRUE(idle.fully_converged);

  // A prepend change on a converged prefix re-dirties exactly it.
  network.set_origin_prepend(cast.meas->origin, cast.meas->prefix, 2);
  dirty = network.dirty_prefixes();
  ASSERT_EQ(dirty.size(), 1u);
  EXPECT_EQ(dirty[0], cast.meas->prefix);
  network.run_dirty_to_convergence();
  EXPECT_TRUE(network.dirty_prefixes().empty());

  // clear_prefix drops queued work and the dirty mark.
  network.withdraw(cast.meas->origin, cast.meas->prefix);
  EXPECT_FALSE(network.dirty_prefixes().empty());
  network.clear_prefix(cast.meas->prefix);
  EXPECT_TRUE(network.dirty_prefixes().empty());
  EXPECT_TRUE(network.converged());
}

}  // namespace
}  // namespace re::bgp
