// Differential tests for the compiled catchment FIB (dataplane/fib.h):
// the compiled table must be bit-identical to the reference
// check::ReturnPathResolver walker — terminal, used_default_route, hops,
// hop budget, stance overrides — across randomized topologies, and its
// epoch invalidation must track every mutation path of BgpNetwork.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "bgp/network.h"
#include "check/return_path.h"
#include "dataplane/fib.h"
#include "netbase/rng.h"
#include "runtime/thread_pool.h"
#include "topology/ecosystem.h"

namespace re::dataplane {
namespace {

using check::ReturnPathResolver;
using net::Asn;
using net::Prefix;

const Prefix kPrefix = *Prefix::parse("163.253.63.0/24");

// A random multi-tier topology seeded with the pathologies the FIB must
// classify: terminals reached with and without default routes, forwarding
// loops (mutual default routes), black holes (isolated or route-stripped
// ASes), and a non-terminal originator.
struct FuzzTopology {
  bgp::BgpNetwork network;
  std::vector<std::vector<Asn>> tiers;
  std::vector<Asn> extras;  // pathological ASes outside the tier lattice
  Asn re_origin{100};
  Asn comm_origin{0};

  explicit FuzzTopology(std::uint64_t seed, int tier_count = 4,
                        int per_tier = 6)
      : network(seed) {
    net::Rng rng(seed * 77 + 1);
    std::uint32_t next_asn = 100;
    for (int t = 0; t < tier_count; ++t) {
      tiers.emplace_back();
      for (int i = 0; i < per_tier; ++i) {
        tiers.back().push_back(Asn{next_asn++});
      }
    }
    for (std::size_t i = 0; i < tiers[0].size(); ++i) {
      for (std::size_t j = i + 1; j < tiers[0].size(); ++j) {
        network.connect_peering(tiers[0][i], tiers[0][j]);
      }
    }
    for (std::size_t t = 1; t < tiers.size(); ++t) {
      for (const Asn as : tiers[t]) {
        const int providers = 1 + static_cast<int>(rng.below(2));
        std::vector<Asn> pool = tiers[t - 1];
        rng.shuffle(pool);
        const bool re_edge = rng.chance(0.4);
        for (int p = 0; p < providers; ++p) {
          network.connect_transit(pool[static_cast<std::size_t>(p)], as,
                                  re_edge && p == 0);
        }
      }
    }
    re_origin = tiers.back()[0];
    comm_origin = tiers.back()[tiers.back().size() / 2];

    // Route-stripped AS with a default route: reaches a terminal only via
    // the default (the §4.2 hidden-upstream case).
    const Asn stripped{next_asn++};
    network.connect_transit(tiers[0][0], stripped, /*re_edge=*/true);
    network.speaker(stripped)->import_policy().reject_re_routes = true;
    network.speaker(stripped)->set_session_default_route(tiers[0][0]);
    extras.push_back(stripped);

    // Mutual default routes with no learned route: a forwarding loop.
    const Asn loop_a{next_asn++}, loop_b{next_asn++};
    network.connect_peering(loop_a, loop_b);
    network.speaker(loop_a)->set_session_default_route(loop_b);
    network.speaker(loop_b)->set_session_default_route(loop_a);
    extras.push_back(loop_a);
    extras.push_back(loop_b);

    // Dead end: no route, no default.
    const Asn dead{next_asn++};
    network.add_speaker(dead);
    extras.push_back(dead);

    // A tail AS that forwards into the loop via its default route.
    const Asn tail{next_asn++};
    network.connect_peering(tail, loop_a);
    network.speaker(tail)->set_session_default_route(loop_a);
    extras.push_back(tail);

    // Non-terminal originator of the measurement prefix (a squatter):
    // the return-path rule black-holes it.
    const Asn squatter{next_asn++};
    network.add_speaker(squatter);
    network.announce(squatter, kPrefix);
    extras.push_back(squatter);

    // Sprinkle stances before announcing so both origins attract
    // catchments (stance is applied at import time).
    for (const auto& tier : tiers) {
      for (const Asn as : tier) {
        const auto draw = rng.below(3);
        network.speaker(as)->import_policy().re_stance =
            draw == 0   ? bgp::ReStance::kPreferRe
            : draw == 1 ? bgp::ReStance::kPreferCommodity
                        : bgp::ReStance::kEqualPref;
      }
    }

    bgp::OriginationOptions re_only;
    re_only.re_only = true;
    network.announce(re_origin, kPrefix, re_only);
    network.announce(comm_origin, kPrefix);
    network.run_to_convergence();
  }

  std::vector<Asn> all() const {
    std::vector<Asn> out;
    for (const auto& tier : tiers) {
      out.insert(out.end(), tier.begin(), tier.end());
    }
    out.insert(out.end(), extras.begin(), extras.end());
    out.push_back(Asn{9999999});  // unknown AS (no speaker)
    return out;
  }
};

void expect_equal(const ReturnPath& legacy, const ReturnPath& fib, Asn as) {
  EXPECT_EQ(legacy.reachable, fib.reachable) << as.to_string();
  EXPECT_EQ(legacy.terminal, fib.terminal) << as.to_string();
  EXPECT_EQ(legacy.used_default_route, fib.used_default_route)
      << as.to_string();
  EXPECT_EQ(legacy.hops, fib.hops) << as.to_string();
}

class CatchmentFibFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CatchmentFibFuzz, MatchesLegacyWalker) {
  FuzzTopology topo(GetParam());
  const std::vector<Asn> terminals{topo.re_origin, topo.comm_origin};
  ReturnPathResolver legacy(topo.network, kPrefix, terminals);
  CatchmentFib fib(topo.network, kPrefix, terminals);
  fib.refresh();
  for (const Asn as : topo.all()) {
    const ReturnPath want = legacy.resolve(as);
    expect_equal(want, fib.resolve(as), as);
    const CatchmentFib::Attribution attr = fib.attribution(as);
    EXPECT_EQ(attr.reachable, want.reachable) << as.to_string();
    if (want.reachable) {
      EXPECT_EQ(attr.terminal, want.terminal);
    }
    EXPECT_EQ(attr.used_default_route, want.used_default_route)
        << as.to_string();
  }
}

TEST_P(CatchmentFibFuzz, MatchesLegacyStanceOverrides) {
  FuzzTopology topo(GetParam());
  const std::vector<Asn> terminals{topo.re_origin, topo.comm_origin};
  ReturnPathResolver legacy(topo.network, kPrefix, terminals);
  CatchmentFib fib(topo.network, kPrefix, terminals);
  fib.refresh();
  const bgp::ReStance stances[] = {bgp::ReStance::kPreferRe,
                                   bgp::ReStance::kPreferCommodity,
                                   bgp::ReStance::kEqualPref};
  for (const Asn as : topo.all()) {
    for (const bgp::ReStance stance : stances) {
      const ReturnPath want = legacy.resolve_with_stance(as, stance);
      expect_equal(want, fib.resolve_with_stance(as, stance), as);
      const CatchmentFib::Attribution attr =
          fib.attribution_with_stance(as, stance);
      EXPECT_EQ(attr.reachable, want.reachable) << as.to_string();
      if (want.reachable) {
        EXPECT_EQ(attr.terminal, want.terminal);
      }
      EXPECT_EQ(attr.used_default_route, want.used_default_route)
          << as.to_string();
    }
  }
}

Asn tier_sample(const FuzzTopology& topo, net::Rng& rng) {
  const auto& tier = topo.tiers[rng.below(topo.tiers.size())];
  return tier[rng.below(tier.size())];
}

TEST_P(CatchmentFibFuzz, MatchesLegacyAfterMutations) {
  FuzzTopology topo(GetParam());
  net::Rng rng(GetParam() * 31 + 7);
  const std::vector<Asn> terminals{topo.re_origin, topo.comm_origin};
  ReturnPathResolver legacy(topo.network, kPrefix, terminals);
  CatchmentFib fib(topo.network, kPrefix, terminals);
  fib.refresh();
  for (int step = 0; step < 6; ++step) {
    switch (rng.below(3)) {
      case 0:
        topo.network.set_origin_prepend(topo.re_origin, kPrefix,
                                        static_cast<std::uint32_t>(step % 4));
        break;
      case 1:
        topo.network.set_origin_prepend(topo.comm_origin, kPrefix,
                                        static_cast<std::uint32_t>(step % 3));
        break;
      default: {
        const Asn as = tier_sample(topo, rng);
        const bgp::Speaker* speaker = topo.network.speaker(as);
        if (!speaker->sessions().empty()) {
          const Asn peer = speaker->sessions().front().neighbor;
          if (step % 2 == 0) {
            topo.network.fail_session(as, peer, kPrefix);
          } else {
            topo.network.restore_session(as, peer, kPrefix);
          }
        }
        break;
      }
    }
    topo.network.run_to_convergence();
    EXPECT_TRUE(fib.refresh()) << "step " << step;
    for (const Asn as : topo.all()) {
      expect_equal(legacy.resolve(as), fib.resolve(as), as);
    }
  }
};

TEST_P(CatchmentFibFuzz, BatchMatchesSerialUnderPool) {
  // The prober pool's access pattern: pool workers call attribution()
  // concurrently on one refreshed, read-only table. Every answer must
  // equal the serial one (the TSan shard runs this).
  FuzzTopology topo(GetParam());
  const std::vector<Asn> terminals{topo.re_origin, topo.comm_origin};
  CatchmentFib fib(topo.network, kPrefix, terminals);
  fib.refresh();
  const std::vector<Asn> sources = topo.all();
  std::vector<CatchmentFib::Attribution> serial(sources.size());
  std::vector<CatchmentFib::Attribution> pooled(sources.size());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    serial[i] = fib.attribution(sources[i]);
  }
  runtime::ThreadPool pool(4);
  pool.parallel_for(sources.size(), [&](std::size_t i) {
    pooled[i] = fib.attribution(sources[i]);
  });
  for (std::size_t i = 0; i < sources.size(); ++i) {
    EXPECT_EQ(serial[i].reachable, pooled[i].reachable);
    EXPECT_EQ(serial[i].terminal, pooled[i].terminal);
    EXPECT_EQ(serial[i].used_default_route, pooled[i].used_default_route);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CatchmentFibFuzz,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

// ------------------------------------------------------- generated world

TEST(CatchmentFib, MatchesWalkerOnGeneratedWorldAcrossNineRounds) {
  // The §3.3 probing shape on a generated ecosystem: a measurement prefix
  // announced by two origins, nine prepend rounds, one refresh() per
  // round. After every round each AS's compiled attribution must equal
  // the walker's, and the epochs must have moved the table across rounds.
  topo::EcosystemParams params = topo::EcosystemParams{}.scaled(0.06);
  params.seed = 20250806;
  const topo::Ecosystem eco = topo::Ecosystem::generate(params);
  const topo::PrefixRecord* meas = nullptr;
  const topo::PrefixRecord* second = nullptr;
  for (const topo::PrefixRecord& rec : eco.prefixes()) {
    if (rec.covered) continue;
    if (meas == nullptr) {
      meas = &rec;
    } else if (rec.origin != meas->origin) {
      second = &rec;
      break;
    }
  }
  ASSERT_NE(meas, nullptr);
  ASSERT_NE(second, nullptr);

  bgp::BgpNetwork network(424243);
  eco.build_network(network);
  network.announce(meas->origin, meas->prefix);
  network.announce(second->origin, meas->prefix);
  network.run_to_convergence();

  const std::vector<Asn> terminals{meas->origin, second->origin};
  const ReturnPathResolver legacy(network, meas->prefix, terminals);
  CatchmentFib fib(network, meas->prefix, terminals);
  const std::vector<Asn> sources = eco.directory().all();
  // The paper's schedule: R&E prepends 4..0, then commodity prepends 1..4.
  const std::uint32_t schedule[9][2] = {{4, 0}, {3, 0}, {2, 0}, {1, 0}, {0, 0},
                                        {0, 1}, {0, 2}, {0, 3}, {0, 4}};
  for (int round = 0; round < 9; ++round) {
    network.set_origin_prepend(meas->origin, meas->prefix,
                               schedule[round][0]);
    network.set_origin_prepend(second->origin, meas->prefix,
                               schedule[round][1]);
    network.run_to_convergence();
    fib.refresh();
    for (const Asn as : sources) {
      const ReturnPath want = legacy.resolve(as);
      const CatchmentFib::Attribution attr = fib.attribution(as);
      EXPECT_EQ(attr.reachable, want.reachable)
          << "round " << round << " " << as.to_string();
      if (want.reachable) {
        EXPECT_EQ(attr.terminal, want.terminal)
            << "round " << round << " " << as.to_string();
      }
      EXPECT_EQ(attr.used_default_route, want.used_default_route)
          << "round " << round << " " << as.to_string();
    }
  }
  EXPECT_GT(fib.invalidations(), 0u);
}

// ------------------------------------------------------------- hop budget

TEST(CatchmentFib, HopBudgetMatchesLegacyOnLongChains) {
  // A 70-AS transit chain: ASes further than the walker's 64-hop budget
  // from the origin must be unreachable, with the walker's exact
  // truncated-flag accumulation. This exercises the depth >= kMaxHops
  // replay path of the compiled table, through both resolve() and
  // attribution() (which replays via walk_attribution).
  bgp::BgpNetwork network(1);
  const int kChain = 70;
  for (int i = 1; i < kChain; ++i) {
    network.connect_transit(Asn{static_cast<std::uint32_t>(100 + i)},
                            Asn{static_cast<std::uint32_t>(100 + i - 1)});
  }
  network.announce(Asn{100}, kPrefix);
  network.run_to_convergence();
  ReturnPathResolver legacy(network, kPrefix, {Asn{100}});
  CatchmentFib fib(network, kPrefix, {Asn{100}});
  fib.refresh();
  int unreachable = 0;
  for (int i = 0; i < kChain; ++i) {
    const Asn as{static_cast<std::uint32_t>(100 + i)};
    const ReturnPath want = legacy.resolve(as);
    expect_equal(want, fib.resolve(as), as);
    const CatchmentFib::Attribution attr = fib.attribution(as);
    EXPECT_EQ(attr.reachable, want.reachable) << as.to_string();
    EXPECT_EQ(attr.terminal, want.terminal) << as.to_string();
    EXPECT_EQ(attr.used_default_route, want.used_default_route)
        << as.to_string();
    unreachable += want.reachable ? 0 : 1;
  }
  EXPECT_GT(unreachable, 0);  // the budget actually bit
}

// ------------------------------------------------------- epoch semantics

struct EpochFixture {
  bgp::BgpNetwork network{3};
  EpochFixture() {
    network.connect_transit(Asn{10}, Asn{100}, /*re_edge=*/true);
    network.connect_transit(Asn{10}, Asn{42}, /*re_edge=*/true);
    network.connect_transit(Asn{200}, Asn{42}, /*re_edge=*/false);
    bgp::OriginationOptions re_only;
    re_only.re_only = true;
    network.announce(Asn{100}, kPrefix, re_only);
    network.announce(Asn{200}, kPrefix);
    network.run_to_convergence();
  }
};

TEST(CatchmentFib, RefreshIsNoOpWhileQuiet) {
  EpochFixture f;
  CatchmentFib fib(f.network, kPrefix, {Asn{100}, Asn{200}});
  EXPECT_FALSE(fib.compiled());
  EXPECT_TRUE(fib.refresh());  // first compile
  EXPECT_FALSE(fib.refresh());
  EXPECT_FALSE(fib.refresh());
  EXPECT_EQ(fib.compiles(), 1u);
  EXPECT_EQ(fib.invalidations(), 0u);
}

TEST(CatchmentFib, EveryMutationPathBumpsTheEpoch) {
  EpochFixture f;
  CatchmentFib fib(f.network, kPrefix, {Asn{100}, Asn{200}});
  fib.refresh();

  f.network.set_origin_prepend(Asn{100}, kPrefix, 2);
  f.network.run_to_convergence();
  EXPECT_TRUE(fib.refresh()) << "set_origin_prepend";

  f.network.fail_session(Asn{42}, Asn{10}, kPrefix);
  f.network.run_to_convergence();
  EXPECT_TRUE(fib.refresh()) << "fail_session";

  f.network.restore_session(Asn{42}, Asn{10}, kPrefix);
  f.network.run_to_convergence();
  EXPECT_TRUE(fib.refresh()) << "restore_session";

  f.network.withdraw(Asn{200}, kPrefix);
  f.network.run_to_convergence();
  EXPECT_TRUE(fib.refresh()) << "withdraw";

  f.network.announce(Asn{200}, kPrefix);
  f.network.run_to_convergence();
  EXPECT_TRUE(fib.refresh()) << "announce";

  EXPECT_FALSE(fib.refresh()) << "quiet again";
  EXPECT_EQ(fib.invalidations(), 5u);
  EXPECT_EQ(fib.compiles(), 6u);
}

TEST(CatchmentFib, MutationOfAnotherPrefixDoesNotInvalidate) {
  EpochFixture f;
  const Prefix other = *Prefix::parse("10.1.0.0/16");
  CatchmentFib fib(f.network, kPrefix, {Asn{100}, Asn{200}});
  fib.refresh();
  f.network.announce(Asn{200}, other);
  f.network.run_to_convergence();
  EXPECT_FALSE(fib.refresh());
}

TEST(CatchmentFib, SnapshotRestoreInvalidates) {
  EpochFixture f;
  const bgp::NetworkSnapshot snap = f.network.checkpoint();
  CatchmentFib fib(f.network, kPrefix, {Asn{100}, Asn{200}});
  fib.refresh();
  f.network.restore(snap);
  EXPECT_TRUE(fib.refresh()) << "restore must never alias a stale epoch";
  const ReturnPathResolver legacy(f.network, kPrefix, {Asn{100}, Asn{200}});
  expect_equal(legacy.resolve(Asn{42}), fib.resolve(Asn{42}), Asn{42});
}

TEST(CatchmentFib, InvalidateForcesRecompile) {
  EpochFixture f;
  CatchmentFib fib(f.network, kPrefix, {Asn{100}, Asn{200}});
  fib.refresh();
  fib.invalidate();
  EXPECT_TRUE(fib.refresh());
  EXPECT_EQ(fib.compiles(), 2u);
}

// ------------------------------------------------------ catchment classes

TEST(CatchmentFib, ClassifiesAllFourOutcomes) {
  FuzzTopology topo(3);
  const std::vector<Asn> terminals{topo.re_origin, topo.comm_origin};
  CatchmentFib fib(topo.network, kPrefix, terminals);
  fib.refresh();
  // extras[1]/[2] are the mutual-default loop; extras[3] the dead end;
  // extras[4] the tail into the loop; extras[5] the squatter.
  EXPECT_EQ(fib.catchment_class(topo.extras[1]), CatchmentClass::kLoop);
  EXPECT_EQ(fib.catchment_class(topo.extras[2]), CatchmentClass::kLoop);
  EXPECT_EQ(fib.catchment_class(topo.extras[3]), CatchmentClass::kBlackHole);
  EXPECT_EQ(fib.catchment_class(topo.extras[4]), CatchmentClass::kLoop);
  EXPECT_EQ(fib.catchment_class(topo.extras[5]), CatchmentClass::kBlackHole);
  EXPECT_EQ(fib.catchment_class(topo.re_origin), CatchmentClass::kTerminal);
  const CatchmentFib::Attribution stripped = fib.attribution(topo.extras[0]);
  EXPECT_TRUE(stripped.reachable);
  EXPECT_TRUE(stripped.used_default_route);
}

TEST(CatchmentFib, NextHopDrivesTtlWalks) {
  EpochFixture f;
  f.network.speaker(Asn{42})->import_policy().re_stance =
      bgp::ReStance::kPreferRe;
  f.network.run_to_convergence();
  CatchmentFib fib(f.network, kPrefix, {Asn{100}, Asn{200}});
  fib.refresh();
  EXPECT_EQ(fib.next_hop(Asn{42}), std::optional<Asn>(Asn{10}));
  EXPECT_EQ(fib.next_hop(Asn{10}), std::optional<Asn>(Asn{100}));
  EXPECT_EQ(fib.next_hop(Asn{9999999}), std::nullopt);
}

}  // namespace
}  // namespace re::dataplane
