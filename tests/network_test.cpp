// Tests for BgpNetwork: propagation, convergence, prepend changes,
// failures, collectors, and determinism.
#include <gtest/gtest.h>

#include "bgp/network.h"
#include "topology/ecosystem.h"

namespace re::bgp {
namespace {

using net::Asn;
using net::Prefix;

const Prefix kPrefix = *Prefix::parse("163.253.63.0/24");

// A small line topology: origin(1) <- transit(2) <- edge(3), with a second
// path origin(1) <- transit(4) <- edge(3).
struct DiamondFixture {
  BgpNetwork network{1};
  DiamondFixture() {
    network.connect_transit(Asn{2}, Asn{1});  // 2 provides transit to 1
    network.connect_transit(Asn{4}, Asn{1});
    network.connect_transit(Asn{2}, Asn{3});
    network.connect_transit(Asn{4}, Asn{3});
  }
};

TEST(BgpNetwork, PropagatesAnnouncementToAll) {
  DiamondFixture f;
  f.network.announce(Asn{1}, kPrefix);
  const ConvergenceStats stats = f.network.run_to_convergence();
  EXPECT_GT(stats.messages_delivered, 0u);
  for (const Asn asn : {Asn{2}, Asn{3}, Asn{4}}) {
    EXPECT_NE(f.network.speaker(asn)->best(kPrefix), nullptr)
        << asn.to_string();
  }
  // Edge AS 3 has a two-hop path through one of its providers.
  EXPECT_EQ(f.network.speaker(Asn{3})->best(kPrefix)->path_length, 2u);
}

TEST(BgpNetwork, WithdrawRemovesEverywhere) {
  DiamondFixture f;
  f.network.announce(Asn{1}, kPrefix);
  f.network.run_to_convergence();
  f.network.withdraw(Asn{1}, kPrefix);
  f.network.run_to_convergence();
  for (const Asn asn : {Asn{2}, Asn{3}, Asn{4}}) {
    EXPECT_EQ(f.network.speaker(asn)->best(kPrefix), nullptr)
        << asn.to_string();
  }
}

TEST(BgpNetwork, ValleyFreePropagation) {
  // peer1 -- origin's provider chain: a peer of a transit must not hear
  // provider-learned routes.
  BgpNetwork network(1);
  network.connect_transit(Asn{10}, Asn{1});   // 10 provides to origin 1
  network.connect_transit(Asn{20}, Asn{10});  // 20 provides to 10
  network.connect_peering(Asn{20}, Asn{30});  // 20 peers 30
  network.connect_peering(Asn{30}, Asn{40});  // 30 peers 40
  network.announce(Asn{1}, kPrefix);
  network.run_to_convergence();
  // 30 hears it (customer route of 20 exported to peer).
  EXPECT_NE(network.speaker(Asn{30})->best(kPrefix), nullptr);
  // 40 must NOT hear it from 30 (peer route to a peer = valley).
  EXPECT_EQ(network.speaker(Asn{40})->best(kPrefix), nullptr);
}

TEST(BgpNetwork, PrependChangePropagates) {
  DiamondFixture f;
  f.network.announce(Asn{1}, kPrefix);
  f.network.run_to_convergence();
  const std::size_t before =
      f.network.speaker(Asn{3})->best(kPrefix)->path_length;
  f.network.set_origin_prepend(Asn{1}, kPrefix, 3);
  f.network.run_to_convergence();
  const std::size_t after =
      f.network.speaker(Asn{3})->best(kPrefix)->path_length;
  EXPECT_EQ(after, before + 3);
}

TEST(BgpNetwork, PrependChangeIsIdempotent) {
  DiamondFixture f;
  f.network.announce(Asn{1}, kPrefix);
  f.network.run_to_convergence();
  f.network.set_origin_prepend(Asn{1}, kPrefix, 2);
  f.network.run_to_convergence();
  // Re-applying the same prepend level generates no new messages.
  f.network.set_origin_prepend(Asn{1}, kPrefix, 2);
  EXPECT_TRUE(f.network.converged());
}

TEST(BgpNetwork, EqualPrefEdgeSwitchesWithPrepends) {
  // The paper's core mechanism at network scale: an equal-localpref edge
  // flips between two providers as prepends change relative path lengths.
  BgpNetwork network(7);
  // R&E side: origin 100 -> chain 101 -> edge; commodity: origin 200 -> edge.
  network.connect_transit(Asn{101}, Asn{100}, /*re_edge=*/true);
  network.connect_transit(Asn{101}, Asn{42}, /*re_edge=*/true);
  network.connect_transit(Asn{200}, Asn{42}, /*re_edge=*/false);
  Speaker* edge = network.speaker(Asn{42});
  edge->import_policy().re_stance = ReStance::kEqualPref;

  network.speaker(Asn{100})->export_policy().default_prepend = 4;
  bgp::OriginationOptions re_only;
  re_only.re_only = true;
  network.announce(Asn{100}, kPrefix, re_only);
  network.announce(Asn{200}, kPrefix);
  network.run_to_convergence();
  // R&E path [101, 100x5] = 6 vs commodity [200] = 1: commodity wins.
  EXPECT_FALSE(edge->best(kPrefix)->re_edge);

  network.set_origin_prepend(Asn{100}, kPrefix, 0);
  network.set_origin_prepend(Asn{200}, kPrefix, 4);
  network.run_to_convergence();
  // R&E [101, 100] = 2 vs commodity [200x5] = 5: R&E wins.
  EXPECT_TRUE(edge->best(kPrefix)->re_edge);
}

TEST(BgpNetwork, FailAndRestoreSession) {
  DiamondFixture f;
  f.network.announce(Asn{1}, kPrefix);
  f.network.run_to_convergence();
  Speaker* edge = f.network.speaker(Asn{3});
  const Asn used = edge->best(kPrefix)->learned_from;
  const Asn other = used == Asn{2} ? Asn{4} : Asn{2};

  f.network.fail_session(Asn{3}, used, kPrefix);
  f.network.run_to_convergence();
  ASSERT_NE(edge->best(kPrefix), nullptr);
  EXPECT_EQ(edge->best(kPrefix)->learned_from, other);

  f.network.restore_session(Asn{3}, used, kPrefix);
  f.network.run_to_convergence();
  EXPECT_EQ(edge->best(kPrefix)->learned_from, used);
}

TEST(BgpNetwork, FailedSessionDropsInFlightMessages) {
  // The failure must sever the session immediately: an announcement queued
  // on the edge before the failure never reaches the far end.
  BgpNetwork network(1);
  network.connect_transit(Asn{2}, Asn{1});
  network.announce(Asn{1}, kPrefix);  // update to 2 now in flight
  network.fail_session(Asn{2}, Asn{1}, kPrefix);
  network.run_to_convergence();
  EXPECT_EQ(network.speaker(Asn{2})->best(kPrefix), nullptr);

  // The session stays down for later export runs too: re-announcing while
  // failed must not leak across.
  network.withdraw(Asn{1}, kPrefix);
  network.run_to_convergence();
  network.announce(Asn{1}, kPrefix);
  network.run_to_convergence();
  EXPECT_EQ(network.speaker(Asn{2})->best(kPrefix), nullptr);

  network.restore_session(Asn{2}, Asn{1}, kPrefix);
  network.run_to_convergence();
  EXPECT_NE(network.speaker(Asn{2})->best(kPrefix), nullptr);
}

TEST(BgpNetwork, NoUpdateCrossesFailedSession) {
  DiamondFixture f;
  f.network.announce(Asn{1}, kPrefix);
  f.network.run_to_convergence();
  Speaker* edge = f.network.speaker(Asn{3});
  const Asn used = edge->best(kPrefix)->learned_from;
  const Asn other = used == Asn{2} ? Asn{4} : Asn{2};

  f.network.fail_session(Asn{3}, used, kPrefix);
  f.network.run_to_convergence();

  // A routing change upstream triggers fresh exports everywhere; none may
  // cross the failed edge, so AS 3 keeps exactly one candidate.
  f.network.set_origin_prepend(Asn{1}, kPrefix, 2);
  f.network.run_to_convergence();
  const std::vector<Route> candidates = edge->candidates(kPrefix);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates.front().learned_from, other);
}

TEST(BgpNetwork, CollectorRecordsAnnounceAndWithdraw) {
  DiamondFixture f;
  f.network.add_collector_peer(Asn{3});
  f.network.announce(Asn{1}, kPrefix);
  f.network.run_to_convergence();
  f.network.withdraw(Asn{1}, kPrefix);
  f.network.run_to_convergence();

  const auto& updates = f.network.update_log().updates();
  ASSERT_GE(updates.size(), 2u);
  EXPECT_FALSE(updates.front().withdraw);
  EXPECT_EQ(updates.front().peer, Asn{3});
  // Collector paths include the peer's own ASN.
  EXPECT_EQ(f.network.update_log().path_span(updates.front()).front(), Asn{3});
  EXPECT_EQ(f.network.update_log().path_span(updates.front()).back(), Asn{1});
  EXPECT_TRUE(updates.back().withdraw);
}

TEST(BgpNetwork, VrfSplitPeerFeedsCommodityView) {
  // Peer prefers its R&E route but exports the commodity VRF (§4.1.1).
  BgpNetwork network(3);
  network.connect_transit(Asn{101}, Asn{100}, /*re_edge=*/true);  // R&E origin
  network.connect_transit(Asn{101}, Asn{42}, /*re_edge=*/true);
  network.connect_transit(Asn{201}, Asn{200});                 // commodity origin
  network.connect_transit(Asn{201}, Asn{42});
  Speaker* edge = network.speaker(Asn{42});
  edge->import_policy().re_stance = ReStance::kPreferRe;
  edge->set_vrf_split_export(true);
  network.add_collector_peer(Asn{42});

  network.announce(Asn{200}, kPrefix);
  network.run_to_convergence();
  bgp::OriginationOptions re_only;
  re_only.re_only = true;
  network.announce(Asn{100}, kPrefix, re_only);
  network.run_to_convergence();

  // Edge forwards via R&E...
  EXPECT_TRUE(edge->best(kPrefix)->re_edge);
  // ...but the collector last saw the commodity origin.
  const auto rib = network.update_log().rib_at(kPrefix, network.clock().now());
  ASSERT_TRUE(rib.count(Asn{42}));
  EXPECT_EQ(rib.at(Asn{42}).origin(), Asn{200});
}

TEST(BgpNetwork, ReOnlyAnnouncementInvisibleToCommodity) {
  BgpNetwork network(5);
  network.connect_transit(Asn{10}, Asn{1}, /*re_edge=*/true);
  network.connect_transit(Asn{10}, Asn{2}, /*re_edge=*/true);
  network.connect_transit(Asn{20}, Asn{10}, /*re_edge=*/false);  // commodity provider
  bgp::OriginationOptions re_only;
  re_only.re_only = true;
  network.announce(Asn{1}, kPrefix, re_only);
  network.run_to_convergence();
  EXPECT_NE(network.speaker(Asn{2})->best(kPrefix), nullptr);
  EXPECT_EQ(network.speaker(Asn{20})->best(kPrefix), nullptr);
}

TEST(BgpNetwork, DeterministicForSeed) {
  auto run = [](std::uint64_t seed) {
    BgpNetwork network(seed);
    network.connect_transit(Asn{2}, Asn{1});
    network.connect_transit(Asn{4}, Asn{1});
    network.connect_transit(Asn{2}, Asn{3});
    network.connect_transit(Asn{4}, Asn{3});
    network.add_collector_peer(Asn{3});
    network.announce(Asn{1}, kPrefix);
    network.run_to_convergence();
    std::string log;
    for (const auto& u : network.update_log().updates()) {
      log += std::to_string(u.time) + ":" +
             network.update_log().paths().to_string(u.path) + ";";
    }
    return log;
  };
  EXPECT_EQ(run(77), run(77));
}

TEST(BgpNetwork, ClearPrefixDropsAllState) {
  DiamondFixture f;
  f.network.announce(Asn{1}, kPrefix);
  f.network.run_to_convergence();
  f.network.clear_prefix(kPrefix);
  for (const Asn asn : {Asn{1}, Asn{2}, Asn{3}, Asn{4}}) {
    EXPECT_EQ(f.network.speaker(asn)->best(kPrefix), nullptr);
  }
  // A fresh announcement works normally afterwards.
  f.network.announce(Asn{1}, kPrefix);
  f.network.run_to_convergence();
  EXPECT_NE(f.network.speaker(Asn{3})->best(kPrefix), nullptr);
}

TEST(BgpNetwork, ConvergenceClockAdvances) {
  DiamondFixture f;
  const net::SimTime before = f.network.clock().now();
  f.network.announce(Asn{1}, kPrefix);
  const ConvergenceStats stats = f.network.run_to_convergence();
  EXPECT_GT(stats.converged_at, before);
  EXPECT_TRUE(f.network.converged());
}

TEST(BgpNetwork, AddSpeakerIdempotent) {
  BgpNetwork network(1);
  Speaker& a = network.add_speaker(Asn{5});
  Speaker& b = network.add_speaker(Asn{5});
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(network.speaker_count(), 1u);
}

TEST(BgpNetwork, ProbeLengthsStayHealthy) {
  // Pre-sized topology maps must keep the open-addressing tables healthy:
  // a probe-length regression here means a hash or reservation change
  // broke clustering.
  topo::EcosystemParams params = topo::EcosystemParams{}.scaled(0.06);
  params.seed = 20250806;
  const topo::Ecosystem eco = topo::Ecosystem::generate(params);
  BgpNetwork network(424243);
  eco.build_network(network);
  std::size_t swept = 0;
  for (const topo::PrefixRecord& rec : eco.prefixes()) {
    if (swept == 4) break;
    if (rec.covered) continue;
    ++swept;
    network.announce(rec.origin, rec.prefix);
    network.run_to_convergence();
    network.set_origin_prepend(rec.origin, rec.prefix, 2);
    network.run_to_convergence();
    network.withdraw(rec.origin, rec.prefix);
    network.run_to_convergence();
    network.clear_prefix(rec.prefix);
  }
  const auto stats = network.map_probe_stats();
  ASSERT_GT(stats.lookups, 0u);
  const double avg_probe_length = static_cast<double>(stats.probes) /
                                  static_cast<double>(stats.lookups);
  EXPECT_GE(avg_probe_length, 1.0);
  EXPECT_LT(avg_probe_length, 2.0);
}

TEST(BgpNetwork, MapProbeLengthsStayNearOneOverAnExperiment) {
  // The experiment's own flow on the scale-0.1 world: the commodity and
  // R&E baselines, then nine scoped prepend rounds. Nearly every
  // collector-set lookup is a miss, which is where a loaded table hurts.
  topo::EcosystemParams params = topo::EcosystemParams{}.scaled(0.1);
  params.seed = 20250529;
  const topo::Ecosystem eco = topo::Ecosystem::generate(params);
  const topo::MeasurementEndpoints& m = eco.measurement();
  BgpNetwork network(99 ^ 0x5eedULL);
  eco.build_network(network);
  network.announce(m.commodity_origin, m.prefix);
  network.run_to_convergence();
  network.speaker(m.internet2_re_origin)->export_policy().default_prepend = 4;
  OriginationOptions re_only;
  re_only.re_only = true;
  network.announce(m.internet2_re_origin, m.prefix, re_only);
  network.run_to_convergence();
  constexpr std::uint32_t kRe[9] = {4, 3, 2, 1, 0, 0, 0, 0, 0};
  constexpr std::uint32_t kComm[9] = {0, 0, 0, 0, 0, 1, 2, 3, 4};
  for (int round = 1; round < 9; ++round) {
    network.set_origin_prepend(m.internet2_re_origin, m.prefix, kRe[round]);
    network.set_origin_prepend(m.commodity_origin, m.prefix, kComm[round]);
    network.run_dirty_to_convergence();
  }
  const auto stats = network.map_probe_stats();
  ASSERT_GT(stats.lookups, 0u);
  EXPECT_LT(static_cast<double>(stats.probes) /
                static_cast<double>(stats.lookups),
            1.5);
}

}  // namespace
}  // namespace re::bgp
