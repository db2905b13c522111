// Unit tests for the per-AS BGP speaker: import processing, decision
// integration, export construction, and the re_only scope.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <vector>

#include "bgp/decision.h"
#include "bgp/speaker.h"
#include "netbase/rng.h"

namespace re::bgp {
namespace {

using net::Asn;
using net::Prefix;

const Prefix kPrefix = *Prefix::parse("163.253.63.0/24");

Session make_session(Asn neighbor, Relationship rel, bool re_edge,
                     std::uint32_t router_id = 0) {
  Session s;
  s.neighbor = neighbor;
  s.relationship = rel;
  s.re_edge = re_edge;
  s.router_id = router_id ? router_id : neighbor.value();
  return s;
}

// Updates carry PathIds, so announcements are interned into the receiving
// speaker's own table (standalone speakers each own one).
UpdateMessage announce(Speaker& s, const AsPath& path, bool re_only = false) {
  UpdateMessage m;
  m.prefix = kPrefix;
  m.path = s.paths().intern(path);
  m.re_only = re_only;
  return m;
}

UpdateMessage withdraw() {
  UpdateMessage m;
  m.prefix = kPrefix;
  m.withdraw = true;
  return m;
}

TEST(Speaker, InstallsRouteFromNeighbor) {
  Speaker s(Asn{42});
  s.add_session(make_session(Asn{1}, Relationship::kProvider, false));
  EXPECT_TRUE(s.receive(Asn{1}, announce(s, AsPath{Asn{1}, Asn{9}}), 0));
  const Route* best = s.best(kPrefix);
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->learned_from, Asn{1});
  EXPECT_EQ(s.paths().origin(best->path), Asn{9});
}

TEST(Speaker, IgnoresUpdatesFromUnknownNeighbor) {
  Speaker s(Asn{42});
  EXPECT_FALSE(s.receive(Asn{1}, announce(s, AsPath{Asn{1}}), 0));
  EXPECT_EQ(s.best(kPrefix), nullptr);
}

TEST(Speaker, DropsLoopedPaths) {
  Speaker s(Asn{42});
  s.add_session(make_session(Asn{1}, Relationship::kProvider, false));
  EXPECT_FALSE(s.receive(Asn{1}, announce(s, AsPath{Asn{1}, Asn{42}, Asn{9}}), 0));
  EXPECT_EQ(s.best(kPrefix), nullptr);
}

TEST(Speaker, WithdrawRemovesRoute) {
  Speaker s(Asn{42});
  s.add_session(make_session(Asn{1}, Relationship::kProvider, false));
  s.receive(Asn{1}, announce(s, AsPath{Asn{1}}), 0);
  EXPECT_TRUE(s.receive(Asn{1}, withdraw(), 1));
  EXPECT_EQ(s.best(kPrefix), nullptr);
  // Withdrawing again is a no-op.
  EXPECT_FALSE(s.receive(Asn{1}, withdraw(), 2));
}

TEST(Speaker, DuplicateAnnouncementPreservesRouteAge) {
  Speaker s(Asn{42});
  s.add_session(make_session(Asn{1}, Relationship::kProvider, false));
  s.receive(Asn{1}, announce(s, AsPath{Asn{1}, Asn{9}}), 100);
  EXPECT_FALSE(s.receive(Asn{1}, announce(s, AsPath{Asn{1}, Asn{9}}), 900));
  EXPECT_EQ(s.best(kPrefix)->established_at, 100);
}

TEST(Speaker, AttributeChangeResetsRouteAge) {
  Speaker s(Asn{42});
  s.add_session(make_session(Asn{1}, Relationship::kProvider, false));
  s.receive(Asn{1}, announce(s, AsPath{Asn{1}, Asn{9}}), 100);
  // A prepend change is an attribute change.
  EXPECT_TRUE(s.receive(Asn{1}, announce(s, AsPath{Asn{1}, Asn{9}, Asn{9}}), 900));
  EXPECT_EQ(s.best(kPrefix)->established_at, 900);
}

TEST(Speaker, PicksHigherLocalPrefNeighbor) {
  Speaker s(Asn{42});
  s.import_policy().re_stance = ReStance::kPreferRe;
  s.add_session(make_session(Asn{1}, Relationship::kProvider, true));   // R&E
  s.add_session(make_session(Asn{2}, Relationship::kProvider, false));  // comm.
  s.receive(Asn{2}, announce(s, AsPath{Asn{2}, Asn{9}}), 0);
  s.receive(Asn{1}, announce(s, AsPath{Asn{1}, Asn{7}, Asn{8}, Asn{9}}), 0);
  // R&E wins despite the longer path.
  EXPECT_EQ(s.best(kPrefix)->learned_from, Asn{1});
  EXPECT_EQ(s.best_decided_by(kPrefix), DecisionStep::kLocalPref);
}

TEST(Speaker, EqualPrefFallsToPathLength) {
  Speaker s(Asn{42});
  s.import_policy().re_stance = ReStance::kEqualPref;
  s.add_session(make_session(Asn{1}, Relationship::kProvider, true));
  s.add_session(make_session(Asn{2}, Relationship::kProvider, false));
  s.receive(Asn{1}, announce(s, AsPath{Asn{1}, Asn{7}, Asn{9}}), 0);
  s.receive(Asn{2}, announce(s, AsPath{Asn{2}, Asn{9}}), 0);
  EXPECT_EQ(s.best(kPrefix)->learned_from, Asn{2});
  EXPECT_EQ(s.best_decided_by(kPrefix), DecisionStep::kAsPathLength);
}

TEST(Speaker, RejectReRoutesLeavesOnlyCommodity) {
  Speaker s(Asn{42});
  s.import_policy().reject_re_routes = true;
  s.add_session(make_session(Asn{1}, Relationship::kProvider, true));
  s.add_session(make_session(Asn{2}, Relationship::kProvider, false));
  EXPECT_FALSE(s.receive(Asn{1}, announce(s, AsPath{Asn{1}, Asn{9}}), 0));
  EXPECT_TRUE(s.receive(Asn{2}, announce(s, AsPath{Asn{2}, Asn{8}, Asn{9}}), 0));
  EXPECT_EQ(s.best(kPrefix)->learned_from, Asn{2});
}

TEST(Speaker, LocalOriginationBeatsLearnedRoutes) {
  Speaker s(Asn{42});
  s.add_session(make_session(Asn{1}, Relationship::kProvider, false));
  s.receive(Asn{1}, announce(s, AsPath{Asn{1}, Asn{9}}), 0);
  EXPECT_TRUE(s.originate(kPrefix, 1));
  const Route* best = s.best(kPrefix);
  ASSERT_NE(best, nullptr);
  EXPECT_FALSE(best->learned_from.valid());
  EXPECT_TRUE(s.originates(kPrefix));
  EXPECT_TRUE(s.withdraw_origination(kPrefix, 2));
  EXPECT_EQ(s.best(kPrefix)->learned_from, Asn{1});
}

TEST(Speaker, ExportPrependsOwnAsn) {
  Speaker s(Asn{42});
  s.add_session(make_session(Asn{1}, Relationship::kProvider, false));
  s.add_session(make_session(Asn{2}, Relationship::kCustomer, false));
  s.receive(Asn{1}, announce(s, AsPath{Asn{1}, Asn{9}}), 0);
  const Session* to = s.session_to(Asn{2});
  const auto msg = s.export_probe(kPrefix).announcement(*to);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(s.paths().to_string(msg->path), "42 1 9");
}

TEST(Speaker, ExportAppliesConfiguredPrepends) {
  Speaker s(Asn{42});
  s.export_policy().default_prepend = 2;
  s.add_session(make_session(Asn{2}, Relationship::kCustomer, false));
  s.originate(kPrefix, 0);
  const auto msg =
      s.export_probe(kPrefix).announcement(*s.session_to(Asn{2}));
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(s.paths().to_string(msg->path), "42 42 42");
}

TEST(Speaker, SplitHorizonNeverEchoesBack) {
  Speaker s(Asn{42});
  s.add_session(make_session(Asn{1}, Relationship::kCustomer, false));
  s.receive(Asn{1}, announce(s, AsPath{Asn{1}, Asn{9}}), 0);
  EXPECT_FALSE(s.export_probe(kPrefix).announcement(*s.session_to(Asn{1})));
}

TEST(Speaker, GaoRexfordExportThroughSpeaker) {
  Speaker s(Asn{42});
  s.add_session(make_session(Asn{1}, Relationship::kProvider, false));
  s.add_session(make_session(Asn{2}, Relationship::kPeer, false));
  s.add_session(make_session(Asn{3}, Relationship::kCustomer, false));
  // Provider-learned route: only the customer may hear it.
  s.receive(Asn{1}, announce(s, AsPath{Asn{1}, Asn{9}}), 0);
  EXPECT_FALSE(s.export_probe(kPrefix).announcement(*s.session_to(Asn{2})));
  EXPECT_TRUE(s.export_probe(kPrefix).announcement(*s.session_to(Asn{3})));
}

TEST(Speaker, ReOnlyRoutesStayOnReFabric) {
  Speaker s(Asn{42});
  s.add_session(make_session(Asn{1}, Relationship::kCustomer, true));
  s.add_session(make_session(Asn{2}, Relationship::kCustomer, false));
  s.add_session(make_session(Asn{3}, Relationship::kCustomer, true));
  s.receive(Asn{1}, announce(s, AsPath{Asn{1}, Asn{9}}, /*re_only=*/true), 0);
  EXPECT_FALSE(s.export_probe(kPrefix).announcement(*s.session_to(Asn{2})));
  const auto re_export =
      s.export_probe(kPrefix).announcement(*s.session_to(Asn{3}));
  ASSERT_TRUE(re_export.has_value());
  EXPECT_TRUE(re_export->re_only);
}

TEST(Speaker, OriginationScopingToReOnlySessions) {
  Speaker s(Asn{42});
  s.add_session(make_session(Asn{1}, Relationship::kProvider, true));
  s.add_session(make_session(Asn{2}, Relationship::kProvider, false));
  OriginationOptions options;
  options.to_commodity_sessions = false;
  s.originate(kPrefix, 0, options);
  EXPECT_TRUE(s.export_probe(kPrefix).announcement(*s.session_to(Asn{1})));
  EXPECT_FALSE(s.export_probe(kPrefix).announcement(*s.session_to(Asn{2})));
}

TEST(Speaker, ExportPathBlockFilters) {
  Speaker s(Asn{42});
  s.add_session(make_session(Asn{1}, Relationship::kPeer, true));
  s.add_session(make_session(Asn{3}, Relationship::kCustomer, true));
  s.set_re_transit_between_peers(true);
  s.export_policy().neighbor_path_block[Asn{3}] = {Asn{11537}};
  s.receive(Asn{1}, announce(s, AsPath{Asn{1}, Asn{11537}}), 0);
  EXPECT_FALSE(s.export_probe(kPrefix).announcement(*s.session_to(Asn{3})));
}

TEST(Speaker, BestCommodityIgnoresReRoutes) {
  Speaker s(Asn{42});
  s.import_policy().re_stance = ReStance::kPreferRe;
  s.add_session(make_session(Asn{1}, Relationship::kProvider, true));
  s.add_session(make_session(Asn{2}, Relationship::kProvider, false));
  s.receive(Asn{1}, announce(s, AsPath{Asn{1}, Asn{9}}), 0);
  s.receive(Asn{2}, announce(s, AsPath{Asn{2}, Asn{8}, Asn{9}}), 0);
  EXPECT_EQ(s.best(kPrefix)->learned_from, Asn{1});
  const Route* commodity = s.best_commodity(kPrefix);
  ASSERT_NE(commodity, nullptr);
  EXPECT_EQ(commodity->learned_from, Asn{2});
}

TEST(Speaker, BestCommodityNullWhenOnlyReRoutes) {
  Speaker s(Asn{42});
  s.add_session(make_session(Asn{1}, Relationship::kProvider, true));
  s.receive(Asn{1}, announce(s, AsPath{Asn{1}, Asn{9}}), 0);
  EXPECT_EQ(s.best_commodity(kPrefix), nullptr);
}

TEST(Speaker, CandidatesSortedAndComplete) {
  Speaker s(Asn{42});
  s.add_session(make_session(Asn{5}, Relationship::kProvider, false));
  s.add_session(make_session(Asn{3}, Relationship::kProvider, false));
  s.receive(Asn{5}, announce(s, AsPath{Asn{5}, Asn{9}}), 0);
  s.receive(Asn{3}, announce(s, AsPath{Asn{3}, Asn{9}}), 0);
  const auto candidates = s.candidates(kPrefix);
  ASSERT_EQ(candidates.size(), 2u);
  EXPECT_EQ(candidates[0].learned_from, Asn{3});
  EXPECT_EQ(candidates[1].learned_from, Asn{5});
}

TEST(Speaker, DampingSuppressesFlappingNeighbor) {
  Speaker s(Asn{42});
  s.damping().enabled = true;
  s.add_session(make_session(Asn{1}, Relationship::kProvider, false));
  s.add_session(make_session(Asn{2}, Relationship::kProvider, false));
  // Stable alternative with a longer path.
  s.receive(Asn{2}, announce(s, AsPath{Asn{2}, Asn{8}, Asn{9}}), 0);
  // Flap the short route repeatedly.
  net::SimTime t = 0;
  for (int i = 0; i < 4; ++i) {
    s.receive(Asn{1}, announce(s, AsPath{Asn{1}, Asn{9}}), t);
    t += 10;
    s.receive(Asn{1}, withdraw(), t);
    t += 10;
  }
  s.receive(Asn{1}, announce(s, AsPath{Asn{1}, Asn{9}}), t);
  // The flapping route is suppressed; the stable one wins.
  EXPECT_EQ(s.best(kPrefix)->learned_from, Asn{2});
  // After the penalty decays, the next decision run restores the shorter
  // route; a changed update from the stable neighbor triggers one.
  EXPECT_TRUE(s.receive(Asn{2}, announce(s, AsPath{Asn{2}, Asn{7}, Asn{9}}),
                        t + 3 * net::kHour));
  EXPECT_EQ(s.best(kPrefix)->learned_from, Asn{1});
}

// Feeds a speaker with twelve sessions a seeded mix of announces,
// withdraws and implicit withdraws (a looped path, an import reject),
// checking after every step that the Adj-RIB-In is strictly ascending by
// neighbor and that the speaker's decision equals select_best over it,
// less the routes damping suppresses. Damping is modelled independently:
// one DampingState per neighbor, charged from what the candidate set
// shows changed, and asked about suppression exactly when the speaker
// runs its decision (a lapsed suppression is cleared lazily, on ask).
// Returns how many decisions excluded a suppressed route.
int check_random_adj_rib_in(bool damping, std::uint64_t seed) {
  Speaker s(Asn{42});
  s.damping().enabled = damping;
  s.decision().use_route_age = true;
  const std::vector<Asn> neighbors = {Asn{907}, Asn{13},  Asn{455}, Asn{71},
                                      Asn{2},   Asn{650}, Asn{38},  Asn{120},
                                      Asn{4},   Asn{811}, Asn{64},  Asn{300}};
  net::Rng rng(seed);
  for (const Asn neighbor : neighbors) {  // added out of ASN order
    const auto rel = static_cast<Relationship>(rng.below(3));
    const auto router_id = static_cast<std::uint32_t>(rng.below(5) + 1);
    Session session = make_session(neighbor, rel, rng.chance(0.5), router_id);
    session.igp_cost = static_cast<std::uint32_t>(rng.below(3));
    s.add_session(session);
  }

  std::map<Asn, DampingState> model;
  std::optional<Route> expected;
  DecisionStep expected_step = DecisionStep::kOnlyRoute;
  int suppressed_decisions = 0;
  net::SimTime now = 0;
  const auto find = [](const std::vector<Route>& routes, Asn neighbor) {
    const Route* found = nullptr;
    for (const Route& route : routes) {
      if (route.learned_from == neighbor) found = &route;
    }
    return found;
  };

  for (int step = 0; step < 600; ++step) {
    now += rng.between(1, 90);
    const Asn neighbor = neighbors[rng.below(neighbors.size())];
    const std::vector<Route> before = s.candidates(kPrefix);
    const Route* prior = find(before, neighbor);
    const std::uint64_t kind = rng.below(8);
    bool explicit_withdraw = false;
    if (kind < 2) {
      s.receive(neighbor, withdraw(), now);
      explicit_withdraw = true;
    } else {
      std::vector<Asn> path = {neighbor};
      const std::uint64_t hops = rng.below(3);
      for (std::uint64_t h = 0; h < hops; ++h) {
        path.push_back(Asn{static_cast<std::uint32_t>(100 + rng.below(4))});
      }
      if (kind == 2) path.push_back(Asn{42});  // loop: implicit withdraw
      UpdateMessage update = announce(s, AsPath(std::move(path)));
      update.med = static_cast<std::uint32_t>(rng.below(2));
      update.origin = static_cast<Origin>(rng.below(2));
      if (kind == 3) s.import_policy().reject_neighbors = {neighbor};
      s.receive(neighbor, update, now);
      s.import_policy().reject_neighbors.clear();
    }

    const std::vector<Route> after = s.candidates(kPrefix);
    for (std::size_t i = 1; i < after.size(); ++i) {
      EXPECT_LT(after[i - 1].learned_from, after[i].learned_from)
          << "step " << step;
    }
    const Route* posterior = find(after, neighbor);
    const bool replaced = posterior != nullptr &&
                          posterior->established_at == now;
    // The speaker decides whenever the neighbor's route came, went or
    // changed; a duplicate announcement or a withdrawal of nothing is a
    // no-op.
    const bool decided = (prior == nullptr) != (posterior == nullptr) ||
                         replaced;
    if (damping && prior != nullptr) {
      if (explicit_withdraw) {
        model[neighbor].record(s.damping().withdraw_penalty, now, s.damping());
      } else if (replaced) {
        model[neighbor].record(s.damping().attribute_change_penalty, now,
                               s.damping());
      }
    }
    if (decided) {
      std::vector<Route> eligible;
      for (const Route& route : after) {
        const auto it = model.find(route.learned_from);
        if (it != model.end() && it->second.suppressed(now, s.damping())) {
          ++suppressed_decisions;
          continue;
        }
        eligible.push_back(route);
      }
      expected.reset();
      expected_step = DecisionStep::kOnlyRoute;
      if (!eligible.empty()) {
        const DecisionResult result = select_best(eligible, s.decision());
        expected = eligible[result.best_index];
        expected_step = result.decided_by;
      }
    }

    const Route* best = s.best(kPrefix);
    EXPECT_EQ(best != nullptr, expected.has_value()) << "step " << step;
    if (best != nullptr && expected.has_value()) {
      EXPECT_EQ(best->learned_from, expected->learned_from) << "step " << step;
      EXPECT_EQ(best->path, expected->path) << "step " << step;
      EXPECT_EQ(best->established_at, expected->established_at)
          << "step " << step;
    }
    EXPECT_EQ(s.best_decided_by(kPrefix), expected_step) << "step " << step;
  }
  return suppressed_decisions;
}

TEST(Speaker, AdjRibInStaysSortedAndDecidesInPlace) {
  EXPECT_EQ(check_random_adj_rib_in(/*damping=*/false, 7), 0);
}

TEST(Speaker, AdjRibInStaysSortedAndDecidesWithDamping) {
  // The seeded flaps must actually suppress routes, or the damped path
  // was never exercised.
  EXPECT_GT(check_random_adj_rib_in(/*damping=*/true, 7), 0);
}

TEST(Speaker, ClearPrefixForgetsEverything) {
  Speaker s(Asn{42});
  s.add_session(make_session(Asn{1}, Relationship::kProvider, false));
  s.receive(Asn{1}, announce(s, AsPath{Asn{1}, Asn{9}}), 0);
  s.clear_prefix(kPrefix);
  EXPECT_EQ(s.best(kPrefix), nullptr);
  EXPECT_TRUE(s.known_prefixes().empty());
}

TEST(Speaker, DefaultRouteSessionLookup) {
  Speaker s(Asn{42});
  s.add_session(make_session(Asn{1}, Relationship::kProvider, false));
  EXPECT_EQ(s.default_route_session(), nullptr);
  s.set_session_default_route(Asn{1});
  ASSERT_NE(s.default_route_session(), nullptr);
  EXPECT_EQ(s.default_route_session()->neighbor, Asn{1});
}

}  // namespace
}  // namespace re::bgp
