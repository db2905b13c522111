// Unit and property tests for the BGP decision process.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <span>
#include <vector>

#include "bgp/decision.h"
#include "bgp/path_table.h"
#include "check/reference_decision.h"
#include "netbase/rng.h"

namespace re::bgp {
namespace {

using net::Asn;

Route make_route(std::uint32_t local_pref, std::size_t path_len,
                 Asn neighbor = Asn{100}) {
  // One table for the whole test binary: decision inputs only need the
  // cached path_length/path_first, which set_path fills from the table.
  static PathTable table;
  Route r;
  r.local_pref = local_pref;
  std::vector<Asn> asns;
  asns.push_back(neighbor);
  for (std::size_t i = 1; i < path_len; ++i) {
    asns.push_back(Asn{static_cast<std::uint32_t>(1000 + i)});
  }
  r.set_path(table, table.intern(std::span<const Asn>(asns)));
  r.learned_from = neighbor;
  r.neighbor_router_id = neighbor.value();
  return r;
}

TEST(Decision, LocalPrefDominatesPathLength) {
  // Figure 1: a higher localpref makes selection insensitive to AS path
  // length — the paper's central mechanism.
  const Route re = make_route(120, 9, Asn{1});
  const Route commodity = make_route(100, 2, Asn{2});
  DecisionConfig config;
  EXPECT_TRUE(better_route(re, commodity, config));
  EXPECT_FALSE(better_route(commodity, re, config));
}

TEST(Decision, PathLengthBreaksEqualLocalPref) {
  const Route shorter = make_route(100, 2, Asn{1});
  const Route longer = make_route(100, 3, Asn{2});
  DecisionConfig config;
  EXPECT_TRUE(better_route(shorter, longer, config));
  const Route routes[] = {longer, shorter};
  const DecisionResult result = select_best(routes, config);
  EXPECT_EQ(result.best_index, 1u);
  EXPECT_EQ(result.decided_by, DecisionStep::kAsPathLength);
}

TEST(Decision, PathLengthIgnoredWhenDisabled) {
  DecisionConfig config;
  config.use_as_path_length = false;
  Route shorter = make_route(100, 2, Asn{1});
  Route longer = make_route(100, 5, Asn{2});
  longer.neighbor_router_id = 1;  // wins the final tie-break
  shorter.neighbor_router_id = 2;
  EXPECT_TRUE(better_route(longer, shorter, config));
}

TEST(Decision, OriginPreferenceOrder) {
  DecisionConfig config;
  Route igp = make_route(100, 2, Asn{1});
  igp.origin = Origin::kIgp;
  Route egp = make_route(100, 2, Asn{2});
  egp.origin = Origin::kEgp;
  Route incomplete = make_route(100, 2, Asn{3});
  incomplete.origin = Origin::kIncomplete;
  EXPECT_TRUE(better_route(igp, egp, config));
  EXPECT_TRUE(better_route(egp, incomplete, config));
  EXPECT_TRUE(better_route(igp, incomplete, config));
}

TEST(Decision, MedLowerWinsWithinSameNeighborAs) {
  DecisionConfig config;
  Route a = make_route(100, 2, Asn{1});
  a.med = 50;
  Route b = make_route(100, 2, Asn{1});
  b.med = 10;
  b.neighbor_router_id = 9999;  // would lose router-id tie-break
  EXPECT_TRUE(better_route(b, a, config));  // lower MED, same neighbor AS
  EXPECT_FALSE(better_route(a, b, config));
}

TEST(Decision, MedIgnoredAcrossDifferentNeighborAs) {
  DecisionConfig config;
  Route a = make_route(100, 2, Asn{1});
  a.med = 50;
  // Different first-hop AS: MED incomparable, falls through to later
  // steps no matter how extreme the values are.
  Route c = make_route(100, 2, Asn{2});
  c.med = 500;
  c.neighbor_router_id = 0;  // wins the router-id comparison instead
  EXPECT_TRUE(better_route(c, a, config));
  EXPECT_FALSE(better_route(a, c, config));
}

TEST(Decision, MedIgnoredWhenDisabled) {
  DecisionConfig config;
  config.use_med = false;
  Route a = make_route(100, 2, Asn{1});
  a.med = 50;
  a.neighbor_router_id = 1;
  Route b = make_route(100, 2, Asn{1});
  b.med = 10;
  b.neighbor_router_id = 2;
  EXPECT_TRUE(better_route(a, b, config));  // router-id decides instead
}

TEST(Decision, EbgpPreferredOverIbgp) {
  DecisionConfig config;
  Route ebgp = make_route(100, 2, Asn{1});
  Route local = make_route(100, 2, Asn{2});
  local.ebgp = false;
  EXPECT_TRUE(better_route(ebgp, local, config));
}

TEST(Decision, IgpCostBreaksTie) {
  DecisionConfig config;
  Route near = make_route(100, 2, Asn{1});
  near.igp_cost = 5;
  near.neighbor_router_id = 100;
  Route far = make_route(100, 2, Asn{2});
  far.igp_cost = 50;
  far.neighbor_router_id = 1;
  EXPECT_TRUE(better_route(near, far, config));
}

TEST(Decision, RouteAgeUsedOnlyWhenEnabled) {
  Route old_route = make_route(100, 2, Asn{1});
  old_route.established_at = 100;
  old_route.neighbor_router_id = 9;
  Route new_route = make_route(100, 2, Asn{2});
  new_route.established_at = 5000;
  new_route.neighbor_router_id = 1;

  DecisionConfig with_age;
  with_age.use_route_age = true;
  EXPECT_TRUE(better_route(old_route, new_route, with_age));

  DecisionConfig without_age;  // default: deterministic router-id instead
  EXPECT_TRUE(better_route(new_route, old_route, without_age));
}

TEST(Decision, RouterIdIsFinalDeterministicTieBreak) {
  DecisionConfig config;
  Route a = make_route(100, 2, Asn{1});
  a.neighbor_router_id = 7;
  Route b = make_route(100, 2, Asn{2});
  b.neighbor_router_id = 8;
  EXPECT_TRUE(better_route(a, b, config));
  EXPECT_FALSE(better_route(b, a, config));
}

TEST(Decision, SelectBestSingleRoute) {
  const Route only = make_route(100, 2);
  const Route routes[] = {only};
  const DecisionResult result = select_best(routes, DecisionConfig{});
  EXPECT_EQ(result.best_index, 0u);
  EXPECT_EQ(result.decided_by, DecisionStep::kOnlyRoute);
}

TEST(Decision, DecidedByReportsLocalPref) {
  const Route a = make_route(200, 5, Asn{1});
  const Route b = make_route(100, 2, Asn{2});
  const Route routes[] = {b, a};
  const DecisionResult result = select_best(routes, DecisionConfig{});
  EXPECT_EQ(result.best_index, 1u);
  EXPECT_EQ(result.decided_by, DecisionStep::kLocalPref);
}

TEST(Decision, DecidedByIsWinnerVsRunnerUp) {
  // Three candidates where the winner eliminates one on local-pref and the
  // closest runner-up on path length. decided_by must report the deciding
  // step against the runner-up (kAsPathLength), not the step of whichever
  // comparison the selection fold happened to perform last (kLocalPref —
  // the pre-fix misattribution when the low-pref route is scanned first).
  const Route low_pref = make_route(90, 2, Asn{1});
  const Route winner = make_route(100, 2, Asn{2});
  const Route runner_up = make_route(100, 3, Asn{3});
  const Route routes[] = {low_pref, winner, runner_up};
  const DecisionResult result = select_best(routes, DecisionConfig{});
  EXPECT_EQ(result.best_index, 1u);
  EXPECT_EQ(result.decided_by, DecisionStep::kAsPathLength);
}

TEST(Decision, DecidedByIndependentOfCandidateOrder) {
  Route low_pref = make_route(90, 2, Asn{1});
  Route winner = make_route(100, 2, Asn{2});
  Route runner_up = make_route(100, 3, Asn{3});
  std::vector<Route> routes = {winner, runner_up, low_pref};
  std::sort(routes.begin(), routes.end(),
            [](const Route& a, const Route& b) {
              return a.learned_from.value() < b.learned_from.value();
            });
  do {
    const DecisionResult result = select_best(routes, DecisionConfig{});
    EXPECT_EQ(routes[result.best_index].learned_from, Asn{2});
    EXPECT_EQ(result.decided_by, DecisionStep::kAsPathLength);
  } while (std::next_permutation(
      routes.begin(), routes.end(), [](const Route& a, const Route& b) {
        return a.learned_from.value() < b.learned_from.value();
      }));
}

TEST(Decision, ToStringCoversAllSteps) {
  for (const DecisionStep step :
       {DecisionStep::kOnlyRoute, DecisionStep::kLocalPref,
        DecisionStep::kAsPathLength, DecisionStep::kOrigin, DecisionStep::kMed,
        DecisionStep::kEbgp, DecisionStep::kIgpCost, DecisionStep::kRouteAge,
        DecisionStep::kRouterId}) {
    EXPECT_NE(to_string(step), "?");
  }
}

// ------------------------------------------------------- per-step audit
//
// One adversarial pair per RFC 4271 tie-break step, from the shared
// src/check table: within each pair every earlier attribute is equal, the
// pair separates exactly at its step, and the loser is rigged to win all
// *later* steps — so a step that silently falls through, or compares in
// the wrong direction, fails its own pair and no other.

TEST(DecisionStepAudit, TableCoversEveryStepInDecisionOrder) {
  PathTable table;
  const auto pairs = check::adversarial_pairs(table);
  const DecisionStep expected[] = {
      DecisionStep::kLocalPref, DecisionStep::kAsPathLength,
      DecisionStep::kOrigin,    DecisionStep::kMed,
      DecisionStep::kEbgp,      DecisionStep::kIgpCost,
      DecisionStep::kRouteAge,  DecisionStep::kRouterId};
  ASSERT_EQ(pairs.size(), std::size(expected));
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(pairs[i].step, expected[i]) << pairs[i].name;
  }
}

TEST(DecisionStepAudit, EachStepDecidesItsPair) {
  PathTable table;
  for (const auto& pair : check::adversarial_pairs(table)) {
    SCOPED_TRACE(pair.name);
    // Pairwise, both argument orders.
    EXPECT_TRUE(better_route(pair.preferred, pair.other, pair.config));
    EXPECT_FALSE(better_route(pair.other, pair.preferred, pair.config));
    // Through selection, both candidate orders, with the deciding step
    // attributed to exactly the step under audit.
    const Route forward[] = {pair.preferred, pair.other};
    DecisionResult result = select_best(forward, pair.config);
    EXPECT_EQ(result.best_index, 0u);
    EXPECT_EQ(result.decided_by, pair.step);
    const Route reversed[] = {pair.other, pair.preferred};
    result = select_best(reversed, pair.config);
    EXPECT_EQ(result.best_index, 1u);
    EXPECT_EQ(result.decided_by, pair.step);
  }
}

TEST(DecisionStepAudit, ProductionAgreesWithReferenceOnEveryPair) {
  PathTable table;
  for (const auto& pair : check::adversarial_pairs(table)) {
    SCOPED_TRACE(pair.name);
    EXPECT_EQ(better_route(pair.preferred, pair.other, pair.config),
              check::reference_better(pair.preferred, pair.other,
                                      pair.config));
    DecisionStep step = DecisionStep::kOnlyRoute;
    EXPECT_LT(check::reference_compare(pair.preferred, pair.other,
                                       pair.config, &step),
              0);
    EXPECT_EQ(step, pair.step);
  }
}

// ---------------------------------------------------- property-style tests

// The winner under select_best is never strictly worse than any candidate
// under pairwise comparison (MED's scoped comparison can make `better`
// non-transitive in contrived cases; with distinct router ids and MED
// disabled it is a strict weak ordering).
TEST(DecisionProperty, WinnerBeatsAllOthersWithoutMed) {
  net::Rng rng(123);
  DecisionConfig config;
  config.use_med = false;
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<Route> routes;
    const int n = 2 + static_cast<int>(rng.below(6));
    for (int i = 0; i < n; ++i) {
      Route r = make_route(
          100 + static_cast<std::uint32_t>(rng.below(3)) * 10,
          1 + rng.below(5), Asn{static_cast<std::uint32_t>(10 + i)});
      r.igp_cost = static_cast<std::uint32_t>(rng.below(3));
      r.neighbor_router_id = static_cast<std::uint32_t>(i);
      routes.push_back(r);
    }
    const DecisionResult result = select_best(routes, config);
    for (std::size_t i = 0; i < routes.size(); ++i) {
      if (i == result.best_index) continue;
      EXPECT_FALSE(better_route(routes[i], routes[result.best_index], config))
          << "trial " << trial;
    }
  }
}

// Selection is insensitive to candidate order when the ordering is strict.
TEST(DecisionProperty, OrderInvariantWithoutMed) {
  net::Rng rng(321);
  DecisionConfig config;
  config.use_med = false;
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<Route> routes;
    const int n = 2 + static_cast<int>(rng.below(5));
    for (int i = 0; i < n; ++i) {
      Route r = make_route(
          100 + static_cast<std::uint32_t>(rng.below(2)) * 20,
          1 + rng.below(4), Asn{static_cast<std::uint32_t>(10 + i)});
      r.neighbor_router_id = static_cast<std::uint32_t>(i);
      routes.push_back(r);
    }
    const Route& winner = routes[select_best(routes, config).best_index];
    std::vector<Route> shuffled = routes;
    rng.shuffle(shuffled);
    const Route& winner2 = shuffled[select_best(shuffled, config).best_index];
    EXPECT_EQ(winner.learned_from, winner2.learned_from) << "trial " << trial;
  }
}

// Localpref strictly dominates: raising a loser's localpref above the
// winner's always flips the outcome.
TEST(DecisionProperty, LocalPrefDominance) {
  net::Rng rng(555);
  DecisionConfig config;
  for (int trial = 0; trial < 100; ++trial) {
    Route a = make_route(100, 1 + rng.below(6), Asn{1});
    Route b = make_route(100, 1 + rng.below(6), Asn{2});
    a.neighbor_router_id = 1;
    b.neighbor_router_id = 2;
    Route& loser = better_route(a, b, config) ? b : a;
    loser.local_pref = 150;
    const Route routes[] = {a, b};
    const DecisionResult result = select_best(routes, config);
    EXPECT_EQ(routes[result.best_index].local_pref, 150u);
    EXPECT_EQ(result.decided_by, DecisionStep::kLocalPref);
  }
}

}  // namespace
}  // namespace re::bgp
