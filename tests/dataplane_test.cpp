// Tests for return-path resolution and outage injection. The hand-built
// cases run the reference walker (check/return_path.h) and check that the
// compiled CatchmentFib, the probing plane's resolver, agrees with it.
#include <gtest/gtest.h>

#include <optional>
#include <span>
#include <vector>

#include "check/return_path.h"
#include "dataplane/fib.h"
#include "dataplane/outage.h"

namespace re::dataplane {
namespace {

using check::ReturnPathResolver;
using net::Asn;
using net::Prefix;

const Prefix kPrefix = *Prefix::parse("163.253.63.0/24");

// The shipped path gives the walker's answer for `source`:
// CatchmentFib::attribution (attribution_with_stance when `stance` is set)
// returns the walker's (reachable, terminal, used_default_route).
void expect_fib_agrees(const bgp::BgpNetwork& network,
                       const ReturnPathResolver& walker, Asn source,
                       std::optional<bgp::ReStance> stance = std::nullopt) {
  const ReturnPath want = stance ? walker.resolve_with_stance(source, *stance)
                                 : walker.resolve(source);
  CatchmentFib fib(network, kPrefix, walker.terminals());
  fib.refresh();
  const CatchmentFib::Attribution got =
      stance ? fib.attribution_with_stance(source, *stance)
             : fib.attribution(source);
  EXPECT_EQ(got.reachable, want.reachable) << source.to_string();
  EXPECT_EQ(got.terminal, want.terminal) << source.to_string();
  EXPECT_EQ(got.used_default_route, want.used_default_route)
      << source.to_string();
}

// origin_re(100) <-re- mid(10) <-re- edge(42); origin_comm(200) <- edge(42).
struct TwoPathFixture {
  bgp::BgpNetwork network{3};
  TwoPathFixture() {
    network.connect_transit(Asn{10}, Asn{100}, /*re_edge=*/true);
    network.connect_transit(Asn{10}, Asn{42}, /*re_edge=*/true);
    network.connect_transit(Asn{200}, Asn{42}, /*re_edge=*/false);
  }
  void announce_both() {
    bgp::OriginationOptions re_only;
    re_only.re_only = true;
    network.announce(Asn{100}, kPrefix, re_only);
    network.announce(Asn{200}, kPrefix);
    network.run_to_convergence();
  }
};

TEST(ReturnPath, WalksToReTerminalWhenPreferred) {
  TwoPathFixture f;
  f.network.speaker(Asn{42})->import_policy().re_stance =
      bgp::ReStance::kPreferRe;
  f.announce_both();
  ReturnPathResolver resolver(f.network, kPrefix, {Asn{100}, Asn{200}});
  const ReturnPath path = resolver.resolve(Asn{42});
  ASSERT_TRUE(path.reachable);
  EXPECT_EQ(path.terminal, Asn{100});
  ASSERT_EQ(path.hops.size(), 3u);
  EXPECT_EQ(path.hops[0], Asn{42});
  EXPECT_EQ(path.hops[1], Asn{10});
  EXPECT_EQ(path.hops[2], Asn{100});
  EXPECT_FALSE(path.used_default_route);
  expect_fib_agrees(f.network, resolver, Asn{42});
}

TEST(ReturnPath, WalksToCommodityWhenPreferred) {
  TwoPathFixture f;
  f.network.speaker(Asn{42})->import_policy().re_stance =
      bgp::ReStance::kPreferCommodity;
  f.announce_both();
  ReturnPathResolver resolver(f.network, kPrefix, {Asn{100}, Asn{200}});
  const ReturnPath path = resolver.resolve(Asn{42});
  ASSERT_TRUE(path.reachable);
  EXPECT_EQ(path.terminal, Asn{200});
  expect_fib_agrees(f.network, resolver, Asn{42});
}

TEST(ReturnPath, SourceAtTerminalResolvesImmediately) {
  TwoPathFixture f;
  f.announce_both();
  ReturnPathResolver resolver(f.network, kPrefix, {Asn{100}, Asn{200}});
  const ReturnPath path = resolver.resolve(Asn{100});
  ASSERT_TRUE(path.reachable);
  EXPECT_EQ(path.terminal, Asn{100});
  EXPECT_EQ(path.hops.size(), 1u);
  expect_fib_agrees(f.network, resolver, Asn{100});
}

TEST(ReturnPath, UnreachableWithoutRouteOrDefault) {
  bgp::BgpNetwork network(1);
  network.add_speaker(Asn{42});
  ReturnPathResolver resolver(network, kPrefix, {Asn{100}});
  const ReturnPath path = resolver.resolve(Asn{42});
  EXPECT_FALSE(path.reachable);
  expect_fib_agrees(network, resolver, Asn{42});
}

TEST(ReturnPath, DefaultRouteCarriesRouteLessSource) {
  // The hidden-upstream case (§4.2): an AS with no measurement-prefix
  // route sends via its default.
  bgp::BgpNetwork network(1);
  network.connect_transit(Asn{10}, Asn{200});  // commodity origin's provider
  network.connect_transit(Asn{10}, Asn{42});
  network.announce(Asn{200}, kPrefix);
  network.run_to_convergence();
  // Strip 42's learned route by rejecting everything at import.
  bgp::BgpNetwork network2(1);
  network2.connect_transit(Asn{10}, Asn{200});
  network2.connect_transit(Asn{10}, Asn{42}, /*re_edge=*/true);
  network2.speaker(Asn{42})->import_policy().reject_re_routes = true;
  network2.speaker(Asn{42})->set_session_default_route(Asn{10});
  network2.announce(Asn{200}, kPrefix);
  network2.run_to_convergence();

  EXPECT_EQ(network2.speaker(Asn{42})->best(kPrefix), nullptr);
  ReturnPathResolver resolver(network2, kPrefix, {Asn{200}});
  const ReturnPath path = resolver.resolve(Asn{42});
  ASSERT_TRUE(path.reachable);
  EXPECT_TRUE(path.used_default_route);
  EXPECT_EQ(path.terminal, Asn{200});
  expect_fib_agrees(network2, resolver, Asn{42});
}

TEST(ReturnPath, OriginatorOfPrefixThatIsNotTerminalFails) {
  bgp::BgpNetwork network(1);
  network.add_speaker(Asn{42});
  network.announce(Asn{42}, kPrefix);  // 42 originates but is no terminal
  network.run_to_convergence();
  ReturnPathResolver resolver(network, kPrefix, {Asn{100}});
  EXPECT_FALSE(resolver.resolve(Asn{42}).reachable);
  expect_fib_agrees(network, resolver, Asn{42});
}

TEST(ReturnPath, IsTerminalQuery) {
  bgp::BgpNetwork network(1);
  ReturnPathResolver resolver(network, kPrefix, {Asn{100}, Asn{200}});
  EXPECT_TRUE(resolver.is_terminal(Asn{100}));
  EXPECT_FALSE(resolver.is_terminal(Asn{42}));
  const CatchmentFib fib(network, kPrefix, resolver.terminals());
  EXPECT_TRUE(fib.is_terminal(Asn{100}));
  EXPECT_FALSE(fib.is_terminal(Asn{42}));
  expect_fib_agrees(network, resolver, Asn{100});
  expect_fib_agrees(network, resolver, Asn{42});
}

TEST(ReturnPath, SpanConstructorMatchesInitializerList) {
  TwoPathFixture f;
  f.announce_both();
  const std::vector<Asn> terminal_vec{Asn{100}, Asn{200}};
  ReturnPathResolver from_span(f.network, kPrefix,
                               std::span<const Asn>(terminal_vec));
  ReturnPathResolver from_list(f.network, kPrefix, {Asn{100}, Asn{200}});
  const ReturnPath a = from_span.resolve(Asn{42});
  const ReturnPath b = from_list.resolve(Asn{42});
  EXPECT_EQ(a.reachable, b.reachable);
  EXPECT_EQ(a.terminal, b.terminal);
  EXPECT_EQ(a.hops, b.hops);
  ASSERT_EQ(from_span.terminals().size(), 2u);
  EXPECT_EQ(from_span.terminals()[0], Asn{100});
  expect_fib_agrees(f.network, from_span, Asn{42});
  expect_fib_agrees(f.network, from_list, Asn{42});
}

TEST(ReturnPath, ReuseOverloadMatchesAndClearsPriorState) {
  TwoPathFixture f;
  f.network.speaker(Asn{42})->import_policy().re_stance =
      bgp::ReStance::kPreferRe;
  f.announce_both();
  ReturnPathResolver resolver(f.network, kPrefix, {Asn{100}, Asn{200}});
  ReturnPath out;
  // Pre-poison the output: the reuse overload must fully reset it.
  out.reachable = true;
  out.used_default_route = true;
  out.hops = {Asn{1}, Asn{2}, Asn{3}, Asn{4}};
  resolver.resolve(Asn{42}, out);
  const ReturnPath fresh = resolver.resolve(Asn{42});
  EXPECT_EQ(out.reachable, fresh.reachable);
  EXPECT_EQ(out.terminal, fresh.terminal);
  EXPECT_EQ(out.used_default_route, fresh.used_default_route);
  EXPECT_EQ(out.hops, fresh.hops);
  expect_fib_agrees(f.network, resolver, Asn{42});
}

// ---------------------------------------------------- per-prefix stance

TEST(ReturnPathStance, OverrideFlipsFirstHop) {
  // A prefer-R&E AS whose prefix carries a prefer-commodity override
  // (§3.4 policy-routing granularity) egresses via commodity for that
  // prefix while its default resolution stays R&E.
  TwoPathFixture f;
  f.network.speaker(Asn{42})->import_policy().re_stance =
      bgp::ReStance::kPreferRe;
  f.announce_both();
  ReturnPathResolver resolver(f.network, kPrefix, {Asn{100}, Asn{200}});
  EXPECT_EQ(resolver.resolve(Asn{42}).terminal, Asn{100});
  const ReturnPath overridden =
      resolver.resolve_with_stance(Asn{42}, bgp::ReStance::kPreferCommodity);
  ASSERT_TRUE(overridden.reachable);
  EXPECT_EQ(overridden.terminal, Asn{200});
  ASSERT_GE(overridden.hops.size(), 2u);
  EXPECT_EQ(overridden.hops.front(), Asn{42});
  expect_fib_agrees(f.network, resolver, Asn{42});
  expect_fib_agrees(f.network, resolver, Asn{42},
                    bgp::ReStance::kPreferCommodity);
}

TEST(ReturnPathStance, OverrideMatchingDefaultIsIdentity) {
  TwoPathFixture f;
  f.network.speaker(Asn{42})->import_policy().re_stance =
      bgp::ReStance::kPreferRe;
  f.announce_both();
  ReturnPathResolver resolver(f.network, kPrefix, {Asn{100}, Asn{200}});
  const ReturnPath normal = resolver.resolve(Asn{42});
  const ReturnPath same =
      resolver.resolve_with_stance(Asn{42}, bgp::ReStance::kPreferRe);
  EXPECT_EQ(normal.terminal, same.terminal);
  EXPECT_EQ(normal.hops, same.hops);
  expect_fib_agrees(f.network, resolver, Asn{42}, bgp::ReStance::kPreferRe);
}

TEST(ReturnPathStance, TerminalSourceUnaffected) {
  TwoPathFixture f;
  f.announce_both();
  ReturnPathResolver resolver(f.network, kPrefix, {Asn{100}, Asn{200}});
  const ReturnPath path =
      resolver.resolve_with_stance(Asn{100}, bgp::ReStance::kPreferCommodity);
  ASSERT_TRUE(path.reachable);
  EXPECT_EQ(path.terminal, Asn{100});
  expect_fib_agrees(f.network, resolver, Asn{100},
                    bgp::ReStance::kPreferCommodity);
}

TEST(ReturnPathStance, EqualOverrideFollowsPathLength) {
  TwoPathFixture f;
  f.network.speaker(Asn{42})->import_policy().re_stance =
      bgp::ReStance::kPreferRe;
  f.announce_both();
  ReturnPathResolver resolver(f.network, kPrefix, {Asn{100}, Asn{200}});
  // Under an equal override, the shorter commodity path (1 hop vs 2) wins.
  const ReturnPath path =
      resolver.resolve_with_stance(Asn{42}, bgp::ReStance::kEqualPref);
  ASSERT_TRUE(path.reachable);
  EXPECT_EQ(path.terminal, Asn{200});
  expect_fib_agrees(f.network, resolver, Asn{42}, bgp::ReStance::kEqualPref);
}

// ------------------------------------------------------------------ outage

TEST(Outage, FailsAndRestoresAcrossRounds) {
  TwoPathFixture f;
  f.network.speaker(Asn{42})->import_policy().re_stance =
      bgp::ReStance::kPreferRe;
  f.announce_both();

  OutagePlan plan;
  plan.as = Asn{42};
  plan.re_neighbor = Asn{10};
  plan.from_round = 2;
  plan.to_round = 3;
  OutageInjector injector({plan});
  ReturnPathResolver resolver(f.network, kPrefix, {Asn{100}, Asn{200}});

  std::vector<Asn> terminals;
  for (int round = 0; round < 6; ++round) {
    injector.apply(f.network, kPrefix, round);
    terminals.push_back(resolver.resolve(Asn{42}).terminal);
  }
  EXPECT_EQ(terminals[0], Asn{100});
  EXPECT_EQ(terminals[1], Asn{100});
  EXPECT_EQ(terminals[2], Asn{200});  // outage active
  EXPECT_EQ(terminals[3], Asn{200});
  EXPECT_EQ(terminals[4], Asn{100});  // restored
  EXPECT_EQ(terminals[5], Asn{100});
}

TEST(Outage, PersistentOutageNeverRestores) {
  TwoPathFixture f;
  f.network.speaker(Asn{42})->import_policy().re_stance =
      bgp::ReStance::kPreferRe;
  f.announce_both();
  OutagePlan plan;
  plan.as = Asn{42};
  plan.re_neighbor = Asn{10};
  plan.from_round = 1;
  plan.to_round = 100;
  OutageInjector injector({plan});
  ReturnPathResolver resolver(f.network, kPrefix, {Asn{100}, Asn{200}});
  std::vector<Asn> terminals;
  for (int round = 0; round < 4; ++round) {
    injector.apply(f.network, kPrefix, round);
    terminals.push_back(resolver.resolve(Asn{42}).terminal);
  }
  EXPECT_EQ(terminals[0], Asn{100});
  for (int round = 1; round < 4; ++round) {
    EXPECT_EQ(terminals[static_cast<std::size_t>(round)], Asn{200});
  }
}

TEST(Outage, NoPlansIsNoOp) {
  TwoPathFixture f;
  f.announce_both();
  OutageInjector injector({});
  injector.apply(f.network, kPrefix, 0);
  EXPECT_TRUE(f.network.converged());
}

}  // namespace
}  // namespace re::dataplane
