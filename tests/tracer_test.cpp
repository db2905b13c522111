// Tests for the AS-level tracer.
#include <gtest/gtest.h>

#include "check/return_path.h"
#include "probing/tracer.h"
#include "topology/ecosystem.h"

namespace re::probing {
namespace {

using net::Asn;
using net::Prefix;

const Prefix kPrefix = *Prefix::parse("163.253.63.0/24");

// origin(1) <- mid(10) <- edge(42).
struct ChainFixture {
  bgp::BgpNetwork network{7};
  ChainFixture() {
    network.connect_transit(Asn{10}, Asn{1});
    network.connect_transit(Asn{10}, Asn{42});
    network.announce(Asn{1}, kPrefix);
    network.run_to_convergence();
  }
};

TEST(Tracer, WalksHopByHopToOrigin) {
  ChainFixture f;
  Tracer tracer(f.network, kPrefix, {Asn{1}});
  const TraceResult result = tracer.trace(Asn{42});
  ASSERT_TRUE(result.reached);
  ASSERT_EQ(result.hops.size(), 2u);
  EXPECT_EQ(result.hops[0].asn, Asn{10});
  EXPECT_EQ(result.hops[0].ttl, 1);
  EXPECT_FALSE(result.hops[0].destination);
  EXPECT_EQ(result.hops[1].asn, Asn{1});
  EXPECT_TRUE(result.hops[1].destination);
}

TEST(Tracer, SourceAtOriginIsOneHop) {
  ChainFixture f;
  Tracer tracer(f.network, kPrefix, {Asn{1}});
  const TraceResult result = tracer.trace(Asn{1});
  ASSERT_TRUE(result.reached);
  ASSERT_EQ(result.hops.size(), 1u);
  EXPECT_TRUE(result.hops[0].destination);
}

TEST(Tracer, NoRouteStopsTheTrace) {
  bgp::BgpNetwork network(1);
  network.add_speaker(Asn{42});
  Tracer tracer(network, kPrefix, {Asn{1}});
  const TraceResult result = tracer.trace(Asn{42});
  EXPECT_FALSE(result.reached);
  EXPECT_TRUE(result.hops.empty());
  EXPECT_NE(result.to_string().find("!"), std::string::npos);
}

TEST(Tracer, MaxTtlBoundsTheWalk) {
  // A long chain: origin <- c1 <- c2 <- c3 <- c4 <- edge.
  bgp::BgpNetwork network(3);
  Asn below{1};
  for (std::uint32_t i = 0; i < 4; ++i) {
    const Asn hop{100 + i};
    network.connect_transit(hop, below);
    below = hop;
  }
  network.connect_transit(below, Asn{42});
  network.announce(Asn{1}, kPrefix);
  network.run_to_convergence();
  Tracer tracer(network, kPrefix, {Asn{1}});
  const TraceResult bounded = tracer.trace(Asn{42}, /*max_ttl=*/2);
  EXPECT_FALSE(bounded.reached);
  EXPECT_EQ(bounded.hops.size(), 2u);
  const TraceResult full = tracer.trace(Asn{42});
  EXPECT_TRUE(full.reached);
  EXPECT_EQ(full.hops.size(), 5u);
}

TEST(Tracer, AgreesWithReturnPathResolver) {
  // On the ecosystem, the tracer's hop sequence must equal the dataplane
  // resolver's hops (minus the source itself).
  topo::EcosystemParams params;
  params = params.scaled(0.05);
  params.seed = 20250529;
  const topo::Ecosystem eco = topo::Ecosystem::generate(params);
  bgp::BgpNetwork network(5);
  eco.build_network(network);
  const net::Prefix meas = eco.measurement().prefix;
  network.announce(eco.measurement().commodity_origin, meas);
  bgp::OriginationOptions re_only;
  re_only.re_only = true;
  network.announce(eco.internet2(), meas, re_only);
  network.run_to_convergence();

  check::ReturnPathResolver resolver(
      network, meas, {eco.measurement().commodity_origin, eco.internet2()});
  Tracer tracer(network, meas,
                {eco.measurement().commodity_origin, eco.internet2()});

  std::size_t compared = 0;
  for (const net::Asn member : eco.members()) {
    const dataplane::ReturnPath path = resolver.resolve(member);
    const TraceResult trace = tracer.trace(member);
    ASSERT_EQ(trace.reached, path.reachable) << member.to_string();
    if (!path.reachable) continue;
    ASSERT_EQ(trace.hops.size() + 1, path.hops.size()) << member.to_string();
    for (std::size_t i = 0; i < trace.hops.size(); ++i) {
      EXPECT_EQ(trace.hops[i].asn, path.hops[i + 1]) << member.to_string();
    }
    EXPECT_EQ(trace.hops.back().asn, path.terminal);
    if (++compared >= 60) break;
  }
  EXPECT_GE(compared, 50u);
}

TEST(Tracer, WireVerificationPasses) {
  ChainFixture f;
  Tracer tracer(f.network, kPrefix, {Asn{1}});
  const TraceResult result = tracer.trace(Asn{42});
  EXPECT_TRUE(tracer.verify_wire(result,
                                 *net::IPv4Address::parse("163.253.63.63"),
                                 kPrefix.address_at(7)));
}

TEST(Tracer, RenderShowsPathAndDestination) {
  ChainFixture f;
  Tracer tracer(f.network, kPrefix, {Asn{1}});
  const std::string text = tracer.trace(Asn{42}).to_string();
  EXPECT_NE(text.find("AS42 ->"), std::string::npos);
  EXPECT_NE(text.find("10"), std::string::npos);
  EXPECT_NE(text.find("1*"), std::string::npos);
}

}  // namespace
}  // namespace re::probing
