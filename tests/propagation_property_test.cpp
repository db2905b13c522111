// Property tests of BGP propagation on randomized topologies: valley-free
// paths, loop-freedom, forwarding consistency, and announce/withdraw
// round-trips.
#include <gtest/gtest.h>

#include <map>
#include <unordered_map>
#include <unordered_set>

#include "bgp/network.h"
#include "check/return_path.h"
#include "netbase/rng.h"

namespace re::bgp {
namespace {

using net::Asn;
using net::Prefix;

const Prefix kPrefix = *Prefix::parse("163.253.63.0/24");

// A random multi-tier topology: `tiers` levels, each AS buys transit from
// 1-2 ASes of the level above, plus some same-level peering.
struct RandomTopology {
  BgpNetwork network;
  std::vector<std::vector<Asn>> tiers;
  std::map<std::pair<Asn, Asn>, Relationship> edges;  // (a,b) -> b's role to a

  explicit RandomTopology(std::uint64_t seed, int tier_count = 4,
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
    // Top tier: full peering mesh.
    for (std::size_t i = 0; i < tiers[0].size(); ++i) {
      for (std::size_t j = i + 1; j < tiers[0].size(); ++j) {
        network.connect_peering(tiers[0][i], tiers[0][j]);
        edges[{tiers[0][i], tiers[0][j]}] = Relationship::kPeer;
        edges[{tiers[0][j], tiers[0][i]}] = Relationship::kPeer;
      }
    }
    // Lower tiers: providers above, occasional lateral peering.
    for (std::size_t t = 1; t < tiers.size(); ++t) {
      for (const Asn as : tiers[t]) {
        const int providers = 1 + static_cast<int>(rng.below(2));
        std::vector<Asn> pool = tiers[t - 1];
        rng.shuffle(pool);
        for (int p = 0; p < providers; ++p) {
          network.connect_transit(pool[static_cast<std::size_t>(p)], as);
          edges[{as, pool[static_cast<std::size_t>(p)]}] = Relationship::kProvider;
          edges[{pool[static_cast<std::size_t>(p)], as}] = Relationship::kCustomer;
        }
      }
      for (std::size_t i = 0; i + 1 < tiers[t].size(); i += 2) {
        if (rng.chance(0.5)) {
          network.connect_peering(tiers[t][i], tiers[t][i + 1]);
          edges[{tiers[t][i], tiers[t][i + 1]}] = Relationship::kPeer;
          edges[{tiers[t][i + 1], tiers[t][i]}] = Relationship::kPeer;
        }
      }
    }
  }

  Asn bottom_as(std::size_t index = 0) const {
    return tiers.back()[index % tiers.back().size()];
  }

  std::vector<Asn> all() const {
    std::vector<Asn> out;
    for (const auto& tier : tiers) out.insert(out.end(), tier.begin(), tier.end());
    return out;
  }
};

class PropagationProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PropagationProperty, PathsAreLoopFree) {
  RandomTopology topo(GetParam());
  topo.network.announce(topo.bottom_as(), kPrefix);
  topo.network.run_to_convergence();
  for (const Asn as : topo.all()) {
    const Route* best = topo.network.speaker(as)->best(kPrefix);
    const PathTable& paths = topo.network.paths();
    if (best == nullptr || paths.empty(best->path)) continue;
    EXPECT_EQ(paths.unique_count(best->path), paths.length(best->path))
        << as.to_string() << " path " << paths.to_string(best->path);
    EXPECT_FALSE(paths.contains(best->path, as)) << as.to_string();
  }
}

TEST_P(PropagationProperty, PathsAreValleyFree) {
  RandomTopology topo(GetParam());
  const Asn origin = topo.bottom_as();
  topo.network.announce(origin, kPrefix);
  topo.network.run_to_convergence();
  for (const Asn as : topo.all()) {
    const Route* best = topo.network.speaker(as)->best(kPrefix);
    const PathTable& paths = topo.network.paths();
    if (best == nullptr || paths.empty(best->path)) continue;
    // Walk the path from the observer toward the origin. Once the path
    // goes "down" (provider->customer step) or sideways (peer), it must
    // never go "up" (customer->provider) or sideways again.
    std::vector<Asn> hops;
    hops.push_back(as);
    for (const Asn hop : paths.span(best->path)) hops.push_back(hop);
    bool descended = false;
    for (std::size_t i = 0; i + 1 < hops.size(); ++i) {
      const auto it = topo.edges.find({hops[i], hops[i + 1]});
      ASSERT_NE(it, topo.edges.end())
          << hops[i].to_string() << "->" << hops[i + 1].to_string();
      const Relationship rel = it->second;  // hops[i+1]'s role to hops[i]
      if (rel == Relationship::kCustomer) {
        descended = true;
      } else {
        // Upward or lateral step: only allowed before any descent.
        EXPECT_FALSE(descended)
            << "valley in path " << paths.to_string(best->path) << " at "
            << hops[i].to_string();
      }
    }
  }
}

TEST_P(PropagationProperty, ForwardingReachesOrigin) {
  RandomTopology topo(GetParam());
  const Asn origin = topo.bottom_as();
  topo.network.announce(origin, kPrefix);
  topo.network.run_to_convergence();
  check::ReturnPathResolver resolver(topo.network, kPrefix, {origin});
  for (const Asn as : topo.all()) {
    if (topo.network.speaker(as)->best(kPrefix) == nullptr) continue;
    const dataplane::ReturnPath path = resolver.resolve(as);
    EXPECT_TRUE(path.reachable) << as.to_string();
    EXPECT_EQ(path.terminal, origin);
    // Hop-by-hop forwarding is loop-free.
    std::unordered_set<Asn> seen(path.hops.begin(), path.hops.end());
    EXPECT_EQ(seen.size(), path.hops.size());
  }
}

TEST_P(PropagationProperty, WithdrawRemovesAllState) {
  RandomTopology topo(GetParam());
  const Asn origin = topo.bottom_as();
  topo.network.announce(origin, kPrefix);
  topo.network.run_to_convergence();
  topo.network.withdraw(origin, kPrefix);
  topo.network.run_to_convergence();
  for (const Asn as : topo.all()) {
    EXPECT_EQ(topo.network.speaker(as)->best(kPrefix), nullptr)
        << as.to_string();
  }
}

TEST_P(PropagationProperty, ReAnnounceAfterWithdrawMatchesFirstAnnounce) {
  RandomTopology topo(GetParam());
  const Asn origin = topo.bottom_as();
  topo.network.announce(origin, kPrefix);
  topo.network.run_to_convergence();
  std::unordered_map<Asn, AsPath> first;
  for (const Asn as : topo.all()) {
    if (const Route* best = topo.network.speaker(as)->best(kPrefix)) {
      first[as] = topo.network.paths().path(best->path);
    }
  }
  topo.network.withdraw(origin, kPrefix);
  topo.network.run_to_convergence();
  topo.network.announce(origin, kPrefix);
  topo.network.run_to_convergence();
  for (const Asn as : topo.all()) {
    const Route* best = topo.network.speaker(as)->best(kPrefix);
    if (first.count(as)) {
      ASSERT_NE(best, nullptr) << as.to_string();
      EXPECT_EQ(topo.network.paths().path(best->path), first.at(as))
          << as.to_string();
    } else {
      EXPECT_EQ(best, nullptr) << as.to_string();
    }
  }
}

TEST_P(PropagationProperty, PrependMonotonicallyLengthensPaths) {
  RandomTopology topo(GetParam());
  const Asn origin = topo.bottom_as();
  topo.network.announce(origin, kPrefix);
  topo.network.run_to_convergence();
  std::unordered_map<Asn, std::size_t> baseline;
  for (const Asn as : topo.all()) {
    if (as == origin) continue;  // the origin's local route has no path
    if (const Route* best = topo.network.speaker(as)->best(kPrefix)) {
      baseline[as] = best->path_length;
    }
  }
  topo.network.set_origin_prepend(origin, kPrefix, 2);
  topo.network.run_to_convergence();
  for (const auto& [as, length] : baseline) {
    const Route* best = topo.network.speaker(as)->best(kPrefix);
    ASSERT_NE(best, nullptr) << as.to_string();
    // With a single origin, every surviving path carries the prepends.
    EXPECT_EQ(best->path_length, length + 2) << as.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropagationProperty,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

}  // namespace
}  // namespace re::bgp
