// Tests for partial propagation (run_until), import neighbor rejection,
// and damping behaviour at network level.
#include <gtest/gtest.h>

#include "bgp/network.h"

namespace re::bgp {
namespace {

using net::Asn;
using net::Prefix;

const Prefix kPrefix = *Prefix::parse("163.253.63.0/24");

// A four-hop chain: origin(1) <- 2 <- 3 <- 4 <- 5.
struct ChainFixture {
  BgpNetwork network{9};
  ChainFixture() {
    network.connect_transit(Asn{2}, Asn{1});
    network.connect_transit(Asn{3}, Asn{2});
    network.connect_transit(Asn{4}, Asn{3});
    network.connect_transit(Asn{5}, Asn{4});
  }
};

TEST(RunUntil, DeliversOnlyUpToDeadline) {
  ChainFixture f;
  f.network.announce(Asn{1}, kPrefix);
  // Deliver only the first hop's worth of messages.
  f.network.run_until(f.network.clock().now() + 1);
  // The far end of the chain cannot have the route yet.
  EXPECT_EQ(f.network.speaker(Asn{5})->best(kPrefix), nullptr);
  EXPECT_FALSE(f.network.converged());
  // Finishing the run delivers the rest.
  f.network.run_to_convergence();
  EXPECT_NE(f.network.speaker(Asn{5})->best(kPrefix), nullptr);
  EXPECT_TRUE(f.network.converged());
}

TEST(RunUntil, ZeroDeadlineDeliversNothing) {
  ChainFixture f;
  f.network.announce(Asn{1}, kPrefix);
  const std::size_t pending = f.network.pending_messages();
  ASSERT_GT(pending, 0u);
  const ConvergenceStats stats = f.network.run_until(f.network.clock().now());
  EXPECT_EQ(stats.messages_delivered, 0u);
  EXPECT_EQ(f.network.pending_messages(), pending);
}

TEST(RunUntil, IncrementalDeliveryMatchesFullRun) {
  // Delivering in small time slices converges to the same state as one
  // run_to_convergence call.
  ChainFixture full, sliced;
  full.network.announce(Asn{1}, kPrefix);
  full.network.run_to_convergence();

  sliced.network.announce(Asn{1}, kPrefix);
  while (!sliced.network.converged()) {
    sliced.network.run_until(sliced.network.clock().now() + 3);
    sliced.network.clock().advance(3);
  }
  for (const Asn as : {Asn{2}, Asn{3}, Asn{4}, Asn{5}}) {
    const Route* a = full.network.speaker(as)->best(kPrefix);
    const Route* b = sliced.network.speaker(as)->best(kPrefix);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(a->path, b->path) << as.to_string();
  }
}

TEST(ImportPolicy, RejectNeighborsDropsSession) {
  BgpNetwork network(3);
  network.connect_transit(Asn{10}, Asn{1});
  network.connect_transit(Asn{10}, Asn{42});
  network.connect_transit(Asn{20}, Asn{1});
  network.connect_transit(Asn{20}, Asn{42});
  network.speaker(Asn{42})->import_policy().reject_neighbors.push_back(Asn{10});
  network.announce(Asn{1}, kPrefix);
  network.run_to_convergence();
  const Route* best = network.speaker(Asn{42})->best(kPrefix);
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->learned_from, Asn{20});
  // Only the non-rejected session contributes candidates.
  EXPECT_EQ(network.speaker(Asn{42})->candidates(kPrefix).size(), 1u);
}

TEST(NetworkDamping, SlowPacedChangesNeverSuppress) {
  // The §3.3 design point at network level: hour-spaced prepend changes
  // never push a damping AS into suppression.
  BgpNetwork network(5);
  network.connect_transit(Asn{10}, Asn{1});
  network.connect_transit(Asn{10}, Asn{42});
  Speaker* edge = network.speaker(Asn{42});
  edge->damping().enabled = true;

  network.announce(Asn{1}, kPrefix);
  network.run_to_convergence();
  for (std::uint32_t p = 1; p <= 8; ++p) {
    network.clock().advance(net::kHour);
    network.set_origin_prepend(Asn{1}, kPrefix, p);
    network.run_to_convergence();
    ASSERT_NE(edge->best(kPrefix), nullptr) << "change " << p;
    EXPECT_EQ(network.paths().count(edge->best(kPrefix)->path, Asn{1}), p + 1);
  }
}

}  // namespace
}  // namespace re::bgp
