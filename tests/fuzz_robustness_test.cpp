// Robustness fuzzing (deterministic, seeded): parsers and decoders must
// never crash or accept-and-corrupt on arbitrary input, and encode/decode
// pairs must round-trip exactly on arbitrary valid values.
#include <gtest/gtest.h>

#include <span>
#include <string>

#include "bgp/network.h"
#include "bgp/speaker.h"
#include "check/invariants.h"
#include "check/scenario.h"
#include "io/json.h"
#include "io/results_io.h"
#include "io/topology_config.h"
#include "netbase/ipv4.h"
#include "netbase/prefix.h"
#include "netbase/rng.h"

namespace re {
namespace {

std::string random_bytes(net::Rng& rng, std::size_t max_len) {
  const std::size_t len = rng.below(max_len + 1);
  std::string out;
  out.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    out.push_back(static_cast<char>(rng.below(256)));
  }
  return out;
}

std::string random_jsonish(net::Rng& rng, std::size_t max_len) {
  static const char kAlphabet[] = "{}[]\",:0123456789.eE+-truefalsn \n\t\\u";
  const std::size_t len = rng.below(max_len + 1);
  std::string out;
  out.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    out.push_back(kAlphabet[rng.below(sizeof(kAlphabet) - 1)]);
  }
  return out;
}

class FuzzSeed : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSeed, JsonParserNeverCrashes) {
  net::Rng rng(GetParam());
  for (int i = 0; i < 2000; ++i) {
    const std::string text =
        i % 2 == 0 ? random_bytes(rng, 64) : random_jsonish(rng, 64);
    const auto parsed = io::parse_json(text);
    if (parsed.has_value()) {
      // Whatever parsed must re-serialize through the writer without
      // invariant violations (spot check: strings escape cleanly).
      if (parsed->is_string()) {
        io::JsonWriter writer;
        writer.value(parsed->as_string());
        EXPECT_TRUE(io::parse_json(writer.str()).has_value());
      }
    }
  }
}

TEST_P(FuzzSeed, AddressAndPrefixParsersNeverCrash) {
  net::Rng rng(GetParam());
  for (int i = 0; i < 3000; ++i) {
    const std::string text = random_bytes(rng, 24);
    (void)net::IPv4Address::parse(text);
    (void)net::Prefix::parse(text);
  }
}

TEST_P(FuzzSeed, AddressRoundTripsExactly) {
  net::Rng rng(GetParam());
  for (int i = 0; i < 2000; ++i) {
    const net::IPv4Address a(static_cast<std::uint32_t>(rng.next()));
    const auto parsed = net::IPv4Address::parse(a.to_string());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, a);
  }
}

TEST_P(FuzzSeed, PrefixRoundTripsCanonically) {
  net::Rng rng(GetParam());
  for (int i = 0; i < 2000; ++i) {
    const net::Prefix p(net::IPv4Address(static_cast<std::uint32_t>(rng.next())),
                        static_cast<std::uint8_t>(rng.below(33)));
    const auto parsed = net::Prefix::parse(p.to_string());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, p);
  }
}

TEST_P(FuzzSeed, ResultLineParserNeverCrashes) {
  net::Rng rng(GetParam());
  for (int i = 0; i < 1000; ++i) {
    (void)io::from_json_line(random_jsonish(rng, 96));
  }
}

TEST_P(FuzzSeed, TopologyConfigNeverCrashes) {
  net::Rng rng(GetParam());
  static const char* kWords[] = {"transit", "peering", "stance",  "announce",
                                 "prepend", "re",      "42",      "0",
                                 "10.0.0.0/24", "equal", "#x",    "\n"};
  for (int i = 0; i < 300; ++i) {
    std::string config;
    const std::size_t words = rng.below(40);
    for (std::size_t w = 0; w < words; ++w) {
      config += kWords[rng.below(std::size(kWords))];
      config += rng.chance(0.3) ? "\n" : " ";
    }
    bgp::BgpNetwork network(1);
    (void)io::load_topology(config, network);
  }
}

// --- Fast-path compositions -----------------------------------------------
//
// The engine's fast paths (fork, scoped convergence, session failure) are
// each digest-gated in isolation; these compositions exercise the
// interactions: a withdraw mutating a *fork* of a converged world, and a
// session failing while another prefix's messages are still in flight
// before a prefix-scoped run.

TEST_P(FuzzSeed, WithdrawAfterForkComposition) {
  check::WorldSpec spec;
  const auto network = check::make_world(GetParam(), &spec);
  const net::Prefix prefix = spec.prefixes[0];
  const std::uint64_t parent_digest = network->prefix_state_digest(prefix);

  auto snap = network->checkpoint();
  const auto fork = snap.fork();
  net::Asn origin;
  for (const net::Asn asn : fork->asns()) {
    if (fork->speaker(asn)->originates(prefix)) {
      origin = asn;
      break;
    }
  }
  ASSERT_TRUE(origin.valid());
  fork->withdraw(origin, prefix);
  fork->run_dirty_to_convergence();

  // The parent must be untouched by the fork's mutation...
  EXPECT_EQ(network->prefix_state_digest(prefix), parent_digest);
  // ...and the fork's dirty run must land exactly where a fresh world
  // that withdrew directly (and converged fully) lands.
  const auto fresh = check::make_world(GetParam(), nullptr);
  fresh->withdraw(origin, prefix);
  fresh->run_to_convergence();
  EXPECT_EQ(fork->prefix_state_digest(prefix),
            fresh->prefix_state_digest(prefix));

  check::InvariantSuite suite;
  const auto violation = suite.check_cheap(*fork, spec.prefixes);
  EXPECT_FALSE(violation.has_value())
      << violation->invariant << ": " << violation->detail;
}

TEST_P(FuzzSeed, FailSessionDuringScopedRunComposition) {
  check::WorldSpec spec;
  const auto network = check::make_world(GetParam(), &spec);
  const net::Prefix scoped_prefix = spec.prefixes[0];
  const net::Prefix deferred_prefix = spec.prefixes[1];

  // Put a second prefix's messages in flight, stop mid-convergence, then
  // fail a session for the first prefix and converge only its scope.
  network->announce(spec.origins[0], deferred_prefix);
  network->run_until(network->clock().now() + 2);
  const auto [a, b] = spec.sessions[GetParam() % spec.sessions.size()];
  network->fail_session(a, b, scoped_prefix);

  auto snap = network->checkpoint();
  const auto oracle = snap.fork();
  oracle->run_to_convergence();

  const net::Prefix scope[] = {scoped_prefix};
  network->run_to_convergence(std::span<const net::Prefix>(scope));
  EXPECT_EQ(network->prefix_state_digest(scoped_prefix),
            oracle->prefix_state_digest(scoped_prefix));
  check::InvariantSuite suite;
  const auto violation = suite.check_cheap(*network, spec.prefixes);
  EXPECT_FALSE(violation.has_value())
      << violation->invariant << ": " << violation->detail;

  // Deferred catch-up: draining the rest must land the in-flight prefix
  // on the oracle too.
  network->run_to_convergence();
  EXPECT_EQ(network->prefix_state_digest(deferred_prefix),
            oracle->prefix_state_digest(deferred_prefix));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeed, ::testing::Values(1u, 2u, 3u));

}  // namespace
}  // namespace re
