// Unit tests for the netbase substrate: IPv4 values, prefixes, the prefix
// trie, RNG determinism, the simulation clock, the FNV-1a digest and the
// binary writer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <set>
#include <span>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "netbase/asn.h"
#include "netbase/binio.h"
#include "netbase/clock.h"
#include "netbase/fnv1a.h"
#include "netbase/ipv4.h"
#include "netbase/prefix.h"
#include "netbase/prefix_trie.h"
#include "netbase/rng.h"

namespace re::net {
namespace {

// ---------------------------------------------------------------- IPv4

TEST(IPv4Address, RoundTripsDottedQuad) {
  const auto a = IPv4Address::parse("163.253.63.63");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->to_string(), "163.253.63.63");
}

TEST(IPv4Address, FromOctetsMatchesParse) {
  EXPECT_EQ(IPv4Address::from_octets(10, 20, 30, 40),
            IPv4Address::parse("10.20.30.40"));
}

TEST(IPv4Address, OctetAccessors) {
  const IPv4Address a = IPv4Address::from_octets(1, 2, 3, 4);
  EXPECT_EQ(a.octet(0), 1);
  EXPECT_EQ(a.octet(1), 2);
  EXPECT_EQ(a.octet(2), 3);
  EXPECT_EQ(a.octet(3), 4);
}

TEST(IPv4Address, ParsesBoundaries) {
  EXPECT_TRUE(IPv4Address::parse("0.0.0.0").has_value());
  EXPECT_TRUE(IPv4Address::parse("255.255.255.255").has_value());
  EXPECT_EQ(IPv4Address::parse("255.255.255.255")->value(), ~0u);
}

// Each case carries a label, and PrintTo prints it: ctest names a
// value-parameterized test after the printed parameter, and gtest's default
// printout of this struct is its raw bytes (a pointer that moves every run).
struct BadAddressCase {
  const char* label;
  const char* text;
};
void PrintTo(const BadAddressCase& c, std::ostream* os) { *os << c.label; }

class IPv4ParseRejects : public ::testing::TestWithParam<BadAddressCase> {};

TEST_P(IPv4ParseRejects, Rejects) {
  EXPECT_FALSE(IPv4Address::parse(GetParam().text).has_value())
      << GetParam().text;
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, IPv4ParseRejects,
    ::testing::Values(BadAddressCase{"empty", ""},
                      BadAddressCase{"three_octets", "1.2.3"},
                      BadAddressCase{"five_octets", "1.2.3.4.5"},
                      BadAddressCase{"first_octet_256", "256.1.1.1"},
                      BadAddressCase{"last_octet_256", "1.2.3.256"},
                      BadAddressCase{"letters", "a.b.c.d"},
                      BadAddressCase{"empty_octet", "1..2.3"},
                      BadAddressCase{"trailing_space", "1.2.3.4 "},
                      BadAddressCase{"leading_space", " 1.2.3.4"},
                      BadAddressCase{"leading_zero", "01.2.3.4"},
                      BadAddressCase{"minus_sign", "1.2.3.-4"},
                      BadAddressCase{"plus_sign", "1.2.3.+4"}));

TEST(IPv4Address, OrderingIsNumeric) {
  EXPECT_LT(*IPv4Address::parse("9.255.255.255"),
            *IPv4Address::parse("10.0.0.0"));
  EXPECT_LT(*IPv4Address::parse("10.0.0.0"), *IPv4Address::parse("10.0.0.1"));
}

TEST(IPv4Address, Hashable) {
  std::unordered_set<IPv4Address> set;
  set.insert(*IPv4Address::parse("1.2.3.4"));
  set.insert(*IPv4Address::parse("1.2.3.4"));
  EXPECT_EQ(set.size(), 1u);
}

// ---------------------------------------------------------------- Prefix

TEST(Prefix, ParsesAndFormats) {
  const auto p = Prefix::parse("192.0.2.0/24");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->to_string(), "192.0.2.0/24");
  EXPECT_EQ(p->length(), 24);
}

TEST(Prefix, CanonicalizesHostBits) {
  const Prefix p(*IPv4Address::parse("192.0.2.77"), 24);
  EXPECT_EQ(p.network().to_string(), "192.0.2.0");
  EXPECT_EQ(p, *Prefix::parse("192.0.2.0/24"));
}

TEST(Prefix, RejectsMalformed) {
  EXPECT_FALSE(Prefix::parse("192.0.2.0").has_value());
  EXPECT_FALSE(Prefix::parse("192.0.2.0/33").has_value());
  EXPECT_FALSE(Prefix::parse("192.0.2.0/").has_value());
  EXPECT_FALSE(Prefix::parse("bogus/24").has_value());
  EXPECT_FALSE(Prefix::parse("192.0.2.0/2x").has_value());
}

TEST(Prefix, ContainsAddressesInBlock) {
  const Prefix p = *Prefix::parse("10.1.0.0/16");
  EXPECT_TRUE(p.contains(*IPv4Address::parse("10.1.0.0")));
  EXPECT_TRUE(p.contains(*IPv4Address::parse("10.1.255.255")));
  EXPECT_FALSE(p.contains(*IPv4Address::parse("10.2.0.0")));
  EXPECT_FALSE(p.contains(*IPv4Address::parse("10.0.255.255")));
}

TEST(Prefix, CoversMoreSpecifics) {
  const Prefix parent = *Prefix::parse("10.0.0.0/8");
  EXPECT_TRUE(parent.covers(*Prefix::parse("10.1.0.0/16")));
  EXPECT_TRUE(parent.covers(parent));
  EXPECT_FALSE(parent.covers(*Prefix::parse("11.0.0.0/8")));
  EXPECT_FALSE(Prefix::parse("10.1.0.0/16")->covers(parent));
}

TEST(Prefix, SizeAndAddressAt) {
  const Prefix p = *Prefix::parse("192.0.2.0/24");
  EXPECT_EQ(p.size(), 256u);
  EXPECT_EQ(p.address_at(63).to_string(), "192.0.2.63");
  EXPECT_EQ(p.address_at(256).to_string(), "192.0.2.0");  // wraps
  EXPECT_EQ(p.first_address().to_string(), "192.0.2.0");
  EXPECT_EQ(p.last_address().to_string(), "192.0.2.255");
}

TEST(Prefix, ZeroLengthCoversEverything) {
  const Prefix all(IPv4Address{}, 0);
  EXPECT_EQ(all.mask(), 0u);
  EXPECT_TRUE(all.contains(*IPv4Address::parse("255.1.2.3")));
  EXPECT_EQ(all.size(), std::uint64_t{1} << 32);
}

TEST(Prefix, MaskForBoundaries) {
  EXPECT_EQ(Prefix::mask_for(0), 0u);
  EXPECT_EQ(Prefix::mask_for(32), ~0u);
  EXPECT_EQ(Prefix::mask_for(24), 0xffffff00u);
  EXPECT_EQ(Prefix::mask_for(1), 0x80000000u);
}

// ------------------------------------------------------------- PrefixTrie

TEST(PrefixTrie, InsertFindErase) {
  PrefixTrie<int> trie;
  EXPECT_TRUE(trie.insert(*Prefix::parse("10.0.0.0/8"), 1));
  EXPECT_FALSE(trie.insert(*Prefix::parse("10.0.0.0/8"), 2));  // overwrite
  ASSERT_NE(trie.find(*Prefix::parse("10.0.0.0/8")), nullptr);
  EXPECT_EQ(*trie.find(*Prefix::parse("10.0.0.0/8")), 2);
  EXPECT_TRUE(trie.erase(*Prefix::parse("10.0.0.0/8")));
  EXPECT_FALSE(trie.erase(*Prefix::parse("10.0.0.0/8")));
  EXPECT_TRUE(trie.empty());
}

TEST(PrefixTrie, LongestMatchPrefersMostSpecific) {
  PrefixTrie<int> trie;
  trie.insert(*Prefix::parse("10.0.0.0/8"), 8);
  trie.insert(*Prefix::parse("10.1.0.0/16"), 16);
  trie.insert(*Prefix::parse("10.1.2.0/24"), 24);

  const auto hit = trie.longest_match(*IPv4Address::parse("10.1.2.3"));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit->second, 24);

  const auto mid = trie.longest_match(*IPv4Address::parse("10.1.9.9"));
  ASSERT_TRUE(mid.has_value());
  EXPECT_EQ(*mid->second, 16);

  const auto top = trie.longest_match(*IPv4Address::parse("10.9.9.9"));
  ASSERT_TRUE(top.has_value());
  EXPECT_EQ(*top->second, 8);

  EXPECT_FALSE(trie.longest_match(*IPv4Address::parse("11.0.0.1")).has_value());
}

TEST(PrefixTrie, DefaultRouteMatchesAll) {
  PrefixTrie<int> trie;
  trie.insert(Prefix(IPv4Address{}, 0), 0);
  const auto hit = trie.longest_match(*IPv4Address::parse("203.0.113.7"));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->first.length(), 0);
}

TEST(PrefixTrie, HasShorterCover) {
  PrefixTrie<int> trie;
  trie.insert(*Prefix::parse("10.0.0.0/8"), 1);
  EXPECT_TRUE(trie.has_shorter_cover(*Prefix::parse("10.1.0.0/16")));
  EXPECT_FALSE(trie.has_shorter_cover(*Prefix::parse("10.0.0.0/8")));  // self
  EXPECT_FALSE(trie.has_shorter_cover(*Prefix::parse("11.0.0.0/16")));
}

TEST(PrefixTrie, ForEachVisitsParentsFirst) {
  PrefixTrie<int> trie;
  trie.insert(*Prefix::parse("10.1.2.0/24"), 24);
  trie.insert(*Prefix::parse("10.0.0.0/8"), 8);
  std::vector<int> seen;
  trie.for_each([&](const Prefix&, const int& v) { seen.push_back(v); });
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], 8);
  EXPECT_EQ(seen[1], 24);
}

TEST(PrefixTrie, SizeTracksDistinctPrefixes) {
  PrefixTrie<int> trie;
  trie.insert(*Prefix::parse("10.0.0.0/8"), 1);
  trie.insert(*Prefix::parse("10.0.0.0/16"), 2);  // same bits, different len
  EXPECT_EQ(trie.size(), 2u);
}

// --------------------------------------------------------------------- Asn

TEST(Asn, StrongTypeBasics) {
  const Asn a{11537};
  EXPECT_EQ(a.value(), 11537u);
  EXPECT_EQ(a.to_string(), "AS11537");
  EXPECT_TRUE(a.valid());
  EXPECT_FALSE(Asn{}.valid());
  EXPECT_LT(Asn{100}, Asn{200});
}

TEST(Asn, WellKnownConstants) {
  EXPECT_EQ(asn::kInternet2.value(), 11537u);
  EXPECT_EQ(asn::kSurf.value(), 1103u);
  EXPECT_EQ(asn::kLumen.value(), 3356u);
  EXPECT_EQ(asn::kNiks.value(), 3267u);
}

// --------------------------------------------------------------------- Rng

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a.next() == b.next() ? 1 : 0;
  EXPECT_LT(equal, 4);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, BetweenInclusive) {
  Rng rng(7);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const auto v = rng.between(3, 5);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 5);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 3u);  // all values reachable
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, WeightedRespectsZeroWeight) {
  Rng rng(5);
  const double weights[] = {0.0, 1.0, 0.0};
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(rng.weighted(weights), 1u);
  }
}

TEST(Rng, WeightedRoughlyProportional) {
  Rng rng(5);
  const double weights[] = {1.0, 3.0};
  int hits[2] = {0, 0};
  for (int i = 0; i < 10000; ++i) ++hits[rng.weighted(weights)];
  EXPECT_NEAR(static_cast<double>(hits[1]) / 10000.0, 0.75, 0.03);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(11);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(13);
  Rng child = a.fork(1);
  Rng a2(13);
  Rng child2 = a2.fork(1);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(child.next(), child2.next());
}

// ------------------------------------------------------------------- Clock

TEST(SimClock, AdvancesMonotonically) {
  SimClock clock;
  EXPECT_EQ(clock.now(), 0);
  clock.advance(10);
  EXPECT_EQ(clock.now(), 10);
  clock.advance(-5);  // ignored
  EXPECT_EQ(clock.now(), 10);
  clock.advance_to(5);  // ignored, would go backwards
  EXPECT_EQ(clock.now(), 10);
  clock.advance_to(100);
  EXPECT_EQ(clock.now(), 100);
}

TEST(SimClock, FormatsHms) {
  EXPECT_EQ(SimClock::format(0), "00:00:00");
  EXPECT_EQ(SimClock::format(kHour + 2 * kMinute + 18), "01:02:18");
  EXPECT_EQ(SimClock::format(10 * kHour), "10:00:00");
}

// ------------------------------------------------------------------- Fnv1a

std::uint64_t fnv1a_raw(std::string_view text) {
  const auto* data = reinterpret_cast<const std::uint8_t*>(text.data());
  return Fnv1a{}.add({data, text.size()}).raw();
}

TEST(Fnv1a, KnownAnswersUnderTheBasisInUse) {
  // Under the standard basis 0xcbf29ce484222325 these would read
  // 0xcbf29ce484222325, 0xaf63dc4c8601ec8c and 0x85944171f73967e8.
  EXPECT_EQ(fnv1a_raw(""), 0x14650fb0739d0383ull);
  EXPECT_EQ(fnv1a_raw("a"), 0x44bd8ad473cd9906ull);
  EXPECT_EQ(fnv1a_raw("foobar"), 0x88fad7c0a8ff07f2ull);
  Fnv1a h;
  h.add(std::span<const std::uint8_t>{});
  EXPECT_EQ(h.raw(), Fnv1a::kBasis);
  EXPECT_EQ(h.finish(), mix64(Fnv1a::kBasis));
}

TEST(Fnv1a, ChunkedStreamEqualsOneShot) {
  Rng rng(38);
  std::vector<std::uint8_t> bytes(10 * 1024);
  for (std::uint8_t& b : bytes) b = static_cast<std::uint8_t>(rng.next());
  const std::span<const std::uint8_t> all(bytes);
  const Fnv1a one_shot = Fnv1a{}.add(all);
  for (const std::size_t chunk : {1u, 2u, 7u, 4096u}) {
    Fnv1a streamed;
    for (std::size_t at = 0; at < all.size(); at += chunk) {
      streamed.add(all.subspan(at, std::min(chunk, all.size() - at)));
    }
    EXPECT_EQ(streamed.raw(), one_shot.raw()) << chunk;
    EXPECT_EQ(streamed.finish(), one_shot.finish()) << chunk;
  }
}

TEST(BinaryWriter, ClearEmptiesBytesAndKeepsCapacity) {
  BinaryWriter w;
  for (std::uint64_t i = 0; i < 100; ++i) w.u64(i);
  const std::size_t capacity = w.bytes().capacity();
  ASSERT_GE(capacity, 800u);
  w.clear();
  EXPECT_TRUE(w.bytes().empty());
  EXPECT_EQ(w.bytes().capacity(), capacity);
  w.u8(7);
  EXPECT_EQ(w.bytes(), std::vector<std::uint8_t>{7});
}

}  // namespace
}  // namespace re::net
