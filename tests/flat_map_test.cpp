// Tests for the open-addressing FlatMap/FlatSet used on the propagation
// hot path: insert/erase semantics, tombstone reuse, and the
// erase-during-iteration contract clear_prefix relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "netbase/flat_map.h"

namespace re::net {
namespace {

TEST(FlatMap, InsertFindAndOverwrite) {
  FlatMap<std::uint32_t, std::string> map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.find(1), map.end());

  map[1] = "one";
  map.insert_or_assign(2, "two");
  const auto [it, inserted] = map.insert({3, "three"});
  EXPECT_TRUE(inserted);
  EXPECT_EQ(it->second, "three");
  EXPECT_EQ(map.size(), 3u);

  // insert() on a present key does not overwrite; insert_or_assign does.
  EXPECT_FALSE(map.insert({3, "trois"}).second);
  EXPECT_EQ(map.find(3)->second, "three");
  EXPECT_FALSE(map.insert_or_assign(3, "trois").second);
  EXPECT_EQ(map.find(3)->second, "trois");

  EXPECT_TRUE(map.contains(1));
  EXPECT_EQ(map.count(2), 1u);
  EXPECT_EQ(map.count(99), 0u);
}

TEST(FlatMap, EraseByKeyAndReinsert) {
  FlatMap<std::uint32_t, int> map;
  for (std::uint32_t i = 0; i < 100; ++i) map[i] = static_cast<int>(i);
  EXPECT_EQ(map.size(), 100u);
  for (std::uint32_t i = 0; i < 100; i += 2) EXPECT_EQ(map.erase(i), 1u);
  EXPECT_EQ(map.erase(2), 0u);  // already gone
  EXPECT_EQ(map.size(), 50u);
  for (std::uint32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(map.contains(i), i % 2 == 1) << i;
  }
  // Reinsert over the tombstones; lookups still find everything.
  for (std::uint32_t i = 0; i < 100; i += 2) map[i] = static_cast<int>(i);
  EXPECT_EQ(map.size(), 100u);
  for (std::uint32_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(map.contains(i)) << i;
    EXPECT_EQ(map.find(i)->second, static_cast<int>(i));
  }
}

TEST(FlatMap, TombstoneReuseKeepsTableCompact) {
  // Churning one key through insert/erase must reuse the grave instead of
  // consuming a fresh slot per cycle (otherwise load climbs and forces
  // rehash after ~capacity cycles).
  FlatMap<std::uint32_t, int> map;
  map[1] = 1;
  const std::uint64_t probes_before = map.probe_stats().probes;
  for (int cycle = 0; cycle < 10000; ++cycle) {
    map[42] = cycle;
    map.erase(42);
  }
  EXPECT_EQ(map.size(), 1u);
  EXPECT_TRUE(map.contains(1));
  // With grave reuse each cycle is O(1) probes; without it the table
  // degrades toward full-capacity scans. 10k cycles at a handful of
  // probes each stays well under 100k.
  EXPECT_LT(map.probe_stats().probes - probes_before, 100000u);
}

TEST(FlatMap, EraseIteratorReturnsNext) {
  FlatMap<std::uint32_t, int> map;
  for (std::uint32_t i = 0; i < 64; ++i) map[i] = 1;

  // The clear_prefix pattern: walk the map, erasing some entries.
  std::size_t visited = 0;
  for (auto it = map.begin(); it != map.end();) {
    ++visited;
    it = it->first % 3 == 0 ? map.erase(it) : std::next(it);
  }
  EXPECT_EQ(visited, 64u);
  EXPECT_EQ(map.size(), 64u - 22u);  // 22 multiples of 3 in [0, 64)
  for (std::uint32_t i = 0; i < 64; ++i) {
    EXPECT_EQ(map.contains(i), i % 3 != 0) << i;
  }
}

TEST(FlatMap, IterationCoversExactlyLiveEntries) {
  FlatMap<std::uint32_t, int> map;
  for (std::uint32_t i = 0; i < 300; ++i) map[i * 17] = static_cast<int>(i);
  for (std::uint32_t i = 0; i < 300; i += 3) map.erase(i * 17);

  std::vector<std::uint32_t> keys;
  for (const auto& [key, value] : map) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  ASSERT_EQ(keys.size(), map.size());
  std::vector<std::uint32_t> expected;
  for (std::uint32_t i = 0; i < 300; ++i) {
    if (i % 3 != 0) expected.push_back(i * 17);
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(keys, expected);
}

TEST(FlatMap, GrowthPreservesEntriesAndPurgesTombstones) {
  FlatMap<std::uint64_t, std::uint64_t> map;
  // Interleave inserts and erases so growth happens with tombstones
  // present; all live entries must survive the rehash.
  for (std::uint64_t i = 0; i < 5000; ++i) {
    map[i] = i * i;
    if (i >= 10) map.erase(i - 10);
  }
  EXPECT_EQ(map.size(), 10u);
  for (std::uint64_t i = 4990; i < 5000; ++i) {
    ASSERT_TRUE(map.contains(i));
    EXPECT_EQ(map.find(i)->second, i * i);
  }
}

TEST(FlatMap, ReserveAvoidsRehashDuringFill) {
  FlatMap<std::uint32_t, int> map;
  map.reserve(1000);
  map[0] = 0;
  const int* before = &map.find(0)->second;
  for (std::uint32_t i = 1; i < 1000; ++i) map[i] = static_cast<int>(i);
  // No rehash happened, so the address of the first value is unchanged.
  EXPECT_EQ(&map.find(0)->second, before);
  EXPECT_EQ(map.size(), 1000u);
}

TEST(FlatMap, ProbeStatsAdvance) {
  FlatMap<std::uint32_t, int> map;
  map[7] = 1;
  const auto before = map.probe_stats();
  (void)map.contains(7);
  (void)map.contains(8);
  const auto after = map.probe_stats();
  EXPECT_EQ(after.lookups, before.lookups + 2);
  EXPECT_GE(after.probes, before.probes + 2);
}

TEST(FlatSet, InsertEraseContains) {
  FlatSet<std::uint32_t> set;
  EXPECT_TRUE(set.insert(3));
  EXPECT_FALSE(set.insert(3));  // duplicate
  EXPECT_TRUE(set.insert(5));
  EXPECT_EQ(set.size(), 2u);
  EXPECT_TRUE(set.contains(3));
  EXPECT_FALSE(set.contains(4));
  EXPECT_EQ(set.erase(3), 1u);
  EXPECT_EQ(set.erase(3), 0u);
  EXPECT_FALSE(set.contains(3));

  std::vector<std::uint32_t> keys;
  for (const std::uint32_t key : set) keys.push_back(key);
  EXPECT_EQ(keys, std::vector<std::uint32_t>{5});
}

TEST(FlatHash, AvalanchesSequentialKeys) {
  // Sequential uint32 keys (ASNs, indices) must not cluster into
  // sequential buckets: adjacent keys should land far apart after mix64.
  FlatHash<std::uint32_t> hash;
  std::size_t adjacent = 0;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    const auto a = hash(i) & 4095u;
    const auto b = hash(i + 1) & 4095u;
    if (a + 1 == b || b + 1 == a) ++adjacent;
  }
  EXPECT_LT(adjacent, 10u);  // identity hashing would make this 1000
}

}  // namespace
}  // namespace re::net
