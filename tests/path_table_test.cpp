// Tests for the hash-consed AS-path table: deduplication, prepend
// interning, and id stability across lookup-table rehashes.
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "bgp/network.h"
#include "bgp/path_table.h"

namespace re::bgp {
namespace {

using net::Asn;

TEST(PathTable, EmptyPathIsIdZero) {
  PathTable table;
  EXPECT_EQ(table.size(), 1u);  // the empty path is pre-interned
  const PathId empty = table.intern(std::span<const Asn>{});
  EXPECT_TRUE(empty.is_empty_path());
  EXPECT_EQ(empty, PathId{});
  EXPECT_EQ(table.length(empty), 0u);
  EXPECT_TRUE(table.empty(empty));
  EXPECT_EQ(table.first(empty), Asn{});
  EXPECT_EQ(table.origin(empty), Asn{});
  EXPECT_EQ(table.size(), 1u);  // re-interning added nothing
}

TEST(PathTable, InternDeduplicates) {
  PathTable table;
  const PathId a = table.intern(AsPath{Asn{3356}, Asn{396955}});
  const PathId b = table.intern(AsPath{Asn{3356}, Asn{396955}});
  EXPECT_EQ(a, b);
  EXPECT_EQ(table.size(), 2u);  // empty + one real path

  const PathId c = table.intern(AsPath{Asn{396955}, Asn{3356}});  // reversed
  EXPECT_NE(a, c);
  EXPECT_EQ(table.size(), 3u);
}

TEST(PathTable, AccessorsMatchContents) {
  PathTable table;
  const PathId id = table.intern(AsPath{Asn{1}, Asn{2}, Asn{2}, Asn{3}});
  EXPECT_EQ(table.length(id), 4u);
  EXPECT_EQ(table.first(id), Asn{1});
  EXPECT_EQ(table.origin(id), Asn{3});
  EXPECT_TRUE(table.contains(id, Asn{2}));
  EXPECT_FALSE(table.contains(id, Asn{9}));
  EXPECT_EQ(table.count(id, Asn{2}), 2u);
  EXPECT_EQ(table.count(id, Asn{9}), 0u);
  EXPECT_EQ(table.unique_count(id), 3u);
  EXPECT_EQ(table.path(id), (AsPath{Asn{1}, Asn{2}, Asn{2}, Asn{3}}));
  EXPECT_EQ(table.to_string(id), table.path(id).to_string());
}

TEST(PathTable, PrependedInternsCanonically) {
  PathTable table;
  const PathId base = table.intern(AsPath{Asn{2}, Asn{3}});
  const PathId once = table.prepended(base, Asn{1}, 1);
  EXPECT_EQ(table.path(once), (AsPath{Asn{1}, Asn{2}, Asn{3}}));

  // Prepending is intern-on-miss: the same logical result, built either
  // by prepended() or by interning the contents, is the same id.
  const PathId direct = table.intern(AsPath{Asn{1}, Asn{2}, Asn{3}});
  EXPECT_EQ(once, direct);

  // Multi-copy prepend (origin prepending) in one call.
  const PathId triple = table.prepended(base, Asn{1}, 3);
  EXPECT_EQ(table.path(triple), (AsPath{Asn{1}, Asn{1}, Asn{1}, Asn{2}, Asn{3}}));
  EXPECT_EQ(table.count(triple, Asn{1}), 3u);

  // Zero copies is the identity.
  EXPECT_EQ(table.prepended(base, Asn{1}, 0), base);
}

TEST(PathTable, PrependedFromEmptyPath) {
  PathTable table;
  const PathId id = table.prepended(PathId{}, Asn{7}, 2);
  EXPECT_EQ(table.path(id), (AsPath{Asn{7}, Asn{7}}));
}

TEST(PathTable, IdsStableAcrossRehash) {
  // Intern enough distinct paths to force several lookup-table rehashes
  // and arena reallocations; earlier ids must keep resolving to the same
  // contents (ids live inside queued messages and RIB entries).
  PathTable table;
  std::vector<PathId> ids;
  std::vector<AsPath> expected;
  for (std::uint32_t i = 0; i < 4096; ++i) {
    AsPath path{Asn{i + 1}, Asn{(i * 7) % 1000 + 1}, Asn{65000 + (i % 100)}};
    ids.push_back(table.intern(path));
    expected.push_back(path);
  }
  EXPECT_EQ(table.size(), 1u + 4096u);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(table.path(ids[i]), expected[i]) << "path " << i;
    EXPECT_EQ(table.intern(expected[i]), ids[i]) << "path " << i;
  }
  EXPECT_GT(table.arena_bytes(), 4096u * 3u * sizeof(Asn));
}

TEST(PathTable, DedupAcrossSpeakersSharingOneTable) {
  // Speakers of one network share the network's table: the same path
  // announced through a chain is stored once, and each hop's prepend is
  // one new entry — not one per (speaker, message) pair.
  BgpNetwork network(7);
  network.connect_transit(Asn{2}, Asn{1});
  network.connect_transit(Asn{3}, Asn{2});
  network.connect_transit(Asn{4}, Asn{3});
  const net::Prefix prefix = *net::Prefix::parse("163.253.63.0/24");
  network.announce(Asn{1}, prefix);
  network.run_to_convergence();

  PathTable& table = network.paths();
  ASSERT_EQ(&network.speaker(Asn{2})->paths(), &table);
  ASSERT_EQ(&network.speaker(Asn{4})->paths(), &table);

  const Route* at2 = network.speaker(Asn{2})->best(prefix);
  const Route* at3 = network.speaker(Asn{3})->best(prefix);
  const Route* at4 = network.speaker(Asn{4})->best(prefix);
  ASSERT_NE(at2, nullptr);
  ASSERT_NE(at3, nullptr);
  ASSERT_NE(at4, nullptr);
  EXPECT_EQ(table.path(at2->path), (AsPath{Asn{1}}));
  EXPECT_EQ(table.path(at3->path), (AsPath{Asn{2}, Asn{1}}));
  EXPECT_EQ(table.path(at4->path), (AsPath{Asn{3}, Asn{2}, Asn{1}}));

  // Re-announcing produces the same interned ids; the table grows by
  // nothing on the second pass.
  const std::size_t interned = table.size();
  network.withdraw(Asn{1}, prefix);
  network.run_to_convergence();
  network.announce(Asn{1}, prefix);
  network.run_to_convergence();
  EXPECT_EQ(table.size(), interned);
  EXPECT_EQ(table.path(network.speaker(Asn{4})->best(prefix)->path),
            (AsPath{Asn{3}, Asn{2}, Asn{1}}));
}

TEST(PathTable, RouteCacheFilledBySetPath) {
  PathTable table;
  Route r;
  r.set_path(table, table.intern(AsPath{Asn{5}, Asn{6}, Asn{7}}));
  EXPECT_EQ(r.path_length, 3u);
  EXPECT_EQ(r.path_first, Asn{5});
  r.set_path(table, PathId{});
  EXPECT_EQ(r.path_length, 0u);
  EXPECT_EQ(r.path_first, Asn{});
}

}  // namespace
}  // namespace re::bgp
