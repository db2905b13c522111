// Tests for BgpNetwork: propagation, convergence, prepend changes,
// failures, collectors, and determinism.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "bgp/network.h"
#include "bgp/rib_store.h"
#include "netbase/binio.h"
#include "topology/ecosystem.h"

namespace re::bgp {
namespace {

using net::Asn;
using net::Prefix;

const Prefix kPrefix = *Prefix::parse("163.253.63.0/24");

// A small line topology: origin(1) <- transit(2) <- edge(3), with a second
// path origin(1) <- transit(4) <- edge(3).
struct DiamondFixture {
  BgpNetwork network{1};
  DiamondFixture() {
    network.connect_transit(Asn{2}, Asn{1});  // 2 provides transit to 1
    network.connect_transit(Asn{4}, Asn{1});
    network.connect_transit(Asn{2}, Asn{3});
    network.connect_transit(Asn{4}, Asn{3});
  }
};

// The snapshot's column for `prefix`, or nullptr.
const PrefixColumn* column_of(const BgpNetwork::Snapshot& snap,
                              const Prefix& prefix) {
  for (std::size_t i = 0; i < snap.prefixes.size(); ++i) {
    if (snap.prefixes[i] == prefix) return snap.columns[i].get();
  }
  return nullptr;
}

std::vector<std::uint8_t> encode(const BgpNetwork::Snapshot& snap) {
  net::BinaryWriter writer;
  snap.encode(writer);
  return writer.bytes();
}

TEST(BgpNetwork, PropagatesAnnouncementToAll) {
  DiamondFixture f;
  f.network.announce(Asn{1}, kPrefix);
  const ConvergenceStats stats = f.network.run_to_convergence();
  EXPECT_GT(stats.messages_delivered, 0u);
  for (const Asn asn : {Asn{2}, Asn{3}, Asn{4}}) {
    EXPECT_NE(f.network.speaker(asn)->best(kPrefix), nullptr)
        << asn.to_string();
  }
  // Edge AS 3 has a two-hop path through one of its providers.
  EXPECT_EQ(f.network.speaker(Asn{3})->best(kPrefix)->path_length, 2u);
}

TEST(BgpNetwork, WithdrawRemovesEverywhere) {
  DiamondFixture f;
  f.network.announce(Asn{1}, kPrefix);
  f.network.run_to_convergence();
  f.network.withdraw(Asn{1}, kPrefix);
  f.network.run_to_convergence();
  for (const Asn asn : {Asn{2}, Asn{3}, Asn{4}}) {
    EXPECT_EQ(f.network.speaker(asn)->best(kPrefix), nullptr)
        << asn.to_string();
  }
}

TEST(BgpNetwork, ValleyFreePropagation) {
  // peer1 -- origin's provider chain: a peer of a transit must not hear
  // provider-learned routes.
  BgpNetwork network(1);
  network.connect_transit(Asn{10}, Asn{1});   // 10 provides to origin 1
  network.connect_transit(Asn{20}, Asn{10});  // 20 provides to 10
  network.connect_peering(Asn{20}, Asn{30});  // 20 peers 30
  network.connect_peering(Asn{30}, Asn{40});  // 30 peers 40
  network.announce(Asn{1}, kPrefix);
  network.run_to_convergence();
  // 30 hears it (customer route of 20 exported to peer).
  EXPECT_NE(network.speaker(Asn{30})->best(kPrefix), nullptr);
  // 40 must NOT hear it from 30 (peer route to a peer = valley).
  EXPECT_EQ(network.speaker(Asn{40})->best(kPrefix), nullptr);
}

TEST(BgpNetwork, PrependChangePropagates) {
  DiamondFixture f;
  f.network.announce(Asn{1}, kPrefix);
  f.network.run_to_convergence();
  const std::size_t before =
      f.network.speaker(Asn{3})->best(kPrefix)->path_length;
  f.network.set_origin_prepend(Asn{1}, kPrefix, 3);
  f.network.run_to_convergence();
  const std::size_t after =
      f.network.speaker(Asn{3})->best(kPrefix)->path_length;
  EXPECT_EQ(after, before + 3);
}

TEST(BgpNetwork, PrependChangeIsIdempotent) {
  DiamondFixture f;
  f.network.announce(Asn{1}, kPrefix);
  f.network.run_to_convergence();
  f.network.set_origin_prepend(Asn{1}, kPrefix, 2);
  f.network.run_to_convergence();
  // Re-applying the same prepend level generates no new messages.
  f.network.set_origin_prepend(Asn{1}, kPrefix, 2);
  EXPECT_TRUE(f.network.converged());
}

TEST(BgpNetwork, EqualPrefEdgeSwitchesWithPrepends) {
  // The paper's core mechanism at network scale: an equal-localpref edge
  // flips between two providers as prepends change relative path lengths.
  BgpNetwork network(7);
  // R&E side: origin 100 -> chain 101 -> edge; commodity: origin 200 -> edge.
  network.connect_transit(Asn{101}, Asn{100}, /*re_edge=*/true);
  network.connect_transit(Asn{101}, Asn{42}, /*re_edge=*/true);
  network.connect_transit(Asn{200}, Asn{42}, /*re_edge=*/false);
  Speaker* edge = network.speaker(Asn{42});
  edge->import_policy().re_stance = ReStance::kEqualPref;

  network.speaker(Asn{100})->export_policy().default_prepend = 4;
  bgp::OriginationOptions re_only;
  re_only.re_only = true;
  network.announce(Asn{100}, kPrefix, re_only);
  network.announce(Asn{200}, kPrefix);
  network.run_to_convergence();
  // R&E path [101, 100x5] = 6 vs commodity [200] = 1: commodity wins.
  EXPECT_FALSE(edge->best(kPrefix)->re_edge);

  network.set_origin_prepend(Asn{100}, kPrefix, 0);
  network.set_origin_prepend(Asn{200}, kPrefix, 4);
  network.run_to_convergence();
  // R&E [101, 100] = 2 vs commodity [200x5] = 5: R&E wins.
  EXPECT_TRUE(edge->best(kPrefix)->re_edge);
}

TEST(BgpNetwork, FailAndRestoreSession) {
  DiamondFixture f;
  f.network.announce(Asn{1}, kPrefix);
  f.network.run_to_convergence();
  Speaker* edge = f.network.speaker(Asn{3});
  const Asn used = edge->best(kPrefix)->learned_from;
  const Asn other = used == Asn{2} ? Asn{4} : Asn{2};

  f.network.fail_session(Asn{3}, used, kPrefix);
  f.network.run_to_convergence();
  ASSERT_NE(edge->best(kPrefix), nullptr);
  EXPECT_EQ(edge->best(kPrefix)->learned_from, other);

  f.network.restore_session(Asn{3}, used, kPrefix);
  f.network.run_to_convergence();
  EXPECT_EQ(edge->best(kPrefix)->learned_from, used);
}

TEST(BgpNetwork, FailedSessionDropsInFlightMessages) {
  // The failure must sever the session immediately: an announcement queued
  // on the edge before the failure never reaches the far end.
  BgpNetwork network(1);
  network.connect_transit(Asn{2}, Asn{1});
  network.announce(Asn{1}, kPrefix);  // update to 2 now in flight
  network.fail_session(Asn{2}, Asn{1}, kPrefix);
  network.run_to_convergence();
  EXPECT_EQ(network.speaker(Asn{2})->best(kPrefix), nullptr);

  // The session stays down for later export runs too: re-announcing while
  // failed must not leak across.
  network.withdraw(Asn{1}, kPrefix);
  network.run_to_convergence();
  network.announce(Asn{1}, kPrefix);
  network.run_to_convergence();
  EXPECT_EQ(network.speaker(Asn{2})->best(kPrefix), nullptr);

  network.restore_session(Asn{2}, Asn{1}, kPrefix);
  network.run_to_convergence();
  EXPECT_NE(network.speaker(Asn{2})->best(kPrefix), nullptr);
}

TEST(BgpNetwork, NoUpdateCrossesFailedSession) {
  DiamondFixture f;
  f.network.announce(Asn{1}, kPrefix);
  f.network.run_to_convergence();
  Speaker* edge = f.network.speaker(Asn{3});
  const Asn used = edge->best(kPrefix)->learned_from;
  const Asn other = used == Asn{2} ? Asn{4} : Asn{2};

  f.network.fail_session(Asn{3}, used, kPrefix);
  f.network.run_to_convergence();

  // A routing change upstream triggers fresh exports everywhere; none may
  // cross the failed edge, so AS 3 keeps exactly one candidate.
  f.network.set_origin_prepend(Asn{1}, kPrefix, 2);
  f.network.run_to_convergence();
  const std::vector<Route> candidates = edge->candidates(kPrefix);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates.front().learned_from, other);
}

TEST(BgpNetwork, WithdrawsFromPeerWhenBestBecomesIneligible) {
  // 10 hears the prefix from its customer 1 (exportable to its peer 30)
  // and, longer, from its provider 20 (not exportable to a peer). Losing
  // the customer route leaves 10 with a best it may not export to 30, so
  // 30 must be sent a withdrawal, not kept on the stale announcement.
  BgpNetwork network(1);
  network.connect_transit(Asn{10}, Asn{1});
  network.connect_transit(Asn{5}, Asn{1});
  network.connect_transit(Asn{20}, Asn{5});
  network.connect_transit(Asn{20}, Asn{10});
  network.connect_peering(Asn{10}, Asn{30});
  network.announce(Asn{1}, kPrefix);
  network.run_to_convergence();
  ASSERT_NE(network.speaker(Asn{30})->best(kPrefix), nullptr);
  EXPECT_EQ(network.speaker(Asn{30})->best(kPrefix)->learned_from, Asn{10});

  network.fail_session(Asn{1}, Asn{10}, kPrefix);
  network.run_to_convergence();
  ASSERT_NE(network.speaker(Asn{10})->best(kPrefix), nullptr);
  EXPECT_EQ(network.speaker(Asn{10})->best(kPrefix)->learned_from, Asn{20});
  EXPECT_EQ(network.speaker(Asn{30})->best(kPrefix), nullptr);
}

TEST(BgpNetwork, DampingSurvivesSnapshotCodecAndFork) {
  // 10 damps and hears the prefix from 2 (short) and 3 (via 4, longer).
  // Three failures of the 10-2 session suppress 2's route; once restored
  // it is held but not used. A fork, in memory or through the disk codec,
  // must keep that suppression: losing 3's route leaves 10 with nothing.
  BgpNetwork network(1);
  network.connect_transit(Asn{2}, Asn{1});
  network.connect_transit(Asn{4}, Asn{1});
  network.connect_transit(Asn{3}, Asn{4});
  network.connect_transit(Asn{2}, Asn{10});
  network.connect_transit(Asn{3}, Asn{10});
  network.speaker(Asn{10})->damping().enabled = true;
  network.announce(Asn{1}, kPrefix);
  network.run_to_convergence();
  ASSERT_EQ(network.speaker(Asn{10})->best(kPrefix)->learned_from, Asn{2});
  for (int flap = 0; flap < 3; ++flap) {
    network.fail_session(Asn{10}, Asn{2}, kPrefix);
    network.run_to_convergence();
    network.restore_session(Asn{10}, Asn{2}, kPrefix);
    network.run_to_convergence();
  }
  const Speaker& damped = *network.speaker(Asn{10});
  ASSERT_EQ(damped.candidates(kPrefix).size(), 2u);  // 2's route is held
  ASSERT_EQ(damped.best(kPrefix)->learned_from, Asn{3});

  const BgpNetwork::Snapshot snap = network.checkpoint();
  net::BinaryWriter writer;
  snap.encode(writer);
  const std::vector<std::uint8_t> bytes = writer.bytes();
  net::BinaryReader reader(bytes);
  const BgpNetwork::Snapshot decoded = BgpNetwork::Snapshot::decode(reader);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(decoded.digest(), snap.digest());

  auto in_memory = snap.fork();
  auto from_disk = decoded.fork();
  for (BgpNetwork* fork : {in_memory.get(), from_disk.get()}) {
    fork->fail_session(Asn{10}, Asn{3}, kPrefix);
    fork->run_to_convergence();
    EXPECT_EQ(fork->speaker(Asn{10})->candidates(kPrefix).size(), 1u);
    EXPECT_EQ(fork->speaker(Asn{10})->best(kPrefix), nullptr);
  }
  EXPECT_EQ(in_memory->state_digest(), from_disk->state_digest());
  // The forks' writes cloned the column; the source still decides as before.
  EXPECT_EQ(damped.best(kPrefix)->learned_from, Asn{3});
}

TEST(BgpNetwork, CollectorRecordsAnnounceAndWithdraw) {
  DiamondFixture f;
  f.network.add_collector_peer(Asn{3});
  f.network.announce(Asn{1}, kPrefix);
  f.network.run_to_convergence();
  f.network.withdraw(Asn{1}, kPrefix);
  f.network.run_to_convergence();

  const auto& updates = f.network.update_log().updates();
  ASSERT_GE(updates.size(), 2u);
  EXPECT_FALSE(updates.front().withdraw);
  EXPECT_EQ(updates.front().peer, Asn{3});
  // Collector paths include the peer's own ASN.
  EXPECT_EQ(f.network.update_log().path_span(updates.front()).front(), Asn{3});
  EXPECT_EQ(f.network.update_log().path_span(updates.front()).back(), Asn{1});
  EXPECT_TRUE(updates.back().withdraw);
}

TEST(BgpNetwork, VrfSplitPeerFeedsCommodityView) {
  // Peer prefers its R&E route but exports the commodity VRF (§4.1.1).
  BgpNetwork network(3);
  network.connect_transit(Asn{101}, Asn{100}, /*re_edge=*/true);  // R&E origin
  network.connect_transit(Asn{101}, Asn{42}, /*re_edge=*/true);
  network.connect_transit(Asn{201}, Asn{200});                 // commodity origin
  network.connect_transit(Asn{201}, Asn{42});
  Speaker* edge = network.speaker(Asn{42});
  edge->import_policy().re_stance = ReStance::kPreferRe;
  edge->set_vrf_split_export(true);
  network.add_collector_peer(Asn{42});

  network.announce(Asn{200}, kPrefix);
  network.run_to_convergence();
  bgp::OriginationOptions re_only;
  re_only.re_only = true;
  network.announce(Asn{100}, kPrefix, re_only);
  network.run_to_convergence();

  // Edge forwards via R&E...
  EXPECT_TRUE(edge->best(kPrefix)->re_edge);
  // ...but the collector last saw the commodity origin.
  const auto rib = network.update_log().rib_at(kPrefix, network.clock().now());
  ASSERT_TRUE(rib.count(Asn{42}));
  EXPECT_EQ(rib.at(Asn{42}).origin(), Asn{200});
}

TEST(BgpNetwork, ReOnlyAnnouncementInvisibleToCommodity) {
  BgpNetwork network(5);
  network.connect_transit(Asn{10}, Asn{1}, /*re_edge=*/true);
  network.connect_transit(Asn{10}, Asn{2}, /*re_edge=*/true);
  network.connect_transit(Asn{20}, Asn{10}, /*re_edge=*/false);  // commodity provider
  bgp::OriginationOptions re_only;
  re_only.re_only = true;
  network.announce(Asn{1}, kPrefix, re_only);
  network.run_to_convergence();
  EXPECT_NE(network.speaker(Asn{2})->best(kPrefix), nullptr);
  EXPECT_EQ(network.speaker(Asn{20})->best(kPrefix), nullptr);
}

TEST(BgpNetwork, DeterministicForSeed) {
  auto run = [](std::uint64_t seed) {
    BgpNetwork network(seed);
    network.connect_transit(Asn{2}, Asn{1});
    network.connect_transit(Asn{4}, Asn{1});
    network.connect_transit(Asn{2}, Asn{3});
    network.connect_transit(Asn{4}, Asn{3});
    network.add_collector_peer(Asn{3});
    network.announce(Asn{1}, kPrefix);
    network.run_to_convergence();
    std::string log;
    for (const auto& u : network.update_log().updates()) {
      log += std::to_string(u.time) + ":" +
             network.update_log().paths().to_string(u.path) + ";";
    }
    return log;
  };
  EXPECT_EQ(run(77), run(77));
}

TEST(BgpNetwork, ClearPrefixDropsAllState) {
  DiamondFixture f;
  f.network.announce(Asn{1}, kPrefix);
  f.network.run_to_convergence();
  f.network.clear_prefix(kPrefix);
  for (const Asn asn : {Asn{1}, Asn{2}, Asn{3}, Asn{4}}) {
    EXPECT_EQ(f.network.speaker(asn)->best(kPrefix), nullptr);
  }
  // A fresh announcement works normally afterwards.
  f.network.announce(Asn{1}, kPrefix);
  f.network.run_to_convergence();
  EXPECT_NE(f.network.speaker(Asn{3})->best(kPrefix), nullptr);
}

TEST(BgpNetwork, ConvergenceClockAdvances) {
  DiamondFixture f;
  const net::SimTime before = f.network.clock().now();
  f.network.announce(Asn{1}, kPrefix);
  const ConvergenceStats stats = f.network.run_to_convergence();
  EXPECT_GT(stats.converged_at, before);
  EXPECT_TRUE(f.network.converged());
}

TEST(BgpNetwork, AddSpeakerIdempotent) {
  BgpNetwork network(1);
  Speaker& a = network.add_speaker(Asn{5});
  Speaker& b = network.add_speaker(Asn{5});
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(network.speaker_count(), 1u);
}

// ------------------------------------------------------- prefix columns

TEST(BgpNetwork, ColumnsHoldOneSlotPerSpeaker) {
  // AS 9 peers with edge AS 3 and is the last speaker added. 3 exports no
  // provider-learned route to a peer, so 9's slot stays empty; it is still
  // a slot. The column holds one per speaker when created, when a fork
  // clones it and when decoded.
  DiamondFixture f;
  f.network.connect_peering(Asn{3}, Asn{9});
  f.network.announce(Asn{1}, kPrefix);
  f.network.run_to_convergence();
  const std::size_t speakers = f.network.speaker_count();
  ASSERT_EQ(speakers, 5u);
  const BgpNetwork::Snapshot snap = f.network.checkpoint();
  const PrefixColumn* created = column_of(snap, kPrefix);
  ASSERT_NE(created, nullptr);
  EXPECT_EQ(created->states.size(), speakers);
  EXPECT_NE(created->state(f.network.speaker(Asn{3})->index()), nullptr);
  EXPECT_EQ(created->state(f.network.speaker(Asn{9})->index()), nullptr);

  const auto fork = snap.fork();
  fork->set_origin_prepend(Asn{1}, kPrefix, 2);
  fork->run_to_convergence();
  const BgpNetwork::Snapshot forked = fork->checkpoint();
  const PrefixColumn* cloned = column_of(forked, kPrefix);
  ASSERT_NE(cloned, nullptr);
  EXPECT_NE(cloned, created);  // the fork's first write cloned it
  EXPECT_EQ(cloned->states.size(), speakers);

  const std::vector<std::uint8_t> bytes = encode(snap);
  net::BinaryReader reader(bytes);
  const BgpNetwork::Snapshot decoded = BgpNetwork::Snapshot::decode(reader);
  ASSERT_TRUE(reader.ok());
  const PrefixColumn* read = column_of(decoded, kPrefix);
  ASSERT_NE(read, nullptr);
  EXPECT_EQ(read->states.size(), speakers);
}

TEST(BgpNetwork, SpeakerAddedAfterItsColumnWritesIt) {
  // AS 7 joins as a customer of 2 after the prefix converged, so the
  // column was made with one slot too few. The prepend change re-exports
  // the prefix to 7, whose first write grows the column.
  DiamondFixture f;
  f.network.announce(Asn{1}, kPrefix);
  f.network.run_to_convergence();
  f.network.connect_transit(Asn{2}, Asn{7});
  f.network.set_origin_prepend(Asn{1}, kPrefix, 1);
  f.network.run_to_convergence();
  const Route* best = f.network.speaker(Asn{7})->best(kPrefix);
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->learned_from, Asn{2});
  const BgpNetwork::Snapshot snap = f.network.checkpoint();
  EXPECT_EQ(column_of(snap, kPrefix)->states.size(),
            f.network.speaker_count());
}

TEST(BgpNetwork, FailedSessionForgetsWhatWasSentButKeepsItsFlow) {
  // A failed session forgets what was last sent over it (restoration
  // re-advertises from scratch) but keeps its FIFO clamp and jitter
  // counter; both survive the codec, and a second encode of the decoded
  // snapshot gives the same bytes.
  DiamondFixture f;
  f.network.announce(Asn{1}, kPrefix);
  f.network.run_to_convergence();
  f.network.fail_session(Asn{2}, Asn{1}, kPrefix);
  f.network.run_to_convergence();
  const BgpNetwork::Snapshot snap = f.network.checkpoint();
  const PrefixColumn* column = column_of(snap, kPrefix);
  ASSERT_NE(column, nullptr);
  const EdgeState* failed =
      column->edges.find_concurrent(edge_key(Asn{1}, Asn{2}));
  ASSERT_NE(failed, nullptr);
  EXPECT_FALSE(failed->has_sent);
  EXPECT_TRUE(failed->has_flow);
  EXPECT_GT(failed->messages, 0u);
  const EdgeState* live =
      column->edges.find_concurrent(edge_key(Asn{1}, Asn{4}));
  ASSERT_NE(live, nullptr);
  EXPECT_TRUE(live->has_sent);
  EXPECT_TRUE(live->has_flow);

  const std::vector<std::uint8_t> bytes = encode(snap);
  net::BinaryReader reader(bytes);
  const BgpNetwork::Snapshot decoded = BgpNetwork::Snapshot::decode(reader);
  ASSERT_TRUE(reader.ok());
  const EdgeState* read = column_of(decoded, kPrefix)->edges.find_concurrent(
      edge_key(Asn{1}, Asn{2}));
  ASSERT_NE(read, nullptr);
  EXPECT_FALSE(read->has_sent);
  EXPECT_TRUE(read->has_flow);
  EXPECT_EQ(read->messages, failed->messages);
  EXPECT_EQ(read->last_delivery, failed->last_delivery);
  EXPECT_EQ(encode(decoded), bytes);
}

TEST(BgpNetwork, DecodeRejectsColumnsTheInputCannotPayFor) {
  // A crafted snapshot: 1,024 speakers with no sessions, each holding one
  // prefix no other speaker holds. It is about 190 KB, but decoding it
  // into dense columns would take 1,024 columns of 1,024 slots (128 MiB).
  // Decode must refuse it before allocating more than a small multiple of
  // its length.
  constexpr std::uint32_t kSpeakers = 1024;
  net::BinaryWriter w;
  w.u64(1);  // seed
  w.i64(0);  // now
  w.u64(0);  // next_seq
  w.u64(1);  // path table: the implicit empty path only
  w.u64(kSpeakers);
  for (std::uint32_t i = 0; i < kSpeakers; ++i) {
    Speaker::Snapshot speaker;
    speaker.asn = Asn{i + 1};
    PrefixState state;
    state.prefix = Prefix(net::IPv4Address(0x0a000000u + (i << 8)), 24);
    state.local = true;
    const PrefixState* rib[] = {&state};
    speaker.encode(w, rib);
  }
  w.u64(0);  // queue
  w.u64(0);  // edge flows
  w.u64(0);  // sent
  w.u64(0);  // collector peers
  w.u64(0);  // collector sent
  UpdateLog{}.encode(w);
  const std::vector<std::uint8_t> bytes = w.bytes();

  net::BinaryReader reader(bytes);
  const BgpNetwork::Snapshot decoded = BgpNetwork::Snapshot::decode(reader);
  EXPECT_TRUE(reader.failed());
  EXPECT_FALSE(reader.ok());
  EXPECT_LE(decoded.columns.size() * kSpeakers * sizeof(PrefixState),
            16 * bytes.size());
  EXPECT_LT(decoded.columns.size(), kSpeakers);
}

TEST(RibStore, EraseThenReinsertLeavesADefaultState) {
  RibStore store;
  store.set_speakers(3);
  PrefixState& state = store.state_for_write(1, kPrefix);
  state.local = true;
  state.local_since = 7;
  state.in.push_back(Route{});
  state.best = Route{};
  state.decided_by = DecisionStep::kMed;
  DampingConfig damping;
  damping.enabled = true;
  state.damping.record(Asn{2}, 1000.0, 7, damping);
  store.erase(1, kPrefix);
  EXPECT_EQ(store.state(1, kPrefix), nullptr);

  const PrefixState& again = store.state_for_write(1, kPrefix);
  EXPECT_EQ(again.prefix, kPrefix);
  EXPECT_TRUE(again.in.empty());
  EXPECT_FALSE(again.local);
  EXPECT_EQ(again.local_since, 0);
  EXPECT_FALSE(again.best.has_value());
  EXPECT_EQ(again.decided_by, DecisionStep::kOnlyRoute);
  EXPECT_TRUE(again.damping.empty());
  EXPECT_EQ(store.column(kPrefix)->states.size(), 3u);
}

TEST(BgpNetwork, ProbeLengthsStayHealthy) {
  // Pre-sized topology maps must keep the open-addressing tables healthy:
  // a probe-length regression here means a hash or reservation change
  // broke clustering.
  topo::EcosystemParams params = topo::EcosystemParams{}.scaled(0.06);
  params.seed = 20250806;
  const topo::Ecosystem eco = topo::Ecosystem::generate(params);
  BgpNetwork network(424243);
  eco.build_network(network);
  std::size_t swept = 0;
  for (const topo::PrefixRecord& rec : eco.prefixes()) {
    if (swept == 4) break;
    if (rec.covered) continue;
    ++swept;
    network.announce(rec.origin, rec.prefix);
    network.run_to_convergence();
    network.set_origin_prepend(rec.origin, rec.prefix, 2);
    network.run_to_convergence();
    network.withdraw(rec.origin, rec.prefix);
    network.run_to_convergence();
    network.clear_prefix(rec.prefix);
  }
  const auto stats = network.map_probe_stats();
  ASSERT_GT(stats.lookups, 0u);
  const double avg_probe_length = static_cast<double>(stats.probes) /
                                  static_cast<double>(stats.lookups);
  EXPECT_GE(avg_probe_length, 1.0);
  EXPECT_LT(avg_probe_length, 2.0);
}

}  // namespace
}  // namespace re::bgp
