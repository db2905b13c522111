// Tests for the converged-world checkpoint/fork engine: snapshot
// serialization round-trips, fork-vs-fresh bit-identity, resume-mid-sweep
// equivalence, and the partial-convergence
// window flags. The contracts here are exactly the ones the warm bench
// paths rely on, so a regression fails loudly before it can poison a
// sweep.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/checkpoint.h"
#include "core/experiment.h"
#include "io/snapshot_io.h"
#include "netbase/binio.h"
#include "netbase/clock.h"
#include "obs/metrics.h"
#include "probing/seeds.h"
#include "topology/ecosystem.h"

namespace re::core {
namespace {

// Round checkpoints live in a plain map for the resume tests — the
// controller only needs the interface, not real files.
class MemoryStore : public CheckpointStore {
 public:
  bool save(const std::string& key,
            const std::vector<std::uint8_t>& bytes) override {
    blobs_[key] = bytes;
    ++saves_;
    return true;
  }
  std::optional<std::vector<std::uint8_t>> load(
      const std::string& key) override {
    const auto it = blobs_.find(key);
    if (it == blobs_.end()) return std::nullopt;
    return it->second;
  }
  std::map<std::string, std::vector<std::uint8_t>>& blobs() { return blobs_; }
  int saves() const { return saves_; }

 private:
  std::map<std::string, std::vector<std::uint8_t>> blobs_;
  int saves_ = 0;
};

struct World {
  topo::Ecosystem ecosystem;
  probing::SelectionResult selection;
};

World* make_world() {
  topo::EcosystemParams params;
  params = params.scaled(0.05);
  params.seed = 20250529;
  auto* world = new World{topo::Ecosystem::generate(params), {}};
  const probing::SeedDatabase db = probing::SeedDatabase::generate(
      world->ecosystem, probing::SeedGenParams{});
  world->selection = probing::select_probe_seeds(world->ecosystem, db, 11);
  return world;
}

class SnapshotFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { world_ = make_world(); }
  static void TearDownTestSuite() {
    delete world_;
    world_ = nullptr;
  }
  static const World& world() { return *world_; }

  static ExperimentConfig base_config() {
    ExperimentConfig config;
    config.experiment = ReExperiment::kInternet2;
    config.seed = 502;
    return config;
  }

  static ExperimentController controller(const ExperimentConfig& config) {
    return ExperimentController(world().ecosystem, world().selection.seeds,
                                config);
  }

 private:
  static const World* world_;
};
const World* SnapshotFixture::world_ = nullptr;

// ------------------------------------------------------- snapshot codec

TEST_F(SnapshotFixture, SnapshotEncodeDecodeRoundTripsDigest) {
  auto base = controller(base_config()).checkpoint_baseline();
  const std::uint64_t before = base.network.digest();

  net::BinaryWriter writer;
  base.network.encode(writer);
  const std::vector<std::uint8_t> bytes = writer.bytes();
  ASSERT_FALSE(bytes.empty());

  net::BinaryReader reader(bytes);
  const bgp::NetworkSnapshot decoded = bgp::NetworkSnapshot::decode(reader);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(decoded.digest(), before);

  // The decoded snapshot is a working network, not just equal bytes.
  EXPECT_EQ(decoded.fork()->state_digest(), base.network.fork()->state_digest());
}

TEST_F(SnapshotFixture, TruncatedSnapshotFailsDecodeLoudly) {
  auto base = controller(base_config()).checkpoint_baseline();
  net::BinaryWriter writer;
  base.network.encode(writer);
  std::vector<std::uint8_t> bytes = writer.bytes();
  bytes.resize(bytes.size() / 2);
  net::BinaryReader reader(bytes);
  (void)bgp::NetworkSnapshot::decode(reader);
  EXPECT_FALSE(reader.ok());
}

TEST_F(SnapshotFixture, ConcurrentForksAreIndependentAndIdentical) {
  // Fork one snapshot from several threads at once, and have every fork
  // rewrite the same shared prefix column (the TSan target for the shared
  // frozen path arena and the copy-on-write columns). Each fork clones
  // the column it writes: all reach the same state, and the snapshot
  // they share does not change.
  auto base = controller(base_config()).checkpoint_baseline();
  const std::uint64_t before = base.network.digest();
  const topo::MeasurementEndpoints& m = world().ecosystem.measurement();
  constexpr int kForks = 4;
  std::uint64_t digests[kForks] = {};
  std::vector<std::thread> threads;
  for (int i = 0; i < kForks; ++i) {
    threads.emplace_back([&, i] {
      auto network = base.network.fork();
      network->set_origin_prepend(m.internet2_re_origin, m.prefix, 2);
      network->run_to_convergence();
      digests[i] = network->state_digest();
    });
  }
  for (std::thread& t : threads) t.join();
  for (int i = 1; i < kForks; ++i) EXPECT_EQ(digests[i], digests[0]) << i;
  EXPECT_NE(digests[0], before);  // the forks really wrote the column
  EXPECT_EQ(base.network.digest(), before);
}

TEST_F(SnapshotFixture, CopyOnWriteSourceWritesLeaveSnapshotIntact) {
  // The network a checkpoint was taken from keeps sharing its columns
  // with the snapshot: its next write to a column must clone it, never
  // reach the snapshot or a fork taken before or after the write.
  const auto base = controller(base_config()).checkpoint_baseline();
  const auto source = base.network.fork();
  const bgp::NetworkSnapshot snap = source->checkpoint();
  const std::uint64_t taken = snap.digest();
  const auto fork_before = snap.fork();

  const topo::MeasurementEndpoints& m = world().ecosystem.measurement();
  source->set_origin_prepend(m.internet2_re_origin, m.prefix, 3);
  source->run_to_convergence();
  ASSERT_NE(source->state_digest(), taken);

  EXPECT_EQ(snap.digest(), taken);
  const auto fork_after = snap.fork();
  EXPECT_EQ(fork_after->state_digest(), fork_before->state_digest());
  EXPECT_EQ(fork_after->state_digest(), taken);
}

TEST_F(SnapshotFixture, StateDigestTakesNoCheckpoint) {
  // state_digest() reads the live state: it neither counts as a
  // checkpoint nor shares the columns (which would make the next write
  // clone them), and it equals the digest a checkpoint would carry.
  const auto base = controller(base_config()).checkpoint_baseline();
  const auto network = base.network.fork();
  const topo::MeasurementEndpoints& m = world().ecosystem.measurement();
  network->set_origin_prepend(m.internet2_re_origin, m.prefix, 1);
  network->run_to_convergence();

  const obs::Counter& checkpoints =
      obs::registry().counter("snapshot.checkpoints");
  const std::uint64_t before = checkpoints.value();
  const std::uint64_t first = network->state_digest();
  EXPECT_EQ(network->state_digest(), first);
  EXPECT_EQ(checkpoints.value() - before, 0u);
  EXPECT_EQ(network->checkpoint().digest(), first);
  EXPECT_EQ(checkpoints.value() - before, 1u);
}

// ------------------------------------------------------- fork vs fresh

TEST_F(SnapshotFixture, ForkVsFreshBitIdenticalSerial) {
  const ExperimentConfig config = base_config();
  const ExperimentResult cold = controller(config).run();
  const auto base = controller(config).checkpoint_baseline();
  const ExperimentResult warm = controller(config).run(base);
  EXPECT_EQ(result_digest(warm), result_digest(cold));
}

TEST_F(SnapshotFixture, SharedBaselineSeedForksAcrossTrialSeeds) {
  // The bench_seeds sweep shape: trials differ in `seed` but share
  // `baseline_seed`, so one checkpoint serves all of them.
  auto trial_config = [](std::uint64_t seed) {
    ExperimentConfig config;
    config.experiment = ReExperiment::kInternet2;
    config.seed = seed;
    config.baseline_seed = 777;
    return config;
  };
  const auto base = controller(trial_config(1)).checkpoint_baseline();
  for (const std::uint64_t seed : {std::uint64_t{1}, std::uint64_t{2}}) {
    const ExperimentResult cold = controller(trial_config(seed)).run();
    const ExperimentResult warm = controller(trial_config(seed)).run(base);
    EXPECT_EQ(result_digest(warm), result_digest(cold)) << "seed " << seed;
  }
}

TEST_F(SnapshotFixture, IncompatibleCheckpointFallsBackToColdRun) {
  const auto base = controller(base_config()).checkpoint_baseline();

  ExperimentConfig other = base_config();
  other.experiment = ReExperiment::kSurf;
  other.seed = 501;
  EXPECT_FALSE(controller(other).compatible(base));
  // run(base) on the incompatible config still produces the cold result.
  const ExperimentResult cold = controller(other).run();
  const ExperimentResult fallback = controller(other).run(base);
  EXPECT_EQ(result_digest(fallback), result_digest(cold));
}

// ------------------------------------------------------- resume mid-sweep

TEST_F(SnapshotFixture, ResumeMidSweepMatchesUninterruptedRun) {
  const ExperimentResult uninterrupted = controller(base_config()).run();

  MemoryStore store;
  ExperimentConfig aborted = base_config();
  aborted.checkpoint_store = &store;
  aborted.checkpoint_key = "resume-test";
  aborted.abort_after_round = 3;
  const ExperimentResult partial = controller(aborted).run();
  EXPECT_EQ(partial.windows.size(), 4u);  // rounds 0..3 then the abort
  EXPECT_GT(store.saves(), 0);

  ExperimentConfig resumed = base_config();
  resumed.checkpoint_store = &store;
  resumed.checkpoint_key = "resume-test";
  resumed.resume = true;
  const ExperimentResult result = controller(resumed).run();
  EXPECT_EQ(result_digest(result), result_digest(uninterrupted));
}

TEST_F(SnapshotFixture, ResumeWithCorruptCheckpointFallsBackToColdRun) {
  MemoryStore store;
  ExperimentConfig config = base_config();
  config.checkpoint_store = &store;
  config.checkpoint_key = "corrupt-test";
  const ExperimentResult uninterrupted = controller(config).run();

  auto& blob = store.blobs().at("corrupt-test");
  blob.resize(blob.size() / 3);
  ExperimentConfig resumed = config;
  resumed.resume = true;
  const ExperimentResult result = controller(resumed).run();
  EXPECT_EQ(result_digest(result), result_digest(uninterrupted));
}

TEST_F(SnapshotFixture, ResumeRejectsCheckpointFromDifferentSeed) {
  MemoryStore store;
  ExperimentConfig config = base_config();
  config.checkpoint_store = &store;
  config.abort_after_round = 2;
  (void)controller(config).run();

  // A resume under a different seed must not splice foreign state; it
  // reruns cold and so matches that seed's uninterrupted digest.
  ExperimentConfig other = base_config();
  other.seed = 503;
  const ExperimentResult cold = controller(other).run();
  other.checkpoint_store = &store;
  other.resume = true;
  const ExperimentResult resumed = controller(other).run();
  EXPECT_EQ(result_digest(resumed), result_digest(cold));
}

TEST_F(SnapshotFixture, ResumeRejectsCheckpointOfAnotherSeedList) {
  // Same seed, different seed lists: the checkpoint's observations belong
  // to another run, in either direction. A resume must neither splice
  // them in nor index past them; it reruns cold.
  const std::vector<probing::PrefixSeeds>& full = world().selection.seeds;
  const std::vector<probing::PrefixSeeds> shorter(
      full.begin(), full.begin() + static_cast<std::ptrdiff_t>(full.size() / 2));
  ASSERT_FALSE(shorter.empty());

  const auto run = [&](const std::vector<probing::PrefixSeeds>& seeds,
                       MemoryStore* store, int abort_after, bool resume) {
    ExperimentConfig config = base_config();
    config.checkpoint_store = store;
    config.abort_after_round = abort_after;
    config.resume = resume;
    return ExperimentController(world().ecosystem, seeds, config).run();
  };
  for (const bool abort_on_full : {true, false}) {
    const std::vector<probing::PrefixSeeds>& written =
        abort_on_full ? full : shorter;
    const std::vector<probing::PrefixSeeds>& resumed_on =
        abort_on_full ? shorter : full;
    MemoryStore store;
    (void)run(written, &store, 4, false);
    const ExperimentResult resumed = run(resumed_on, &store, -1, true);
    const ExperimentResult cold = run(resumed_on, nullptr, -1, false);
    EXPECT_EQ(resumed.observations.size(), resumed_on.size());
    EXPECT_EQ(result_digest(resumed), result_digest(cold))
        << (abort_on_full ? "full then shorter" : "shorter then full");
  }
}

// ---------------------------------------------------- observation codec

// One observation's checkpoint bytes: `round_targets[r]` outcomes in
// round r, every one answering on `vlan`.
std::vector<std::uint8_t> observation_bytes(
    const std::vector<std::size_t>& round_targets, int vlan) {
  const net::Prefix prefix = *net::Prefix::parse("128.0.0.0/24");
  net::BinaryWriter w;
  w.u32(prefix.network().value());
  w.u8(prefix.length());
  w.u32(50001);
  w.u8(0);
  w.u64(round_targets.size());
  for (const std::size_t targets : round_targets) {
    w.u32(prefix.network().value());
    w.u8(prefix.length());
    w.u32(50001);
    w.u64(0);
    w.u64(targets);
    for (std::size_t t = 0; t < targets; ++t) {
      w.u32(prefix.address_at(1 + t).value());
      w.boolean(true);
      w.u32(static_cast<std::uint32_t>(vlan));
    }
  }
  return w.bytes();
}

TEST(ObservationCodec, RoundTripsByteForByte) {
  const std::vector<std::uint8_t> bytes = observation_bytes({3, 3}, 17);
  net::BinaryReader r(bytes);
  const std::optional<PrefixObservation> obs = decode_observation(r, {18, 17});
  ASSERT_TRUE(obs.has_value());
  EXPECT_TRUE(r.ok());
  ASSERT_EQ(obs->rounds.size(), 2u);
  EXPECT_EQ(obs->rounds[1].response_count(), 3u);
  EXPECT_EQ(obs->rounds[1].outcomes[2].vlan_id, 17);
  net::BinaryWriter w;
  encode_observation(w, *obs);
  EXPECT_EQ(w.bytes(), bytes);
}

TEST(ObservationCodec, RejectsRoundsThatDisagreeOnTargetCount) {
  // The column stores the target list once; a later round with another
  // count cannot be one of its rounds.
  const std::vector<std::uint8_t> bytes = observation_bytes({2, 3}, 17);
  net::BinaryReader r(bytes);
  EXPECT_FALSE(decode_observation(r, {18, 17}).has_value());
}

TEST(ObservationCodec, RejectsVlanOutsideTheExperimentPair) {
  const std::vector<std::uint8_t> bytes = observation_bytes({2}, 1001);
  net::BinaryReader r(bytes);
  EXPECT_FALSE(decode_observation(r, {18, 17}).has_value());
}

// ------------------------------------------------------- disk store

TEST(FileCheckpointStore, RoundTripsAndSurvivesResave) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "re-ckpt-roundtrip";
  std::filesystem::remove_all(dir);
  io::FileCheckpointStore store(dir.string());

  const std::vector<std::uint8_t> blob = {0x52, 0x45, 0x00, 0xff, 0x10};
  ASSERT_TRUE(store.save("surf run/1", blob));
  EXPECT_EQ(store.load("surf run/1"), blob);

  const std::vector<std::uint8_t> next = {0x01};
  ASSERT_TRUE(store.save("surf run/1", next));
  EXPECT_EQ(store.load("surf run/1"), next);
  EXPECT_EQ(store.load("missing"), std::nullopt);
}

TEST(FileCheckpointStore, CorruptFileLoadsAsNothing) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "re-ckpt-corrupt";
  std::filesystem::remove_all(dir);
  io::FileCheckpointStore store(dir.string());
  ASSERT_TRUE(store.save("key", {1, 2, 3, 4, 5, 6, 7, 8}));

  const std::string path = store.path_for("key");
  // Flip one payload byte: the checksum must catch it.
  FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, -1, SEEK_END);
  std::fputc(0x7f, f);
  std::fclose(f);
  EXPECT_EQ(store.load("key"), std::nullopt);

  // Truncated below the header is also nothing, not a crash.
  std::filesystem::resize_file(path, 4);
  EXPECT_EQ(store.load("key"), std::nullopt);
}

// ----------------------------------------------- partial-convergence flag

TEST_F(SnapshotFixture, FullConvergenceMarksEveryWindowConverged) {
  const ExperimentResult result = controller(base_config()).run();
  for (const RoundWindow& w : result.windows) {
    EXPECT_TRUE(w.converged) << w.config.label();
    EXPECT_LE(w.converged_at, w.probe_start) << w.config.label();
  }
}

TEST_F(SnapshotFixture, PartialConvergenceReportsHonestTimestamps) {
  // With a one-second wait BGP cannot settle before probing; the windows
  // must say so instead of reporting the probe time as convergence (the
  // old fake-timestamp bug).
  ExperimentConfig config = base_config();
  config.full_convergence = false;
  config.convergence_wait = net::kSecond;
  const ExperimentResult result = controller(config).run();
  bool any_unconverged = false;
  for (const RoundWindow& w : result.windows) {
    EXPECT_LE(w.converged_at, w.probe_start) << w.config.label();
    if (!w.converged) {
      any_unconverged = true;
      // The honest timestamp marks the last delivery before the probe,
      // never the probe itself.
      EXPECT_LT(w.converged_at, w.probe_start) << w.config.label();
    }
  }
  EXPECT_TRUE(any_unconverged);
}

}  // namespace
}  // namespace re::core
