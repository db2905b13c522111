// Tests for the probing substrate: seed generation, the §3.2 selection
// pipeline, and the prober with its outcome columns.
#include <gtest/gtest.h>

#include "probing/prober.h"
#include "probing/seeds.h"
#include "runtime/thread_pool.h"

namespace re::probing {
namespace {

topo::Ecosystem make_ecosystem() {
  topo::EcosystemParams params;
  params = params.scaled(0.08);
  params.seed = 20250529;
  return topo::Ecosystem::generate(params);
}

class SeedsFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ecosystem_ = new topo::Ecosystem(make_ecosystem());
    db_ = new SeedDatabase(SeedDatabase::generate(*ecosystem_, SeedGenParams{}));
    selection_ = new SelectionResult(select_probe_seeds(*ecosystem_, *db_, 11));
  }
  static void TearDownTestSuite() {
    delete selection_;
    delete db_;
    delete ecosystem_;
  }
  static const topo::Ecosystem& eco() { return *ecosystem_; }
  static const SeedDatabase& db() { return *db_; }
  static const SelectionResult& sel() { return *selection_; }

 private:
  static const topo::Ecosystem* ecosystem_;
  static const SeedDatabase* db_;
  static const SelectionResult* selection_;
};
const topo::Ecosystem* SeedsFixture::ecosystem_ = nullptr;
const SeedDatabase* SeedsFixture::db_ = nullptr;
const SelectionResult* SeedsFixture::selection_ = nullptr;

TEST_F(SeedsFixture, CoverageRatesNearPaper) {
  // §3.2: 65.2% of prefixes had ISI seeds; 73.3% had any seed; 68.0% were
  // responsive; 82.7% of responsive prefixes had three destinations.
  const SelectionStats& stats = sel().stats;
  ASSERT_GT(stats.total_prefixes, 0u);
  const double isi = static_cast<double>(stats.isi_seeded) / stats.total_prefixes;
  const double any = static_cast<double>(stats.any_seeded) / stats.total_prefixes;
  const double responsive =
      static_cast<double>(stats.responsive) / stats.total_prefixes;
  const double three =
      static_cast<double>(stats.with_three_targets) / stats.responsive;
  EXPECT_NEAR(isi, 0.652, 0.05);
  EXPECT_NEAR(any, 0.733, 0.05);
  EXPECT_NEAR(responsive, 0.68, 0.07);
  EXPECT_NEAR(three, 0.827, 0.22);
}

TEST_F(SeedsFixture, CoveredPrefixesAreExcluded) {
  EXPECT_EQ(static_cast<int>(sel().stats.covered_excluded),
            eco().params().covered_prefixes);
  for (const PrefixSeeds& s : sel().seeds) {
    for (const topo::PrefixRecord& p : eco().prefixes()) {
      if (p.prefix == s.prefix) {
        EXPECT_FALSE(p.covered);
      }
    }
  }
}

TEST_F(SeedsFixture, TargetsAreResponsiveAndInPrefix) {
  for (const PrefixSeeds& s : sel().seeds) {
    ASSERT_FALSE(s.targets.empty());
    ASSERT_LE(s.targets.size(), 3u);
    for (const ProbeTarget& t : s.targets) {
      EXPECT_TRUE(db().currently_responsive(t.address));
      EXPECT_TRUE(s.prefix.contains(t.address)) << s.prefix.to_string();
    }
  }
}

TEST_F(SeedsFixture, NoDuplicateTargetsWithinPrefix) {
  for (const PrefixSeeds& s : sel().seeds) {
    for (std::size_t i = 0; i < s.targets.size(); ++i) {
      for (std::size_t j = i + 1; j < s.targets.size(); ++j) {
        EXPECT_NE(s.targets[i].address, s.targets[j].address);
      }
    }
  }
}

TEST_F(SeedsFixture, SeedOriginKindsAccounted) {
  const SelectionStats& stats = sel().stats;
  EXPECT_EQ(stats.isi_only + stats.censys_only + stats.mixed, stats.responsive);
  EXPECT_GT(stats.isi_only, stats.censys_only);  // ISI is ranked first
}

TEST_F(SeedsFixture, InterconnectMarkedOnlyWithTwoPlusTargets) {
  std::size_t interconnects = 0;
  for (const PrefixSeeds& s : sel().seeds) {
    for (std::size_t i = 0; i < s.targets.size(); ++i) {
      if (s.targets[i].routes_via.has_value()) {
        ++interconnects;
        EXPECT_GE(s.targets.size(), 2u);
        EXPECT_EQ(i, s.targets.size() - 1);  // convention: last target
      }
    }
  }
  EXPECT_GT(interconnects, 0u);
}

TEST_F(SeedsFixture, IcmpSeedsComeFromIsi) {
  for (const PrefixSeeds& s : sel().seeds) {
    if (s.seed_origin == SeedOrigin::kIsi) {
      for (const ProbeTarget& t : s.targets) {
        EXPECT_EQ(t.method, ProbeMethod::kIcmpEcho);
      }
    }
    if (s.seed_origin == SeedOrigin::kCensys) {
      for (const ProbeTarget& t : s.targets) {
        EXPECT_NE(t.method, ProbeMethod::kIcmpEcho);
        EXPECT_NE(t.port, 0);
      }
    }
  }
}

TEST_F(SeedsFixture, SelectionDeterministicForSeed) {
  const SelectionResult again = select_probe_seeds(eco(), db(), 11);
  ASSERT_EQ(again.seeds.size(), sel().seeds.size());
  for (std::size_t i = 0; i < again.seeds.size(); ++i) {
    EXPECT_EQ(again.seeds[i].prefix, sel().seeds[i].prefix);
    ASSERT_EQ(again.seeds[i].targets.size(), sel().seeds[i].targets.size());
    for (std::size_t j = 0; j < again.seeds[i].targets.size(); ++j) {
      EXPECT_EQ(again.seeds[i].targets[j].address,
                sel().seeds[i].targets[j].address);
    }
  }
}

TEST_F(SeedsFixture, IsiRecordsRankedByScore) {
  std::size_t checked = 0;
  for (const PrefixSeeds& s : sel().seeds) {
    const auto* isi = db().isi_for(s.prefix);
    if (isi == nullptr) continue;
    for (std::size_t i = 1; i < isi->size(); ++i) {
      ASSERT_GE((*isi)[i - 1].score, (*isi)[i].score);
    }
    if (++checked > 50) break;
  }
  EXPECT_GT(checked, 0u);
}

// ------------------------------------------------------------------ prober

// Columns for `seeds`, naming VLANs {5, 6}, with room for `rounds` rounds.
std::vector<ProbeColumn> make_columns(const std::vector<PrefixSeeds>& seeds,
                                      std::size_t rounds) {
  std::vector<ProbeColumn> columns;
  for (const PrefixSeeds& s : seeds) {
    columns.push_back(ProbeColumn::for_seeds(s, {5, 6}, rounds));
  }
  return columns;
}

RoundResult probe(Prober& prober, const std::vector<PrefixSeeds>& seeds,
                  std::vector<ProbeColumn>& columns, OutcomeCode code,
                  net::SimClock& clock) {
  return prober.run_round(
      seeds.size(), [code](std::size_t, std::size_t) { return code; },
      [&](std::size_t i) -> ProbeColumn& { return columns[i]; }, clock);
}

TEST(Prober, AdvancesClockAtConfiguredRate) {
  // 3 targets at 1 pps should take ~3 seconds.
  std::vector<PrefixSeeds> seeds(1);
  seeds[0].prefix = *net::Prefix::parse("10.0.0.0/24");
  for (int i = 0; i < 3; ++i) {
    seeds[0].targets.push_back(
        ProbeTarget{seeds[0].prefix.address_at(1 + i), ProbeMethod::kIcmpEcho, 0, {}});
  }
  ProberConfig config;
  config.pps = 1.0;
  config.transient_loss = 0.0;
  Prober prober(config, 1);
  net::SimClock clock;
  std::vector<ProbeColumn> columns = make_columns(seeds, 1);
  const RoundResult result = probe(prober, seeds, columns, 1, clock);
  EXPECT_EQ(result.probes_sent, 3u);
  EXPECT_EQ(result.responses, 3u);
  EXPECT_EQ(clock.now(), 3);
  ASSERT_EQ(columns[0].size(), 1u);
  EXPECT_EQ(columns[0][0].response_count(), 3u);
  EXPECT_EQ(columns[0][0].outcomes[0].vlan_id, 5);  // code 1: first VLAN
  EXPECT_EQ(columns[0][0].outcomes[2].address, seeds[0].targets[2].address);
}

TEST(Prober, ResolverSilentCodeMeansNoResponse) {
  std::vector<PrefixSeeds> seeds(1);
  seeds[0].prefix = *net::Prefix::parse("10.0.0.0/24");
  seeds[0].targets.push_back(
      ProbeTarget{seeds[0].prefix.address_at(1), ProbeMethod::kIcmpEcho, 0, {}});
  ProberConfig config;
  config.transient_loss = 0.0;
  Prober prober(config, 1);
  net::SimClock clock;
  std::vector<ProbeColumn> columns = make_columns(seeds, 1);
  const RoundResult result = probe(prober, seeds, columns, kNoResponse, clock);
  EXPECT_EQ(result.responses, 0u);
  const ProbeOutcome outcome = columns[0][0].outcomes[0];
  EXPECT_FALSE(outcome.responded);
  EXPECT_EQ(outcome.vlan_id, -1);
}

TEST(Prober, TransientLossDropsSomeProbes) {
  std::vector<PrefixSeeds> seeds(1);
  seeds[0].prefix = *net::Prefix::parse("10.0.0.0/16");
  for (int i = 0; i < 2000; ++i) {
    seeds[0].targets.push_back(ProbeTarget{seeds[0].prefix.address_at(1 + i),
                                           ProbeMethod::kIcmpEcho, 0, {}});
  }
  ProberConfig config;
  config.transient_loss = 0.10;
  Prober prober(config, 1);
  net::SimClock clock;
  std::vector<ProbeColumn> columns = make_columns(seeds, 1);
  const RoundResult result = probe(prober, seeds, columns, 2, clock);
  const double loss_rate =
      1.0 - static_cast<double>(result.responses) / result.probes_sent;
  EXPECT_NEAR(loss_rate, 0.10, 0.03);
  EXPECT_EQ(columns[0][0].response_count(), result.responses);
}

TEST(Prober, ColumnsIdenticalAcrossPoolWidths) {
  // Chunking must not leak into the output: a prefix count that is not a
  // multiple of the chunk size, probed serially and at pool widths 1, 2
  // and 4, gives byte-identical columns and totals over three rounds.
  const std::size_t prefixes = 2 * Prober::kPrefixesPerChunk + 5;
  std::vector<PrefixSeeds> seeds(prefixes);
  for (std::size_t i = 0; i < prefixes; ++i) {
    seeds[i].prefix = net::Prefix(
        net::IPv4Address(0x0A000000u + static_cast<std::uint32_t>(i << 8)), 24);
    for (std::size_t t = 0; t < 1 + i % 3; ++t) {
      seeds[i].targets.push_back(ProbeTarget{seeds[i].prefix.address_at(1 + t),
                                             ProbeMethod::kIcmpEcho, 0, {}});
    }
  }
  ProberConfig config;
  config.transient_loss = 0.2;
  const auto resolve = [](std::size_t i, std::size_t t) {
    return static_cast<OutcomeCode>((i + t) % 3);
  };

  struct Run {
    std::vector<ProbeColumn> columns;
    std::vector<std::size_t> responses;
    net::SimTime clock = 0;
  };
  const auto run = [&](runtime::ThreadPool* pool) {
    Run out;
    out.columns = make_columns(seeds, 3);
    Prober prober(config, 42);
    net::SimClock clock;
    for (int round = 0; round < 3; ++round) {
      out.responses.push_back(
          prober
              .run_round(
                  prefixes, resolve,
                  [&](std::size_t i) -> ProbeColumn& { return out.columns[i]; },
                  clock, pool)
              .responses);
    }
    out.clock = clock.now();
    return out;
  };
  const auto codes_of = [](const Run& r) {
    std::vector<OutcomeCode> codes;
    for (const ProbeColumn& column : r.columns) {
      EXPECT_EQ(column.size(), 3u);
      for (const PrefixRoundResult& round : column) {
        codes.insert(codes.end(), round.outcomes.codes().begin(),
                     round.outcomes.codes().end());
      }
    }
    return codes;
  };

  const Run serial = run(nullptr);
  const std::vector<OutcomeCode> reference = codes_of(serial);
  ASSERT_GT(serial.responses[0], 0u);
  for (const std::size_t width : {1u, 2u, 4u}) {
    runtime::ThreadPool pool(width);
    const Run pooled = run(&pool);
    EXPECT_EQ(codes_of(pooled), reference) << "width " << width;
    EXPECT_EQ(pooled.responses, serial.responses) << "width " << width;
    EXPECT_EQ(pooled.clock, serial.clock) << "width " << width;
  }
}

TEST(ProbeMethodStrings, HumanReadable) {
  EXPECT_EQ(to_string(ProbeMethod::kIcmpEcho), "icmp-echo");
  EXPECT_EQ(to_string(ProbeMethod::kTcpSyn), "tcp-syn");
  EXPECT_EQ(to_string(ProbeMethod::kUdp), "udp");
}

}  // namespace
}  // namespace re::probing
