// The deterministic parallel sweep engine: thread pool semantics, RNG
// stream splitting, and the strict RE_* environment-knob parsers.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "netbase/rng.h"
#include "runtime/env.h"
#include "runtime/rng_streams.h"
#include "runtime/thread_pool.h"

namespace re::runtime {
namespace {

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kCount = 10'000;
  std::vector<std::atomic<int>> hits(kCount);
  pool.parallel_for(kCount, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, InlinePoolRunsOnCallerThread) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran(64);
  pool.parallel_for(ran.size(), [&](std::size_t i) {
    ran[i] = std::this_thread::get_id();
  });
  for (const std::thread::id id : ran) EXPECT_EQ(id, caller);
}

TEST(ThreadPoolTest, ZeroCountIsANoOp) {
  ThreadPool pool(4);
  pool.parallel_for(0, [&](std::size_t) { FAIL() << "must not run"; });
}

TEST(ThreadPoolTest, PropagatesFirstException) {
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  EXPECT_THROW(
      pool.parallel_for(100,
                        [&](std::size_t i) {
                          if (i == 17) throw std::runtime_error("boom");
                          completed.fetch_add(1, std::memory_order_relaxed);
                        }),
      std::runtime_error);
  // The pool must stay usable after a failed job.
  std::atomic<int> after{0};
  pool.parallel_for(50, [&](std::size_t) {
    after.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(after.load(), 50);
}

TEST(ThreadPoolTest, RunBatchRunsEveryTask) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(8);
  std::vector<std::function<void()>> tasks;
  for (std::size_t i = 0; i < hits.size(); ++i) {
    tasks.push_back(
        [&, i] { hits[i].fetch_add(1, std::memory_order_relaxed); });
  }
  pool.run_batch(tasks);
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPoolTest, BackToBackJobsDoNotInterfere) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> sum{0};
    pool.parallel_for(97, [&](std::size_t i) {
      sum.fetch_add(static_cast<int>(i), std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 97 * 96 / 2);
  }
}

TEST(RngStreamsTest, DerivedSeedIsAPureFunctionOfMasterAndIndex) {
  EXPECT_EQ(derive_stream_seed(42, 7), derive_stream_seed(42, 7));
  EXPECT_NE(derive_stream_seed(42, 7), derive_stream_seed(42, 8));
  EXPECT_NE(derive_stream_seed(42, 7), derive_stream_seed(43, 7));
}

TEST(RngStreamsTest, SmallMastersProduceDistinctStreams) {
  // Tests commonly use master seeds 0, 1, 2, ...; adjacent (master, index)
  // pairs must still land far apart.
  std::set<std::uint64_t> seeds;
  for (std::uint64_t master = 0; master < 8; ++master) {
    for (std::uint64_t index = 0; index < 256; ++index) {
      seeds.insert(derive_stream_seed(master, index));
    }
  }
  EXPECT_EQ(seeds.size(), 8u * 256u);
}

TEST(RngStreamsTest, StreamsAreStatisticallyIndependent) {
  // First draws across consecutive stream seeds should look uniform: the
  // mean of 4096 [0,1) draws concentrates near 0.5.
  double sum = 0.0;
  constexpr int kStreams = 4096;
  for (int i = 0; i < kStreams; ++i) {
    net::Rng rng(derive_stream_seed(99, static_cast<std::uint64_t>(i)));
    sum += rng.uniform();
  }
  const double mean = sum / kStreams;
  EXPECT_NEAR(mean, 0.5, 0.03);
}

// The determinism contract end to end: per-index streams written into
// per-index slots produce byte-identical output for any thread count.
TEST(ThreadPoolTest, ParallelSweepMatchesSerialBitForBit) {
  constexpr std::size_t kItems = 500;
  constexpr std::uint64_t kMaster = 20250529;

  auto sweep = [&](ThreadPool& pool) {
    std::vector<std::uint64_t> out(kItems);
    pool.parallel_for(kItems, [&](std::size_t i) {
      net::Rng rng(derive_stream_seed(kMaster, i));
      std::uint64_t acc = 0;
      const int draws = 1 + static_cast<int>(rng.below(64));  // uneven work
      for (int d = 0; d < draws; ++d) acc ^= rng.next();
      out[i] = acc;
    });
    return out;
  };

  ThreadPool serial(1);
  const std::vector<std::uint64_t> reference = sweep(serial);
  for (const std::size_t threads : {2, 4, 8}) {
    ThreadPool pool(threads);
    EXPECT_EQ(sweep(pool), reference) << threads << " threads";
  }
}

TEST(EnvParseTest, PositiveSizeAcceptsOnlyWholeNumericStrings) {
  EXPECT_EQ(parse_positive_size("8"), 8u);
  EXPECT_EQ(parse_positive_size("  16 "), 16u);
  EXPECT_EQ(parse_positive_size("1"), 1u);
  // The old atol behavior: "8garbage" parsed as 8 and "abc" as 0. Both
  // must be rejected outright now.
  EXPECT_EQ(parse_positive_size("8garbage"), std::nullopt);
  EXPECT_EQ(parse_positive_size("abc"), std::nullopt);
  EXPECT_EQ(parse_positive_size(""), std::nullopt);
  EXPECT_EQ(parse_positive_size("0"), std::nullopt);
  EXPECT_EQ(parse_positive_size("-4"), std::nullopt);
  EXPECT_EQ(parse_positive_size("4.5"), std::nullopt);
  EXPECT_EQ(parse_positive_size("99999999999999999999999"), std::nullopt);
}

TEST(EnvParseTest, PositiveDoubleAcceptsOnlyFinitePositives) {
  EXPECT_EQ(parse_positive_double("0.25"), 0.25);
  EXPECT_EQ(parse_positive_double("1"), 1.0);
  EXPECT_EQ(parse_positive_double(" 2e-1 "), 0.2);
  EXPECT_EQ(parse_positive_double("0.5x"), std::nullopt);
  EXPECT_EQ(parse_positive_double("nan"), std::nullopt);
  EXPECT_EQ(parse_positive_double("inf"), std::nullopt);
  EXPECT_EQ(parse_positive_double("0"), std::nullopt);
  EXPECT_EQ(parse_positive_double("-0.5"), std::nullopt);
  EXPECT_EQ(parse_positive_double(""), std::nullopt);
}

TEST(EnvParseTest, ThreadCountAcceptsAutoAndExplicitCounts) {
  // "auto" resolves to the reported hardware width, clamped to >= 1 when
  // the runtime reports 0 (unknown).
  EXPECT_EQ(parse_thread_count("auto", 8), 8u);
  EXPECT_EQ(parse_thread_count(" auto ", 4), 4u);
  EXPECT_EQ(parse_thread_count("auto", 0), 1u);
  // Explicit numeric counts pass through unclamped — the stress benches
  // oversubscribe on purpose.
  EXPECT_EQ(parse_thread_count("16", 2), 16u);
  EXPECT_EQ(parse_thread_count("1", 8), 1u);
  EXPECT_EQ(parse_thread_count("AUTO", 8), std::nullopt);
  EXPECT_EQ(parse_thread_count("0", 8), std::nullopt);
  EXPECT_EQ(parse_thread_count("auto8", 8), std::nullopt);
  EXPECT_EQ(parse_thread_count("", 8), std::nullopt);
}

TEST(EnvParseTest, EnvThreadCountReadsAutoFromEnvironment) {
  ::unsetenv("RE_TEST_KNOB");
  EXPECT_EQ(env_thread_count("RE_TEST_KNOB", 5), 5u);
  ::setenv("RE_TEST_KNOB", "3", 1);
  EXPECT_EQ(env_thread_count("RE_TEST_KNOB", 5), 3u);
  ::setenv("RE_TEST_KNOB", "auto", 1);
  const std::size_t hw = std::thread::hardware_concurrency();
  EXPECT_EQ(env_thread_count("RE_TEST_KNOB", 5), hw == 0 ? 1u : hw);
  ::unsetenv("RE_TEST_KNOB");
}

TEST(EnvParseTest, EnvHelpersFallBackWhenUnset) {
  ::unsetenv("RE_TEST_KNOB");
  EXPECT_EQ(env_positive_size("RE_TEST_KNOB", 7), 7u);
  EXPECT_EQ(env_positive_double("RE_TEST_KNOB", 0.5), 0.5);
  ::setenv("RE_TEST_KNOB", "", 1);
  EXPECT_EQ(env_positive_size("RE_TEST_KNOB", 7), 7u);
  ::setenv("RE_TEST_KNOB", "12", 1);
  EXPECT_EQ(env_positive_size("RE_TEST_KNOB", 7), 12u);
  ::unsetenv("RE_TEST_KNOB");
}

TEST(EnvParseDeathTest, MalformedEnvValueAbortsLoudly) {
  ::setenv("RE_TEST_KNOB", "8garbage", 1);
  EXPECT_EXIT(env_positive_size("RE_TEST_KNOB", 7), ::testing::ExitedWithCode(2),
              "RE_TEST_KNOB");
  EXPECT_EXIT(env_positive_double("RE_TEST_KNOB", 0.5),
              ::testing::ExitedWithCode(2), "RE_TEST_KNOB");
  EXPECT_EXIT(env_thread_count("RE_TEST_KNOB", 1),
              ::testing::ExitedWithCode(2), "RE_TEST_KNOB");
  ::unsetenv("RE_TEST_KNOB");
}

TEST(EnvParseTest, EnvStringTrimsAndRejectsBlank) {
  EXPECT_EQ(parse_env_string("trace.json"), "trace.json");
  EXPECT_EQ(parse_env_string("  out/trace.json \t"), "out/trace.json");
  EXPECT_FALSE(parse_env_string("").has_value());
  EXPECT_FALSE(parse_env_string("   \t ").has_value());

  ::unsetenv("RE_TEST_KNOB");
  EXPECT_EQ(env_string("RE_TEST_KNOB", "fallback"), "fallback");
  EXPECT_EQ(env_string("RE_TEST_KNOB", ""), "");
  ::setenv("RE_TEST_KNOB", " a-trace.json ", 1);
  EXPECT_EQ(env_string("RE_TEST_KNOB", "fallback"), "a-trace.json");
  ::unsetenv("RE_TEST_KNOB");
}

TEST(EnvParseDeathTest, BlankStringKnobAbortsLoudly) {
  // Unlike the numeric knobs (where set-but-empty means "use the
  // default"), a blank RE_TRACE is a request for a trace with no file to
  // put it in — the strict-env convention says refuse, don't guess.
  ::setenv("RE_TEST_KNOB", "", 1);
  EXPECT_EXIT(env_string("RE_TEST_KNOB", "fallback"),
              ::testing::ExitedWithCode(2), "RE_TEST_KNOB");
  ::setenv("RE_TEST_KNOB", "   ", 1);
  EXPECT_EXIT(env_string("RE_TEST_KNOB", "fallback"),
              ::testing::ExitedWithCode(2), "RE_TEST_KNOB");
  ::unsetenv("RE_TEST_KNOB");
}

}  // namespace
}  // namespace re::runtime
