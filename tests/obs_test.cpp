// The observability subsystem: metrics registry semantics, histogram
// quantiles against a sorted-vector oracle, per-thread trace rings
// (wraparound + drop accounting), multithreaded span emission into a
// well-formed Chrome trace, and the determinism contract — bit-identical
// digests with tracing on, serially or as concurrent pool trials.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bgp/network.h"
#include "io/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/thread_pool.h"
#include "topology/ecosystem.h"

namespace re::obs {
namespace {

std::string temp_path(const char* name) {
  return ::testing::TempDir() + name;
}

std::string slurp(const std::string& path) {
  std::FILE* in = std::fopen(path.c_str(), "r");
  EXPECT_NE(in, nullptr) << path;
  std::string text;
  char buffer[4096];
  std::size_t n = 0;
  while (in != nullptr &&
         (n = std::fread(buffer, 1, sizeof buffer, in)) > 0) {
    text.append(buffer, n);
  }
  if (in != nullptr) std::fclose(in);
  return text;
}

TEST(ObsMetrics, CounterBasics) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(ObsMetrics, RegistryReturnsStableIdempotentReferences) {
  auto& reg = registry();
  Counter& c1 = reg.counter("obs_test.idempotent");
  Counter& c2 = reg.counter("obs_test.idempotent");
  EXPECT_EQ(&c1, &c2);
  c1.add(3);
  EXPECT_EQ(c2.value(), 3u);

  Histogram& h1 = reg.histogram("obs_test.idempotent_hist");
  Histogram& h2 = reg.histogram("obs_test.idempotent_hist");
  EXPECT_EQ(&h1, &h2);

  const std::string dump = reg.render();
  EXPECT_NE(dump.find("obs_test.idempotent"), std::string::npos);
}

TEST(ObsMetrics, HistogramBucketBoundsContainTheirValues) {
  for (const std::uint64_t v :
       {0ull, 1ull, 15ull, 16ull, 17ull, 63ull, 64ull, 1000ull, 4095ull,
        1ull << 20, (1ull << 40) + 12345, ~0ull}) {
    const std::size_t index = Histogram::bucket_index(v);
    ASSERT_LT(index, Histogram::kBucketCount);
    EXPECT_LE(Histogram::bucket_lower(index), v) << v;
    EXPECT_GE(Histogram::bucket_upper(index), v) << v;
  }
  // Bucket ranges tile the axis: each upper is the next lower minus one.
  for (std::size_t i = 0; i + 1 < Histogram::kBucketCount; ++i) {
    EXPECT_EQ(Histogram::bucket_upper(i) + 1, Histogram::bucket_lower(i + 1))
        << i;
  }
}

TEST(ObsMetrics, HistogramIsExactBelowTheLinearRange) {
  Histogram h;
  std::vector<std::uint64_t> oracle;
  for (std::uint64_t v = 0; v < 16; ++v) {
    for (std::uint64_t k = 0; k <= v; ++k) {  // v+1 copies of v
      h.record(v);
      oracle.push_back(v);
    }
  }
  std::sort(oracle.begin(), oracle.end());
  for (const double q : {0.01, 0.25, 0.50, 0.75, 0.95, 0.99, 1.0}) {
    std::size_t rank = static_cast<std::size_t>(
        q * static_cast<double>(oracle.size()) + 0.999999);
    rank = std::min(std::max<std::size_t>(rank, 1), oracle.size());
    EXPECT_EQ(h.quantile(q), oracle[rank - 1]) << "q=" << q;
  }
  EXPECT_EQ(h.count(), oracle.size());
  EXPECT_EQ(h.max(), 15u);
}

TEST(ObsMetrics, HistogramQuantilesTrackSortedOracleWithin25Percent) {
  // Deterministic xorshift stream spanning several octaves.
  Histogram h;
  std::vector<std::uint64_t> oracle;
  std::uint64_t x = 88172645463325252ull;
  for (int i = 0; i < 20000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const std::uint64_t v = x % 1000000;  // 0 .. 1e6, all octaves below 2^20
    h.record(v);
    oracle.push_back(v);
  }
  std::sort(oracle.begin(), oracle.end());
  for (const double q : {0.50, 0.90, 0.95, 0.99}) {
    std::size_t rank = static_cast<std::size_t>(
        q * static_cast<double>(oracle.size()) + 0.999999);
    rank = std::min(std::max<std::size_t>(rank, 1), oracle.size());
    const std::uint64_t truth = oracle[rank - 1];
    const std::uint64_t reported = h.quantile(q);
    // The reported value is the upper bound of the bucket holding the
    // true sample: never below it, never more than a quarter above.
    EXPECT_GE(reported, truth) << "q=" << q;
    EXPECT_LE(reported, truth + truth / 4 + 1) << "q=" << q;
  }
  EXPECT_EQ(h.sum(), [&] {
    std::uint64_t s = 0;
    for (const std::uint64_t v : oracle) s += v;
    return s;
  }());
}

TEST(ObsTrace, DisabledSessionIsInertAndSpansAreFree) {
  TraceSession session("");
  EXPECT_FALSE(session.enabled());
  EXPECT_FALSE(trace_enabled());
  const std::uint64_t before = trace_thread_pushed();
  {
    RE_SPAN("obs_test.noop");
    RE_SPAN_ARG("obs_test.noop_arg", "n", 1);
  }
  EXPECT_EQ(trace_thread_pushed(), before);
  const FlushStats stats = session.finish();
  EXPECT_EQ(stats.events, 0u);
}

TEST(ObsTrace, RingWraparoundKeepsNewestAndCountsDrops) {
  // Small capacity applies to buffers registered after the call, so the
  // emitting thread must be fresh.
  trace_set_buffer_capacity(8);
  const std::string path = temp_path("obs_wrap_trace.json");
  TraceSession session(path);
  ASSERT_TRUE(session.enabled());

  std::uint64_t pushed_in_thread = 0;
  std::thread emitter([&] {
    set_thread_name("wrap-emitter");
    for (int i = 0; i < 20; ++i) {
      RE_SPAN("obs_test.wrap");
    }
    pushed_in_thread = trace_thread_pushed();
  });
  emitter.join();
  trace_set_buffer_capacity(65536);  // restore for later tests

  EXPECT_EQ(pushed_in_thread, 20u);
  const FlushStats stats = session.finish();
  // 20 pushed into an 8-slot ring: 8 survive, 12 dropped (plus whatever
  // the main thread's ring held — it only adds, never subtracts).
  EXPECT_GE(stats.dropped, 12u);
  EXPECT_GE(stats.events, 8u);
  const std::string text = slurp(path);
  EXPECT_NE(text.find("wrap-emitter"), std::string::npos);
}

TEST(ObsTrace, MultithreadedSpansProduceAValidChromeTrace) {
  const std::string path = temp_path("obs_mt_trace.json");
  TraceSession session(path);
  ASSERT_TRUE(session.enabled());
  {
    RE_SPAN_ARG("obs_test.main_span", "n", 7);
  }
  // Two explicit emitters: lanes are deterministic regardless of how a
  // pool would schedule work on a one-core host.
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([t] {
      set_thread_name("emitter-" + std::to_string(t));
      for (int i = 0; i < 50; ++i) {
        RE_SPAN_ARG("obs_test.mt_span", "i", static_cast<std::uint64_t>(i));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  const FlushStats stats = session.finish();
  EXPECT_GE(stats.events, 101u);  // 1 main + 100 emitter spans
  EXPECT_GE(stats.threads, 3u);
  EXPECT_EQ(stats.dropped, 0u);

  // The file must parse as JSON and carry complete ("ph":"X") events on
  // at least two distinct lanes, plus thread_name metadata.
  const auto parsed = io::parse_json(slurp(path));
  ASSERT_TRUE(parsed.has_value());
  const io::JsonValue* events = parsed->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  std::size_t complete = 0, metadata = 0;
  std::vector<double> lanes;
  for (const io::JsonValue& e : events->as_array()) {
    ASSERT_TRUE(e.is_object());
    const io::JsonValue* ph = e.find("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->as_string() == "X") {
      ++complete;
      const io::JsonValue* tid = e.find("tid");
      ASSERT_NE(tid, nullptr);
      if (std::find(lanes.begin(), lanes.end(), tid->as_number()) ==
          lanes.end()) {
        lanes.push_back(tid->as_number());
      }
      ASSERT_NE(e.find("ts"), nullptr);
      ASSERT_NE(e.find("dur"), nullptr);
    } else if (ph->as_string() == "M") {
      ++metadata;
    }
  }
  EXPECT_GE(complete, 101u);
  EXPECT_GE(lanes.size(), 3u);
  EXPECT_GE(metadata, 3u);
}

TEST(ObsTraceDeathTest, UnwritableTracePathAbortsUpFront) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(TraceSession("/nonexistent-dir-obs-test/trace.json"),
              ::testing::ExitedWithCode(2), "cannot open trace file");
}

// The determinism contract: tracing only reads wall clocks and writes
// telemetry buffers, so state digests are bit-identical with tracing on
// or off, whether a network converges alone or as one of several trials
// running on the pool at once. This is the gate that lets every
// digest-checked pipeline run with --trace without re-validating.
std::uint64_t sweep_digest(const topo::Ecosystem& eco) {
  bgp::BgpNetwork network(77001);
  eco.build_network(network);
  std::size_t swept = 0;
  for (const topo::PrefixRecord& rec : eco.prefixes()) {
    if (swept == 6) break;
    if (rec.covered) continue;
    ++swept;
    network.announce(rec.origin, rec.prefix);
    network.run_to_convergence();
    network.set_origin_prepend(rec.origin, rec.prefix, 2);
    network.run_to_convergence();
  }
  return network.state_digest();
}

TEST(ObsTrace, SerialAndPooledTrialDigestsAreBitIdenticalWithTracingOn) {
  topo::EcosystemParams params;
  params = params.scaled(0.05);
  params.seed = 20250808;
  const topo::Ecosystem eco = topo::Ecosystem::generate(params);

  const std::uint64_t untraced = sweep_digest(eco);

  const std::string path = temp_path("obs_digest_trace.json");
  TraceSession session(path);
  ASSERT_TRUE(session.enabled());
  const std::uint64_t traced_serial = sweep_digest(eco);
  // Trial-level parallelism: independently built networks converging
  // concurrently, each emitting spans from its own pool lane.
  constexpr std::size_t kTrials = 3;
  std::vector<std::uint64_t> traced_trials(kTrials, 0);
  runtime::ThreadPool pool(kTrials);
  pool.parallel_for(kTrials,
                    [&](std::size_t i) { traced_trials[i] = sweep_digest(eco); });
  const FlushStats stats = session.finish();

  EXPECT_EQ(traced_serial, untraced);
  for (std::size_t i = 0; i < kTrials; ++i) {
    EXPECT_EQ(traced_trials[i], untraced) << "trial " << i;
  }
  // And the trace actually recorded the runs it was watching.
  EXPECT_GT(stats.events, 0u);
}

}  // namespace
}  // namespace re::obs
