// Typed metrics registry: named counters and log-bucketed histograms,
// registered once and incremented with relaxed atomics.
//
// The registry is the process-wide aggregation point: instruments live at
// the call site that produces the value, and a traced re_survey dumps the
// registry at exit. It deliberately lives *outside* the simulation:
// metrics are observed effects (messages delivered, rounds converged,
// span durations), never inputs, so the registry can aggregate
// across networks and threads without touching determinism — two runs
// that differ only in what they recorded here are still bit-identical
// where it counts (state digests, result digests).
//
// Hot-path discipline: registration (name lookup under a mutex) happens
// once per call site via a function-local static reference; after that an
// increment is one relaxed fetch_add. Nothing here allocates after
// registration, so instruments are safe from pool workers and TSan-clean.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace re::obs {

// Monotonically increasing count (events, messages, drops).
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

// Log-bucketed histogram over non-negative integer samples (counts,
// nanoseconds). Values below 16 get exact linear buckets; above that,
// each power-of-two octave splits into 4 sub-buckets, bounding the
// relative quantile error at 25%. 256 buckets cover the full u64 range.
class Histogram {
 public:
  static constexpr std::size_t kLinearBuckets = 16;  // exact 0..15
  static constexpr std::size_t kSubBuckets = 4;      // per octave above
  static constexpr std::size_t kBucketCount = 256;

  // The bucket a value lands in (exposed for the oracle tests).
  static std::size_t bucket_index(std::uint64_t value) noexcept;
  // Inclusive [lower, upper] range of one bucket.
  static std::uint64_t bucket_lower(std::size_t index) noexcept;
  static std::uint64_t bucket_upper(std::size_t index) noexcept;

  void record(std::uint64_t value) noexcept {
    buckets_[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    std::uint64_t m = max_.load(std::memory_order_relaxed);
    while (value > m &&
           !max_.compare_exchange_weak(m, value, std::memory_order_relaxed)) {
    }
  }

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  std::uint64_t max() const noexcept {
    return max_.load(std::memory_order_relaxed);
  }
  double mean() const noexcept {
    const std::uint64_t n = count();
    return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
  }

  // The upper bound of the bucket holding the q-th sample (q in (0, 1]);
  // exact for values < 16, within 25% above. 0 when empty.
  std::uint64_t quantile(double q) const noexcept;

 private:
  std::atomic<std::uint64_t> buckets_[kBucketCount] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

// Name -> instrument table. Registration is idempotent (same name, same
// kind returns the same instrument) and returns references that stay
// stable for the registry's lifetime. Asking for a registered name with
// the wrong kind aborts: a metrics namespace with kind collisions is a
// bug worth failing loudly on.
class MetricsRegistry {
 public:
  Counter& counter(std::string_view name);
  Histogram& histogram(std::string_view name);

  // Human-readable dump, one instrument per line, registration order.
  std::string render() const;

 private:
  enum class Kind : std::uint8_t { kCounter, kHistogram };
  struct Entry {
    std::string name;
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& entry(std::string_view name, Kind kind);

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Entry>> entries_;  // registration order
};

// The process-wide registry every subsystem publishes into.
MetricsRegistry& registry();

}  // namespace re::obs
