#include "obs/metrics.h"

#include <bit>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>

namespace re::obs {

std::size_t Histogram::bucket_index(std::uint64_t value) noexcept {
  if (value < kLinearBuckets) return static_cast<std::size_t>(value);
  const int octave = std::bit_width(value) - 1;  // >= 4
  const std::size_t sub =
      static_cast<std::size_t>((value >> (octave - 2)) & 3u);
  return kLinearBuckets + static_cast<std::size_t>(octave - 4) * kSubBuckets +
         sub;
}

std::uint64_t Histogram::bucket_lower(std::size_t index) noexcept {
  if (index < kLinearBuckets) return index;
  const std::size_t k = index - kLinearBuckets;
  const int octave = 4 + static_cast<int>(k / kSubBuckets);
  const std::uint64_t sub = k % kSubBuckets;
  return (std::uint64_t{1} << octave) + (sub << (octave - 2));
}

std::uint64_t Histogram::bucket_upper(std::size_t index) noexcept {
  if (index < kLinearBuckets) return index;
  const std::size_t k = index - kLinearBuckets;
  const int octave = 4 + static_cast<int>(k / kSubBuckets);
  return bucket_lower(index) + (std::uint64_t{1} << (octave - 2)) - 1;
}

std::uint64_t Histogram::quantile(double q) const noexcept {
  const std::uint64_t n = count();
  if (n == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the q-th sample, 1-based, nearest-rank definition.
  std::uint64_t rank =
      static_cast<std::uint64_t>(q * static_cast<double>(n) + 0.999999);
  if (rank < 1) rank = 1;
  if (rank > n) rank = n;
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    cumulative += buckets_[i].load(std::memory_order_relaxed);
    if (cumulative >= rank) return bucket_upper(i);
  }
  // Counts raced ahead of buckets (concurrent record): fall back to max.
  return max();
}

MetricsRegistry::Entry& MetricsRegistry::entry(std::string_view name,
                                               Kind kind) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& e : entries_) {
    if (e->name == name) {
      if (e->kind != kind) {
        std::fprintf(stderr,
                     "obs: metric \"%.*s\" registered twice with different "
                     "kinds\n",
                     static_cast<int>(name.size()), name.data());
        std::abort();
      }
      return *e;
    }
  }
  auto e = std::make_unique<Entry>();
  e->name.assign(name);
  e->kind = kind;
  switch (kind) {
    case Kind::kCounter: e->counter = std::make_unique<Counter>(); break;
    case Kind::kHistogram: e->histogram = std::make_unique<Histogram>(); break;
  }
  entries_.push_back(std::move(e));
  return *entries_.back();
}

Counter& MetricsRegistry::counter(std::string_view name) {
  return *entry(name, Kind::kCounter).counter;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  return *entry(name, Kind::kHistogram).histogram;
}

std::string MetricsRegistry::render() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  char buf[256];
  for (const auto& e : entries_) {
    switch (e->kind) {
      case Kind::kCounter:
        std::snprintf(buf, sizeof(buf), "%-44s %" PRIu64 "\n",
                      e->name.c_str(), e->counter->value());
        break;
      case Kind::kHistogram: {
        const auto& h = *e->histogram;
        std::snprintf(buf, sizeof(buf),
                      "%-44s count=%" PRIu64 " mean=%.1f p50=%" PRIu64
                      " p95=%" PRIu64 " p99=%" PRIu64 " max=%" PRIu64 "\n",
                      e->name.c_str(), h.count(), h.mean(), h.quantile(0.50),
                      h.quantile(0.95), h.quantile(0.99), h.max());
        break;
      }
    }
    out += buf;
  }
  return out;
}

MetricsRegistry& registry() {
  static MetricsRegistry* instance = new MetricsRegistry();  // never dtor'd
  return *instance;
}

}  // namespace re::obs
