#include "runtime/perf_counters.h"

#include <cstdio>
#include <cstring>

#include "obs/metrics.h"

namespace re::runtime {

double PerfCounters::messages_per_sec() const noexcept {
  if (wall_seconds <= 0.0) return 0.0;
  return static_cast<double>(messages_delivered) / wall_seconds;
}

double PerfCounters::avg_probe_length() const noexcept {
  if (map_lookups == 0) return 0.0;
  return static_cast<double>(map_probes) / static_cast<double>(map_lookups);
}

PerfCounters& PerfCounters::operator+=(const PerfCounters& other) noexcept {
  messages_delivered += other.messages_delivered;
  // Table/map gauges describe a network instance, not a delta: keep the
  // larger snapshot when folding runs over the same network.
  if (other.interned_paths > interned_paths) interned_paths = other.interned_paths;
  if (other.arena_bytes > arena_bytes) arena_bytes = other.arena_bytes;
  map_lookups += other.map_lookups;
  map_probes += other.map_probes;
  wall_seconds += other.wall_seconds;
  rounds += other.rounds;
  prefixes_dirty += other.prefixes_dirty;
  // Touched-speaker counts are per-run distinct sets; summing across runs
  // over-counts repeats, but the aggregate is still the honest "delivery
  // fan-out" a sweep paid for, which is what benches compare.
  speakers_touched += other.speakers_touched;
  messages_skipped_by_scope += other.messages_skipped_by_scope;
  fib_compiles += other.fib_compiles;
  fib_hits += other.fib_hits;
  fib_invalidations += other.fib_invalidations;
  probe_resolve_seconds += other.probe_resolve_seconds;
  checkpoints += other.checkpoints;
  forks += other.forks;
  if (other.arena_shared_bytes > arena_shared_bytes) {
    arena_shared_bytes = other.arena_shared_bytes;
  }
  return *this;
}

std::string PerfCounters::summary() const {
  char buffer[256];
  std::snprintf(buffer, sizeof buffer,
                "%llu msgs (%.2fM msg/s), %llu interned paths (%.1f KiB arena),"
                " avg probe %.2f",
                static_cast<unsigned long long>(messages_delivered),
                messages_per_sec() / 1e6,
                static_cast<unsigned long long>(interned_paths),
                static_cast<double>(arena_bytes) / 1024.0, avg_probe_length());
  std::string out = buffer;
  if (messages_skipped_by_scope > 0 || prefixes_dirty > 0) {
    std::snprintf(buffer, sizeof buffer,
                  ", scoped: %llu dirty prefix(es), %llu speakers touched,"
                  " %llu msgs skipped by scope",
                  static_cast<unsigned long long>(prefixes_dirty),
                  static_cast<unsigned long long>(speakers_touched),
                  static_cast<unsigned long long>(messages_skipped_by_scope));
    out += buffer;
  }
  if (fib_compiles > 0 || fib_hits > 0) {
    std::snprintf(buffer, sizeof buffer,
                  ", fib: %llu compiles, %llu hits, %llu invalidations,"
                  " probe resolve %.2fs",
                  static_cast<unsigned long long>(fib_compiles),
                  static_cast<unsigned long long>(fib_hits),
                  static_cast<unsigned long long>(fib_invalidations),
                  probe_resolve_seconds);
    out += buffer;
  }
  if (forks > 0 || checkpoints > 0) {
    std::snprintf(buffer, sizeof buffer,
                  ", %llu checkpoint(s)%s (%.1f KiB arena shared)",
                  static_cast<unsigned long long>(checkpoints),
                  forks > 0 ? ", forked" : "",
                  static_cast<double>(arena_shared_bytes) / 1024.0);
    out += buffer;
  }
  return out;
}

void publish_perf_metrics(const PerfCounters& perf) {
  auto& reg = obs::registry();
  // References resolve once per process; after that each publish is a
  // handful of relaxed atomics.
  static auto& messages = reg.counter("perf.messages_delivered");
  static auto& lookups = reg.counter("perf.map_lookups");
  static auto& probes = reg.counter("perf.map_probes");
  static auto& wall = reg.counter("perf.wall_us");
  static auto& rounds = reg.counter("perf.rounds");
  static auto& dirty = reg.counter("perf.prefixes_dirty");
  static auto& touched = reg.counter("perf.speakers_touched");
  static auto& skipped = reg.counter("perf.messages_skipped_by_scope");
  static auto& fib_compiles = reg.counter("perf.fib_compiles");
  static auto& fib_hits = reg.counter("perf.fib_hits");
  static auto& fib_invalidations = reg.counter("perf.fib_invalidations");
  static auto& probe_resolve_us = reg.counter("perf.probe_resolve_us");
  static auto& checkpoints = reg.counter("perf.checkpoints");
  static auto& forks = reg.counter("perf.forks");
  static auto& interned = reg.gauge("perf.interned_paths");
  static auto& arena = reg.gauge("perf.arena_bytes");
  static auto& arena_shared = reg.gauge("perf.arena_shared_bytes");
  static auto& run_messages = reg.histogram("perf.run_messages");

  const auto us = [](double seconds) {
    return seconds <= 0.0 ? std::uint64_t{0}
                          : static_cast<std::uint64_t>(seconds * 1e6);
  };
  messages.add(perf.messages_delivered);
  lookups.add(perf.map_lookups);
  probes.add(perf.map_probes);
  wall.add(us(perf.wall_seconds));
  rounds.add(perf.rounds);
  dirty.add(perf.prefixes_dirty);
  touched.add(perf.speakers_touched);
  skipped.add(perf.messages_skipped_by_scope);
  fib_compiles.add(perf.fib_compiles);
  fib_hits.add(perf.fib_hits);
  fib_invalidations.add(perf.fib_invalidations);
  probe_resolve_us.add(us(perf.probe_resolve_seconds));
  checkpoints.add(perf.checkpoints);
  forks.add(perf.forks);
  interned.set_max(static_cast<double>(perf.interned_paths));
  arena.set_max(static_cast<double>(perf.arena_bytes));
  arena_shared.set_max(static_cast<double>(perf.arena_shared_bytes));
  run_messages.record(perf.messages_delivered);
}

std::size_t peak_rss_bytes() {
#if defined(__linux__)
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0;
  char line[256];
  std::size_t kib = 0;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      unsigned long long value = 0;
      if (std::sscanf(line + 6, "%llu", &value) == 1) kib = value;
      break;
    }
  }
  std::fclose(status);
  return kib * 1024;
#else
  return 0;
#endif
}

}  // namespace re::runtime
