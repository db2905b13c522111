// Lightweight performance counters for the propagation hot path.
//
// A PerfCounters snapshot describes one network instance / propagation
// run: how many messages were delivered, how many distinct AS paths the
// hash-consing PathTable holds (and the arena bytes backing them), and
// how well the open-addressing FlatMaps are probing. BgpNetwork fills one
// per convergence run (see ConvergenceStats::perf); benches aggregate and
// print them next to wall-clock rows.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace re::runtime {

struct PerfCounters {
  std::uint64_t messages_delivered = 0;
  std::uint64_t interned_paths = 0;  // distinct AS paths in the PathTable
  std::uint64_t arena_bytes = 0;     // bytes backing the interned paths
  // FlatMap find/insert operations on the network-level maps (speaker
  // index, prefix-slot index, collector peers) and their probe steps.
  std::uint64_t map_lookups = 0;
  std::uint64_t map_probes = 0;
  double wall_seconds = 0.0;

  std::uint64_t rounds = 0;  // simulated-time ticks processed

  // Prefix-scoped incremental convergence (see BgpNetwork::
  // run_dirty_to_convergence). Full-scope runs leave all three at zero
  // except prefixes_dirty/speakers_touched, which describe any run.
  std::uint64_t prefixes_dirty = 0;    // prefixes in the run's scope
  std::uint64_t speakers_touched = 0;  // distinct speakers delivered to
  std::uint64_t messages_skipped_by_scope = 0;  // pending messages left
                                                // queued because their
                                                // prefix was out of scope

  // Compiled catchment FIB (see dataplane/fib.h), the probing plane's
  // only resolver.
  std::uint64_t fib_compiles = 0;       // full table compiles
  std::uint64_t fib_hits = 0;           // resolutions served from a table
  std::uint64_t fib_invalidations = 0;  // refreshes that found a new epoch
  double probe_resolve_seconds = 0.0;   // probing-phase wall (FIB queries,
                                        // loss rolls, outcome storage),
                                        // all rounds

  // Checkpoint/fork engine (see BgpNetwork::checkpoint / Snapshot::fork).
  std::uint64_t checkpoints = 0;          // snapshots taken from this network
  std::uint64_t forks = 0;                // 1 when this network was forked
                                          // from a snapshot, 0 when built cold
  std::uint64_t arena_shared_bytes = 0;   // PathTable bytes held in the
                                          // frozen base shared across forks
                                          // (subset of arena_bytes)

  double messages_per_sec() const noexcept;

  // Average open-addressing probe length (1.0 = every lookup hit its
  // home slot; healthy tables stay below ~1.5).
  double avg_probe_length() const noexcept;

  PerfCounters& operator+=(const PerfCounters& other) noexcept;

  // One-line human-readable form for bench output.
  std::string summary() const;
};

// Peak resident set size of the calling process in bytes (Linux VmHWM);
// 0 where the platform does not expose it.
std::size_t peak_rss_bytes();

// Folds one per-run PerfCounters snapshot into the process-wide
// obs::registry() under "perf.*" names — the compatibility view that
// keeps the flat struct (and every bench's summary() line) as the
// source of truth while the registry aggregates across runs. Delta
// fields add into counters; instance gauges (interned_paths,
// arena_bytes, arena_shared_bytes) keep the maximum, matching operator+=
// exactly.
void publish_perf_metrics(const PerfCounters& perf);

}  // namespace re::runtime
