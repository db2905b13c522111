// The scamper-like probe engine.
//
// Sends one probe per selected target per round at a configured rate,
// applies transient per-probe loss, and records which VLAN interface each
// response arrived on. The actual routing outcome is supplied by a
// resolver callback (the dataplane module), keeping the prober independent
// of BGP machinery — as scamper is. The prober records routing outcomes
// only and builds no packets: the observable is (target, round) → arrival
// VLAN. The wire codec (packet.h) serves the tracer, and packet_test
// round-trips it over every selected seed target.
//
// Probing is read-only against the converged network state, so prefixes
// shard cleanly across worker threads: every prefix consumes its own RNG
// stream derived from (round seed, prefix index), which makes the
// parallel result bit-identical to the serial one.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "netbase/clock.h"
#include "netbase/rng.h"
#include "probing/host.h"
#include "probing/seeds.h"
#include "runtime/thread_pool.h"

namespace re::probing {

// Probe pacing and loss, the prober's only settings: it records each
// target's routing outcome and builds no packets.
struct ProberConfig {
  double pps = 100.0;               // paper: 100 packets/second (§3.3)
  double transient_loss = 0.0005;   // per-probe loss probability
};

// One probe's outcome within a round.
struct ProbeOutcome {
  net::IPv4Address address;
  bool responded = false;
  int vlan_id = -1;  // valid when responded
};

// All outcomes for one prefix in one round.
struct PrefixRoundResult {
  net::Prefix prefix;
  net::Asn origin;
  std::vector<ProbeOutcome> outcomes;

  std::size_t response_count() const {
    std::size_t n = 0;
    for (const ProbeOutcome& o : outcomes) n += o.responded ? 1 : 0;
    return n;
  }
};

struct RoundResult {
  std::vector<PrefixRoundResult> prefixes;
  net::SimTime started_at = 0;
  net::SimTime finished_at = 0;
  std::size_t probes_sent = 0;
  std::size_t responses = 0;
};

// Resolves one target to the VLAN its response arrives on; nullopt means
// no response (unresponsive address, unreachable return path, filtered).
using TargetResolver = std::function<std::optional<int>(
    const PrefixSeeds&, const ProbeTarget&)>;

class Prober {
 public:
  Prober(ProberConfig config, std::uint64_t seed)
      : config_(config), rng_(seed) {}

  // Probes every target of every prefix once; advances `clock` by the
  // round's wall time (#probes / pps). When `pool` is non-null, prefixes
  // shard across its workers; the resolver must then be safe to call
  // concurrently against immutable network state. Output is identical
  // with or without a pool.
  RoundResult run_round(const std::vector<PrefixSeeds>& seeds,
                        const TargetResolver& resolver, net::SimClock& clock,
                        runtime::ThreadPool* pool = nullptr);

  // Checkpoint support: the prober draws one value from rng_ per round,
  // so resuming a killed sweep mid-experiment must restore the stream
  // position, not just the seed.
  std::array<std::uint64_t, 4> rng_state() const noexcept {
    return rng_.state();
  }
  void restore_rng_state(const std::array<std::uint64_t, 4>& state) noexcept {
    rng_ = net::Rng::from_state(state);
  }

 private:
  // Probes one prefix's targets with the prefix's own RNG stream.
  PrefixRoundResult probe_prefix(const PrefixSeeds& prefix_seeds,
                                 const TargetResolver& resolver,
                                 std::uint64_t stream_seed) const;

  ProberConfig config_;
  net::Rng rng_;
};

}  // namespace re::probing
