#include "probing/prober.h"

#include <cmath>

#include "obs/trace.h"
#include "runtime/rng_streams.h"

namespace re::probing {

PrefixRoundResult Prober::probe_prefix(const PrefixSeeds& prefix_seeds,
                                       const TargetResolver& resolver,
                                       std::uint64_t stream_seed) const {
  net::Rng rng(stream_seed);
  // Retired packet-identifier draw: every later loss roll depends on it.
  rng.next();

  PrefixRoundResult pr;
  pr.prefix = prefix_seeds.prefix;
  pr.origin = prefix_seeds.origin;
  pr.outcomes.reserve(prefix_seeds.targets.size());
  for (const ProbeTarget& target : prefix_seeds.targets) {
    ProbeOutcome outcome;
    outcome.address = target.address;
    const bool lost = rng.chance(config_.transient_loss);
    if (!lost) {
      if (const auto vlan = resolver(prefix_seeds, target)) {
        outcome.responded = true;
        outcome.vlan_id = *vlan;
      }
    }
    pr.outcomes.push_back(outcome);
  }
  return pr;
}

RoundResult Prober::run_round(const std::vector<PrefixSeeds>& seeds,
                              const TargetResolver& resolver,
                              net::SimClock& clock,
                              runtime::ThreadPool* pool) {
  RE_SPAN_ARG("probe.round", "prefixes", seeds.size());
  RoundResult result;
  result.started_at = clock.now();
  result.prefixes.resize(seeds.size());

  // One draw of the prober's own stream per round keeps successive rounds
  // distinct; each prefix then owns the stream derived from (round seed,
  // prefix index) — identical whether prefixes run serially or sharded
  // across workers.
  const std::uint64_t round_seed = rng_.next();
  const auto probe_one = [&](std::size_t i) {
    // Emitted from the pool thread that took the prefix: probing work
    // shows up on the pool's worker lanes.
    RE_SPAN_ARG("probe.prefix", "targets", seeds[i].targets.size());
    result.prefixes[i] = probe_prefix(
        seeds[i], resolver, runtime::derive_stream_seed(round_seed, i));
  };
  if (pool != nullptr) {
    pool->parallel_for(seeds.size(), probe_one);
  } else {
    for (std::size_t i = 0; i < seeds.size(); ++i) probe_one(i);
  }

  for (const PrefixRoundResult& pr : result.prefixes) {
    result.probes_sent += pr.outcomes.size();
    result.responses += pr.response_count();
  }

  const double seconds =
      static_cast<double>(result.probes_sent) / config_.pps;
  clock.advance(static_cast<net::SimTime>(std::ceil(seconds)));
  result.finished_at = clock.now();
  return result;
}

}  // namespace re::probing
