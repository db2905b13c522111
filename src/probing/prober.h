// The scamper-like probe engine and the columnar store it writes.
//
// Sends one probe per selected target per round at a configured rate,
// applies transient per-probe loss, and records which VLAN interface each
// response arrived on. The routing outcome comes from a resolver (the
// experiment's probe plan over the compiled catchment FIB), a template
// parameter answering (prefix index, target index) -> outcome code, which
// keeps the prober independent of BGP machinery — as scamper is. The
// prober builds no packets: the observable is (target, round) -> arrival
// VLAN.
//
// Outcomes live in one ProbeColumn per prefix: the target addresses once,
// plus one byte per (round, target) — 0 for no response, k for the k-th
// VLAN of the column's pair. PrefixRoundResult and ProbeOutcome are
// read-only views decoded from that byte on demand.
//
// Probing is read-only against the converged network state, so prefixes
// shard cleanly across worker threads in fixed chunks: every prefix
// consumes its own RNG stream derived from (round seed, prefix index),
// which makes the parallel result bit-identical to the serial one for any
// pool width.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <vector>

#include "netbase/clock.h"
#include "netbase/rng.h"
#include "obs/trace.h"
#include "probing/seeds.h"
#include "runtime/rng_streams.h"
#include "runtime/thread_pool.h"

namespace re::probing {

// Probe pacing and loss, the prober's only settings: it records each
// target's routing outcome and builds no packets.
struct ProberConfig {
  double pps = 100.0;               // paper: 100 packets/second (§3.3)
  double transient_loss = 0.0005;   // per-probe loss probability
};

// One probe's outcome: 0 = no response (lost, unreachable, filtered),
// k = the response arrived on the k-th VLAN of the column's pair.
using OutcomeCode = std::uint8_t;
inline constexpr OutcomeCode kNoResponse = 0;

// The VLANs a column's codes name: {commodity, R&E} in the experiment.
using VlanPair = std::array<int, 2>;

// Input iterator over an indexable view that yields elements by value.
template <typename Owner, typename Value>
class IndexIterator {
 public:
  using iterator_category = std::input_iterator_tag;
  using value_type = Value;
  using difference_type = std::ptrdiff_t;
  using pointer = void;
  using reference = Value;

  IndexIterator(const Owner* owner, std::size_t index)
      : owner_(owner), index_(index) {}
  Value operator*() const { return (*owner_)[index_]; }
  IndexIterator& operator++() {
    ++index_;
    return *this;
  }
  friend bool operator==(const IndexIterator& a, const IndexIterator& b) {
    return a.index_ == b.index_;
  }

 private:
  const Owner* owner_;
  std::size_t index_;
};

// One probe's outcome within a round, decoded from its code.
struct ProbeOutcome {
  net::IPv4Address address;
  bool responded = false;
  int vlan_id = -1;  // valid when responded
};

// One round's outcomes for one prefix: a view of its codes.
class OutcomeView {
 public:
  OutcomeView(std::span<const net::IPv4Address> addresses,
              std::span<const OutcomeCode> codes, const VlanPair* vlans)
      : addresses_(addresses), codes_(codes), vlans_(vlans) {}

  std::size_t size() const noexcept { return codes_.size(); }
  std::span<const OutcomeCode> codes() const noexcept { return codes_; }
  // The VLAN a non-zero code names.
  int vlan_of(OutcomeCode code) const { return (*vlans_)[code - 1]; }

  ProbeOutcome operator[](std::size_t target) const {
    const OutcomeCode code = codes_[target];
    if (code == kNoResponse) return {addresses_[target], false, -1};
    return {addresses_[target], true, vlan_of(code)};
  }
  IndexIterator<OutcomeView, ProbeOutcome> begin() const { return {this, 0}; }
  IndexIterator<OutcomeView, ProbeOutcome> end() const {
    return {this, size()};
  }

 private:
  std::span<const net::IPv4Address> addresses_;
  std::span<const OutcomeCode> codes_;
  const VlanPair* vlans_;
};

// All outcomes for one prefix in one round (a view into its column).
struct PrefixRoundResult {
  net::Prefix prefix;
  net::Asn origin;
  OutcomeView outcomes;

  std::size_t response_count() const {
    return outcomes.size() -
           static_cast<std::size_t>(std::count(outcomes.codes().begin(),
                                               outcomes.codes().end(),
                                               kNoResponse));
  }
};

// Every round's outcomes for one prefix: target addresses once, then one
// code per (round, target), round-major. Iterating yields one
// PrefixRoundResult view per recorded round.
class ProbeColumn {
 public:
  ProbeColumn() = default;
  // An empty column for `addresses`, with room for `rounds` rounds.
  ProbeColumn(net::Prefix prefix, net::Asn origin,
              std::vector<net::IPv4Address> addresses, VlanPair vlans,
              std::size_t rounds)
      : prefix_(prefix),
        origin_(origin),
        vlans_(vlans),
        addresses_(std::move(addresses)) {
    codes_.reserve(rounds * addresses_.size());
  }
  // An empty column for `seeds`' targets.
  static ProbeColumn for_seeds(const PrefixSeeds& seeds, VlanPair vlans,
                               std::size_t rounds) {
    std::vector<net::IPv4Address> addresses;
    addresses.reserve(seeds.targets.size());
    for (const ProbeTarget& target : seeds.targets) {
      addresses.push_back(target.address);
    }
    return ProbeColumn(seeds.prefix, seeds.origin, std::move(addresses),
                       vlans, rounds);
  }

  // Appends one all-silent round and returns its codes for writing.
  std::span<OutcomeCode> add_round() {
    codes_.resize(codes_.size() + addresses_.size(), kNoResponse);
    ++rounds_;
    return std::span<OutcomeCode>(codes_).last(addresses_.size());
  }

  std::size_t size() const noexcept { return rounds_; }
  bool empty() const noexcept { return rounds_ == 0; }
  std::size_t targets() const noexcept { return addresses_.size(); }
  const std::vector<net::IPv4Address>& addresses() const noexcept {
    return addresses_;
  }

  PrefixRoundResult operator[](std::size_t round) const {
    const std::span<const OutcomeCode> codes =
        std::span<const OutcomeCode>(codes_).subspan(
            round * addresses_.size(), addresses_.size());
    return {prefix_, origin_, OutcomeView(addresses_, codes, &vlans_)};
  }
  IndexIterator<ProbeColumn, PrefixRoundResult> begin() const {
    return {this, 0};
  }
  IndexIterator<ProbeColumn, PrefixRoundResult> end() const {
    return {this, rounds_};
  }

 private:
  net::Prefix prefix_;
  net::Asn origin_;
  VlanPair vlans_{};
  std::vector<net::IPv4Address> addresses_;
  std::vector<OutcomeCode> codes_;
  std::size_t rounds_ = 0;
};

// A round's totals; the outcomes themselves go into the columns.
struct RoundResult {
  net::SimTime started_at = 0;
  net::SimTime finished_at = 0;
  std::size_t probes_sent = 0;
  std::size_t responses = 0;
};

class Prober {
 public:
  // Prefixes per unit of pool work (and per probe.chunk span).
  static constexpr std::size_t kPrefixesPerChunk = 64;

  Prober(ProberConfig config, std::uint64_t seed)
      : config_(config), rng_(seed) {}

  // Probes every target of `prefixes` columns once, appending one round
  // to each: `column_of(i)` returns prefix i's ProbeColumn&, and
  // `resolve(i, t)` returns the OutcomeCode of prefix i's target t when
  // the probe is not lost. Advances `clock` by the round's wall time
  // (#probes / pps). When `pool` is non-null, fixed prefix chunks shard
  // across its workers; resolve must then be safe to call concurrently
  // against immutable network state. Output is identical with or without
  // a pool.
  template <typename Resolver, typename ColumnOf>
  RoundResult run_round(std::size_t prefixes, const Resolver& resolve,
                        const ColumnOf& column_of, net::SimClock& clock,
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
  // Probes one prefix's targets with the prefix's own RNG stream, writing
  // one code per target; returns the number of responses.
  template <typename Resolver>
  std::size_t probe_prefix(std::size_t prefix, const Resolver& resolve,
                           std::uint64_t stream_seed,
                           std::span<OutcomeCode> codes) const {
    net::Rng rng(stream_seed);
    // Retired packet-identifier draw: every later loss roll depends on it.
    rng.next();
    std::size_t responses = 0;
    for (std::size_t t = 0; t < codes.size(); ++t) {
      if (rng.chance(config_.transient_loss)) continue;  // lost: stays 0
      codes[t] = resolve(prefix, t);
      responses += codes[t] != kNoResponse ? 1 : 0;
    }
    return responses;
  }

  ProberConfig config_;
  net::Rng rng_;
};

template <typename Resolver, typename ColumnOf>
RoundResult Prober::run_round(std::size_t prefixes, const Resolver& resolve,
                              const ColumnOf& column_of, net::SimClock& clock,
                              runtime::ThreadPool* pool) {
  RE_SPAN_ARG("probe.round", "prefixes", prefixes);
  RoundResult result;
  result.started_at = clock.now();

  // One draw of the prober's own stream per round keeps successive rounds
  // distinct; each prefix then owns the stream derived from (round seed,
  // prefix index) — identical whichever chunk or thread probes it.
  const std::uint64_t round_seed = rng_.next();
  const std::size_t chunks =
      (prefixes + kPrefixesPerChunk - 1) / kPrefixesPerChunk;
  std::vector<std::size_t> probes(chunks, 0), responses(chunks, 0);
  const auto probe_chunk = [&](std::size_t chunk) {
    // Emitted from the thread that took the chunk: probing work shows up
    // on the pool's worker lanes.
    RE_SPAN_ARG("probe.chunk", "chunk", chunk);
    const std::size_t end =
        std::min(prefixes, (chunk + 1) * kPrefixesPerChunk);
    std::size_t sent = 0, answered = 0;
    for (std::size_t i = chunk * kPrefixesPerChunk; i < end; ++i) {
      const std::span<OutcomeCode> codes = column_of(i).add_round();
      sent += codes.size();
      answered += probe_prefix(
          i, resolve, runtime::derive_stream_seed(round_seed, i), codes);
    }
    probes[chunk] = sent;
    responses[chunk] = answered;
  };
  if (pool != nullptr) {
    pool->parallel_for(chunks, probe_chunk);
  } else {
    for (std::size_t chunk = 0; chunk < chunks; ++chunk) probe_chunk(chunk);
  }
  for (std::size_t chunk = 0; chunk < chunks; ++chunk) {
    result.probes_sent += probes[chunk];
    result.responses += responses[chunk];
  }

  const double seconds =
      static_cast<double>(result.probes_sent) / config_.pps;
  clock.advance(static_cast<net::SimTime>(std::ceil(seconds)));
  result.finished_at = clock.now();
  return result;
}

}  // namespace re::probing
