// Network-wide invariants for the re_check deterministic simulation
// fuzzer. Each check inspects a BgpNetwork through its public const API
// and returns the first violation found (nullopt = clean).
//
// The "cheap" checks (loop freedom, decision soundness, export safety,
// epoch coherence) are valid at any round boundary — the propagation
// engine keeps speakers internally consistent between rounds — and are
// wired through BgpNetwork's round observer. The "converged" checks
// (snapshot round-trip, FIB agreement, scoped-vs-full digests) are run by
// the scenario executor at op boundaries, where they may mutate the
// network's path-table freeze state (never its routing outcome).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bgp/network.h"
#include "dataplane/fib.h"
#include "netbase/asn.h"
#include "netbase/prefix.h"

namespace re::check {

struct Violation {
  std::string invariant;  // stable machine-matchable name
  std::string detail;     // human-readable context
  // Index of the scenario op after which the violation surfaced (filled
  // by the executor; kNoOp for pre-schedule checks like conformance).
  static constexpr std::size_t kNoOp = static_cast<std::size_t>(-1);
  std::size_t op_index = kNoOp;
};

class InvariantSuite {
 public:
  // Decision-process conformance: production select_best/better_route
  // must agree with the clean-room reference on every adversarial pair
  // (one per RFC 4271 tie-break step), in both argument orders, with the
  // right decided_by attribution. Catches direction flips that no RIB
  // state in a simulated world would exercise (e.g. MED, zeroed on
  // re-export). Network-independent; run once per scenario.
  // `med_flip_mutant` sets DecisionConfig::mutant_med_flip on every
  // pair's production calls (the reference never reads it), so the table
  // must then report `med-lower-wins`.
  std::optional<Violation> decision_conformance(bool med_flip_mutant = false);

  // No AS appears twice in any Adj-RIB-In path (after collapsing prepend
  // runs), and no speaker holds a path containing itself.
  std::optional<Violation> loop_freedom(const bgp::BgpNetwork& network);

  // Every installed Loc-RIB best re-derives as best over the speaker's
  // current candidates under the reference decision process, with the
  // same decided_by attribution. Speakers with damping enabled are
  // skipped (candidates() exposes the undamped view).
  std::optional<Violation> decision_soundness(const bgp::BgpNetwork& network);

  // Gao-Rexford export safety: every hop of every Adj-RIB-In path must
  // have been a legal export — re-validated pairwise along the AS chain
  // with each interior AS's own sessions and R&E-transit stance. A valley
  // (provider/peer route exported to a non-customer) means a stale or
  // mis-scoped message was delivered.
  std::optional<Violation> export_safety(const bgp::BgpNetwork& network);

  // prefix_epoch monotonicity + the epoch contract: the epoch never goes
  // backwards, and an unchanged epoch implies an unchanged
  // prefix_state_digest (the compiled-FIB staleness guarantee). Stateful:
  // compares against the previous observation of each prefix.
  std::optional<Violation> epoch_coherence(
      const bgp::BgpNetwork& network, std::span<const net::Prefix> prefixes);

  // checkpoint → encode → decode → digest must round-trip bit-identically,
  // and a fork of the decoded snapshot must re-digest to the same value.
  std::optional<Violation> snapshot_roundtrip(bgp::BgpNetwork& network);

  // Compiled FIB vs the reference walker (check/return_path.h):
  // identical (reachable, terminal, used_default_route, hops) for every
  // AS. `fib` is the caller's cached instance (exercising epoch-based
  // refresh across mutations); it must have been built for the same
  // network/prefix/terminals as given here.
  std::optional<Violation> fib_agreement(const bgp::BgpNetwork& network,
                                         const net::Prefix& prefix,
                                         std::span<const net::Asn> terminals,
                                         dataplane::CatchmentFib& fib);

  // The round-boundary bundle: loop freedom, decision soundness, export
  // safety, epoch coherence — in that order, first violation wins.
  std::optional<Violation> check_cheap(const bgp::BgpNetwork& network,
                                       std::span<const net::Prefix> prefixes);

  // Individual invariant evaluations performed so far (reporting).
  std::size_t checks_run() const noexcept { return checks_run_; }

 private:
  struct EpochMemo {
    std::uint64_t epoch = 0;
    std::uint64_t digest = 0;
  };
  std::map<net::Prefix, EpochMemo> epochs_;
  std::size_t checks_run_ = 0;
};

}  // namespace re::check
