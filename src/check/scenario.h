// Scenario fuzzing for the re_check harness: a Scenario is a seed (which
// deterministically denotes a multi-tier world) plus a schedule of
// operations against it — announce/withdraw, prepend steps, session
// fail/restore, full vs dirty vs prefix-scoped convergence, partial runs,
// checkpoint/restore, and FIB queries. Operands are small indices into
// per-world candidate pools, so *every* (kind, a, b, c) tuple is
// executable: the shrinker can drop or zero ops freely and the remaining
// schedule still runs.
//
// run_scenario() executes the schedule under the invariant suite: the
// cheap invariants at every op boundary and (through BgpNetwork's round
// observer) every N propagation rounds, the converged checks (snapshot
// round-trip, FIB-vs-walker agreement) after run ops, and every scoped or
// dirty run cross-validated against a forked full run via
// prefix_state_digest. Same (seed, ops, options) in, same result out —
// the replay contract the trace format and the shrinker stand on.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "bgp/network.h"
#include "check/invariants.h"
#include "netbase/asn.h"
#include "netbase/prefix.h"

namespace re::check {

enum class OpKind : std::uint8_t {
  kAnnounce = 0,     // origin a announces prefix b (c&1: R&E-only scope)
  kWithdraw,         // origin a withdraws prefix b
  kSetPrepend,       // origin a prepends c%4 copies on prefix b
  kFailSession,      // session a fails for prefix b
  kRestoreSession,   // session a restores for prefix b
  kRunFull,          // full convergence, shadow-checked against a fork
  kRunDirty,         // dirty-prefix convergence, shadow-checked
  kRunScoped,        // scoped convergence of prefix mask a, shadow-checked
  kRunPartial,       // run_until(now + 1 + a%37): a mid-convergence probe
  kCheckpoint,       // snapshot into slot c%4
  kRestoreSnapshot,  // restore slot c%4 (no-op while the slot is empty)
  kFibQuery,         // FIB-vs-walker differential on prefix b
};
inline constexpr std::uint8_t kOpKindCount = 12;

const char* to_string(OpKind kind);

struct ScenarioOp {
  OpKind kind = OpKind::kRunFull;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint32_t c = 0;
  friend bool operator==(const ScenarioOp&, const ScenarioOp&) = default;
};

struct Scenario {
  std::uint64_t seed = 0;
  std::vector<ScenarioOp> ops;
  friend bool operator==(const Scenario&, const Scenario&) = default;
};

// The candidate pools of the world a seed denotes (for tests/benches that
// want to address specific origins or sessions).
struct WorldSpec {
  std::vector<net::Asn> origins;                       // announce pool
  std::vector<std::pair<net::Asn, net::Asn>> sessions; // fail/restore pool
  std::vector<net::Prefix> prefixes;                   // prefix pool
  // The non-terminal originator: excluded when deriving FIB terminals, so
  // its announcements exercise the black-hole classification.
  net::Asn squatter;
};

// Builds the deterministic world for `seed`: a three-tier
// customer/provider lattice with a full-mesh peering clique on top, R&E
// edges and stances drawn from the seed's topology RNG stream, the
// pathological extras the FIB must classify (route-stripped default
// router, squatter origin), one collector feed, and a converged two-origin
// baseline announcement of the first pool prefix. `med_flip_mutant` sets
// DecisionConfig::mutant_med_flip on every speaker before that baseline.
std::unique_ptr<bgp::BgpNetwork> make_world(std::uint64_t seed,
                                            WorldSpec* spec = nullptr,
                                            bool med_flip_mutant = false);

// Draws a random `op_count`-long schedule from the seed's schedule RNG
// stream (independent of the topology stream, so the same world can be
// driven by many schedules).
Scenario make_scenario(std::uint64_t seed, std::size_t op_count);

struct CheckOptions {
  // Run the cheap invariant bundle every N propagation rounds through the
  // round observer (0 disables round-boundary checks; op-boundary checks
  // always run).
  std::uint64_t check_every_rounds = 1;
  // Cross-validate scoped/dirty/full runs against a forked full run (the
  // scoped-vs-full prefix_state_digest equivalence gate).
  bool scoped_equivalence = true;
  // Differential-check the compiled FIB against the reference walker.
  bool fib_agreement = true;
  // Snapshot encode -> decode -> digest round-trip after run ops.
  bool snapshot_roundtrip = true;
  // Mutation testing: plant the MED direction flip in every speaker of
  // the world and in the conformance table's production calls, so a run
  // must report a violation (re_check --mutant med-flip).
  bool med_flip_mutant = false;
};

struct ScenarioResult {
  std::optional<Violation> violation;
  std::size_t ops_executed = 0;       // ops completed (all, if clean)
  std::size_t invariant_checks = 0;   // individual invariant evaluations
  std::uint64_t final_digest = 0;     // state digest after the last op
};

ScenarioResult run_scenario(const Scenario& scenario,
                            const CheckOptions& options = {});

}  // namespace re::check
