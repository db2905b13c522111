// The BGP best-path decision process.
//
// Implements the standard RFC 4271 route-selection order, with the two
// per-network variations the paper leans on:
//   * whether AS-path length is considered at all (§4, rare), and
//   * whether route age is used as a late tie-break (Appendix A, case J)
//     instead of jumping straight to the router-id comparison.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "bgp/route.h"

namespace re::bgp {

// Per-network decision-process configuration.
struct DecisionConfig {
  // Step 2: compare AS path lengths. Networks that disable this fall
  // straight through to origin/MED comparison.
  bool use_as_path_length = true;

  // Step 4: compare MED between routes from the same neighbor AS.
  bool use_med = true;

  // Step 7: prefer the oldest route ("route age") before the router-id
  // tie-break. Most networks disable this for determinism (RFC 5004
  // behaviour); the few that enable it produce the paper's case-J
  // signature of switching at configuration 0-1.
  bool use_route_age = false;

  // Planted fault for mutation testing: prefer the *higher* MED, a
  // single tie-break direction bug the re_check invariant suite must
  // catch. Only src/check sets it (`re_check --mutant med-flip`); it is
  // never encoded into a snapshot or a digest.
  bool mutant_med_flip = false;
};

// Which decision step selected the best route — exposed so analyses and
// tests can assert *why* a route won, not just which one.
enum class DecisionStep : std::uint8_t {
  kOnlyRoute,
  kLocalPref,
  kAsPathLength,
  kOrigin,
  kMed,
  kEbgp,
  kIgpCost,
  kRouteAge,
  kRouterId,
};

std::string to_string(DecisionStep step);

struct DecisionResult {
  std::size_t best_index = 0;
  DecisionStep decided_by = DecisionStep::kOnlyRoute;
};

// Pairwise comparison: true if `a` is strictly preferred to `b` under
// `config`. MED is only compared when both routes come from the same
// neighbor AS (standard always-compare-med = false behaviour).
bool better_route(const Route& a, const Route& b, const DecisionConfig& config);

// Selects the best route from a non-empty candidate set. Candidates are
// folded pairwise in order, which mirrors how routers sequentially compare
// the incumbent best against alternatives (and sidesteps MED
// intransitivity the same way deterministic-MED-off routers do).
DecisionResult select_best(std::span<const Route> candidates,
                           const DecisionConfig& config);

}  // namespace re::bgp
