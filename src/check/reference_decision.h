// Clean-room reference implementation of the RFC 4271 decision process,
// used by the re_check invariant suite as the oracle for production
// `bgp::select_best`.
//
// Deliberately written from the spec rather than sharing code with
// src/bgp/decision.cpp: a fault injected into the production comparator
// (the DecisionConfig::mutant_med_flip mutant, or a real regression) changes
// every RIB in a simulated world *consistently*, so re-deriving bests
// through the production code again would verify a tautology. The
// reference is the independent second opinion that breaks the loop.
//
// Also exports the per-step adversarial pair table: for every tie-break
// step, one pair of routes identical in all earlier steps and separated
// only at that step. The table backs both the `decision-conformance`
// invariant (run once per scenario, catching direction flips no random
// RIB state would exercise — e.g. MED, which simulated re-exports zero
// out) and the table-driven decision_test audit.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "bgp/decision.h"
#include "bgp/path_table.h"
#include "bgp/route.h"

namespace re::check {

// Three-way reference comparison: <0 means `a` is preferred, >0 means `b`,
// 0 a full tie. `step` (optional) receives the step that decided, or
// kRouterId on a full tie (mirroring the production convention).
int reference_compare(const bgp::Route& a, const bgp::Route& b,
                      const bgp::DecisionConfig& config,
                      bgp::DecisionStep* step = nullptr);

inline bool reference_better(const bgp::Route& a, const bgp::Route& b,
                             const bgp::DecisionConfig& config) {
  return reference_compare(a, b, config) < 0;
}

// Reference best-path selection over a candidate set, mirroring the
// production fold semantics exactly: candidates compared in order against
// the incumbent (first index wins ties), and decided_by attributed as the
// step separating the winner from its closest runner-up.
bgp::DecisionResult reference_select(std::span<const bgp::Route> candidates,
                                     const bgp::DecisionConfig& config);

// One adversarial route pair per decision step: `preferred` must beat
// `other` exactly at `step` under `config` (all earlier attributes equal).
struct AdversarialPair {
  const char* name;            // e.g. "med-lower-wins"
  bgp::DecisionStep step;      // the step that must decide this pair
  bgp::DecisionConfig config;  // enables the step (route age is default-off)
  bgp::Route preferred;
  bgp::Route other;
};

// Builds the full table (one pair per step, decision order). Paths are
// interned into `table`, which must outlive the returned routes.
std::vector<AdversarialPair> adversarial_pairs(bgp::PathTable& table);

}  // namespace re::check
