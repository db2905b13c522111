#include "bgp/decision.h"

namespace re::bgp {
namespace {

// Three-way step comparison: <0 means a wins, >0 means b wins, 0 undecided.
int compare_step(const Route& a, const Route& b, const DecisionConfig& config,
                 DecisionStep step) {
  switch (step) {
    case DecisionStep::kLocalPref:
      if (a.local_pref != b.local_pref) {
        return a.local_pref > b.local_pref ? -1 : 1;
      }
      return 0;
    case DecisionStep::kAsPathLength:
      if (!config.use_as_path_length) return 0;
      if (a.path_length != b.path_length) {
        return a.path_length < b.path_length ? -1 : 1;
      }
      return 0;
    case DecisionStep::kOrigin:
      if (a.origin != b.origin) return a.origin < b.origin ? -1 : 1;
      return 0;
    case DecisionStep::kMed:
      // MED is comparable only between routes learned from the same
      // neighbor AS (the first AS in the received path).
      if (!config.use_med) return 0;
      if (a.path_first != b.path_first) return 0;
      if (a.med != b.med) {
        return (a.med < b.med) != config.mutant_med_flip ? -1 : 1;
      }
      return 0;
    case DecisionStep::kEbgp:
      if (a.ebgp != b.ebgp) return a.ebgp ? -1 : 1;
      return 0;
    case DecisionStep::kIgpCost:
      if (a.igp_cost != b.igp_cost) return a.igp_cost < b.igp_cost ? -1 : 1;
      return 0;
    case DecisionStep::kRouteAge:
      if (!config.use_route_age) return 0;
      if (a.established_at != b.established_at) {
        return a.established_at < b.established_at ? -1 : 1;  // oldest wins
      }
      return 0;
    case DecisionStep::kRouterId:
      if (a.neighbor_router_id != b.neighbor_router_id) {
        return a.neighbor_router_id < b.neighbor_router_id ? -1 : 1;
      }
      return 0;
    case DecisionStep::kOnlyRoute:
      return 0;
  }
  return 0;
}

constexpr DecisionStep kSteps[] = {
    DecisionStep::kLocalPref, DecisionStep::kAsPathLength,
    DecisionStep::kOrigin,    DecisionStep::kMed,
    DecisionStep::kEbgp,      DecisionStep::kIgpCost,
    DecisionStep::kRouteAge,  DecisionStep::kRouterId,
};

// Full comparison returning the deciding step; <0 a wins, >0 b wins.
std::pair<int, DecisionStep> compare(const Route& a, const Route& b,
                                     const DecisionConfig& config) {
  for (const DecisionStep step : kSteps) {
    const int c = compare_step(a, b, config, step);
    if (c != 0) return {c, step};
  }
  return {0, DecisionStep::kRouterId};
}

}  // namespace

std::string to_string(DecisionStep step) {
  switch (step) {
    case DecisionStep::kOnlyRoute: return "only-route";
    case DecisionStep::kLocalPref: return "local-pref";
    case DecisionStep::kAsPathLength: return "as-path-length";
    case DecisionStep::kOrigin: return "origin";
    case DecisionStep::kMed: return "med";
    case DecisionStep::kEbgp: return "ebgp";
    case DecisionStep::kIgpCost: return "igp-cost";
    case DecisionStep::kRouteAge: return "route-age";
    case DecisionStep::kRouterId: return "router-id";
  }
  return "?";
}

bool better_route(const Route& a, const Route& b, const DecisionConfig& config) {
  return compare(a, b, config).first < 0;
}

namespace {

// Depth of a step in the decision order; deeper steps mean the contest
// stayed open longer.
std::size_t step_rank(DecisionStep step) {
  for (std::size_t i = 0; i < std::size(kSteps); ++i) {
    if (kSteps[i] == step) return i;
  }
  return std::size(kSteps);
}

}  // namespace

DecisionResult select_best(std::span<const Route> candidates,
                           const DecisionConfig& config) {
  DecisionResult result;
  if (candidates.size() <= 1) return result;
  for (std::size_t i = 1; i < candidates.size(); ++i) {
    if (compare(candidates[i], candidates[result.best_index], config).first < 0) {
      result.best_index = i;
    }
  }
  // decided_by is the step separating the winner from its *closest*
  // runner-up — the candidate that survives the most steps against it —
  // not whichever step happened to settle the last pairwise comparison.
  // An equal-localpref field whose tie falls through to a later step must
  // never be reported as a local-pref decision (the §4 inference signal).
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (i == result.best_index) continue;
    const auto [c, step] =
        compare(candidates[result.best_index], candidates[i], config);
    (void)c;
    if (step_rank(step) > step_rank(result.decided_by) ||
        result.decided_by == DecisionStep::kOnlyRoute) {
      result.decided_by = step;
    }
  }
  return result;
}

}  // namespace re::bgp
