#include "check/return_path.h"

#include <array>

namespace re::check {

ReturnPath ReturnPathResolver::resolve_with_stance(net::Asn source,
                                                   bgp::ReStance stance) const {
  if (is_terminal(source)) return resolve(source);
  const bgp::Speaker* speaker = network_.speaker(source);
  if (speaker == nullptr) return ReturnPath{};

  // Re-run the first-hop selection with the overridden stance applied to
  // this AS's candidates.
  std::vector<bgp::Route> candidates = speaker->candidates(prefix_);
  if (candidates.empty()) return resolve(source);  // default-route path
  bgp::ImportPolicy policy = speaker->import_policy();
  policy.re_stance = stance;
  for (bgp::Route& candidate : candidates) {
    if (!candidate.learned_from.valid()) continue;
    if (const bgp::Session* session =
            speaker->session_to(candidate.learned_from)) {
      candidate.local_pref = policy.local_pref_for(*session);
    }
  }
  const bgp::DecisionResult chosen =
      bgp::select_best(candidates, speaker->decision());
  const bgp::Route& best = candidates[chosen.best_index];
  if (!best.learned_from.valid()) return ReturnPath{};

  ReturnPath rest = resolve(best.learned_from);
  ReturnPath out;
  out.reachable = rest.reachable;
  out.terminal = rest.terminal;
  out.used_default_route = rest.used_default_route;
  out.hops.push_back(source);
  out.hops.insert(out.hops.end(), rest.hops.begin(), rest.hops.end());
  return out;
}

ReturnPath ReturnPathResolver::resolve(net::Asn source) const {
  ReturnPath result;
  resolve(source, result);
  return result;
}

void ReturnPathResolver::resolve(net::Asn source, ReturnPath& out) const {
  out.reachable = false;
  out.terminal = net::Asn{};
  out.used_default_route = false;
  out.hops.clear();
  constexpr int kMaxHops = 64;

  net::Asn current = source;
  // Visited set as a bounded stack array: the walk never exceeds kMaxHops
  // entries, and a linear scan over a path-length-sized array is cheaper
  // than hashing — and heap-free, which keeps concurrent calls
  // share-nothing.
  std::array<net::Asn, kMaxHops> visited;
  int visited_count = 0;
  const auto visit = [&](net::Asn asn) {
    for (int i = 0; i < visited_count; ++i) {
      if (visited[i] == asn) return false;  // already seen
    }
    visited[visited_count++] = asn;
    return true;
  };

  for (int hop = 0; hop < kMaxHops; ++hop) {
    out.hops.push_back(current);
    if (is_terminal(current)) {
      out.reachable = true;
      out.terminal = current;
      return;
    }
    if (!visit(current)) return;  // forwarding loop

    const bgp::Speaker* speaker = network_.speaker(current);
    if (speaker == nullptr) return;

    net::Asn next;
    if (const bgp::Route* best = speaker->best(prefix_); best != nullptr) {
      if (!best->learned_from.valid()) {
        // This AS originates the prefix but is not a terminal: the
        // announcement endpoints must cover all originators, so treat as
        // unreachable rather than mis-attributing a VLAN.
        return;
      }
      next = best->learned_from;
    } else if (const bgp::Session* fallback = speaker->default_route_session();
               fallback != nullptr) {
      out.used_default_route = true;
      next = fallback->neighbor;
    } else {
      return;  // no route, no default: response never leaves
    }
    current = next;
  }
  // Hop limit exceeded.
}

}  // namespace re::check
