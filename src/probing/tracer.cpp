#include "probing/tracer.h"

#include "obs/trace.h"

namespace re::probing {

std::string TraceResult::to_string() const {
  std::string out = source.to_string() + " ->";
  for (const TraceHop& hop : hops) {
    out += " " + std::to_string(hop.asn.value());
    if (hop.destination) out += "*";
  }
  if (!reached) out += " !";
  return out;
}

bool Tracer::is_origin(net::Asn asn) const {
  for (const net::Asn origin : origins_) {
    if (origin == asn) return true;
  }
  return false;
}

TraceResult Tracer::trace(net::Asn source, int max_ttl) const {
  RE_SPAN("probe.trace");
  TraceResult result;
  result.source = source;
  result.destination = destination_;

  // One compiled next-hop table per converged state: each TTL step below
  // is an O(1) array read instead of a best-route + default-session RIB
  // lookup. refresh() is a no-op while the prefix's epoch is quiet.
  fib_.refresh();

  net::Asn current = source;
  for (int ttl = 1; ttl <= max_ttl; ++ttl) {
    if (is_origin(current)) {
      // A probe with this TTL expires (or arrives) at the destination AS.
      result.hops.push_back(TraceHop{ttl, current, true});
      result.reached = true;
      return result;
    }
    const std::optional<net::Asn> hop = fib_.next_hop(current);
    if (!hop.has_value()) {
      return result;  // unknown AS, or no route: probes vanish here
    }
    const net::Asn next = *hop;
    // The probe with TTL == ttl expires at `next` (the first hop is the
    // source's own next AS; the source itself does not answer its probes).
    result.hops.push_back(TraceHop{ttl, next, false});
    // Loop guard: an AS already on the path means a forwarding loop.
    for (std::size_t i = 0; i + 1 < result.hops.size(); ++i) {
      if (result.hops[i].asn == next) return result;
    }
    if (is_origin(next)) {
      result.hops.back().destination = true;
      result.reached = true;
      return result;
    }
    current = next;
  }
  return result;
}

}  // namespace re::probing
