// AS-level traceroute: the other half of the scamper substitute.
//
// The route-preference inference only needs ping-class probes, but the
// modelling literature the paper builds on (Anwar et al., Sibyl,
// PredictRoute) drives traceroutes through the same vantage machinery.
// This tracer walks TTL-limited probes hop by hop along each AS's best
// route toward a destination prefix: every intermediate AS answers with
// an ICMP time-exceeded, the destination with the probe's natural reply.
// Like the prober it builds no packets: a hop is the AS that answers.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bgp/network.h"
#include "dataplane/fib.h"
#include "netbase/asn.h"
#include "netbase/prefix.h"

namespace re::probing {

// One traceroute hop: the AS that answered a TTL-limited probe.
struct TraceHop {
  int ttl = 0;
  net::Asn asn;
  bool destination = false;  // echo reply (vs time-exceeded)
};

struct TraceResult {
  net::Asn source;
  net::Prefix destination;
  std::vector<TraceHop> hops;
  bool reached = false;

  // "source-as hop hop ... dest-as" rendering.
  std::string to_string() const;
};

class Tracer {
 public:
  // Traces toward `destination` over the converged state of `network`.
  // `origins` are the ASes that originate the destination prefix (the
  // trace ends when one is reached).
  Tracer(const bgp::BgpNetwork& network, net::Prefix destination,
         std::vector<net::Asn> origins)
      : network_(network),
        destination_(std::move(destination)),
        origins_(std::move(origins)),
        fib_(network_, destination_, origins_,
             dataplane::CatchmentFib::NextHopRule::kTraceroute) {}

  // AS-level trace from `source`. `max_ttl` bounds the walk.
  TraceResult trace(net::Asn source, int max_ttl = 32) const;

 private:
  bool is_origin(net::Asn asn) const;

  const bgp::BgpNetwork& network_;
  net::Prefix destination_;
  std::vector<net::Asn> origins_;
  // Compiled next-hop table (traceroute rule: an originator without a
  // learned_from falls through to its default route, matching the TTL
  // walk below). trace() refreshes it lazily against the prefix epoch,
  // hence mutable; a Tracer is single-threaded by contract.
  mutable dataplane::CatchmentFib fib_;
};

}  // namespace re::probing
