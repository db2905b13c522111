// RIB survey: the public-BGP-side observations the paper draws from
// RouteViews / RIPE RIS RIB files (Table 4) and from RIPE's own view
// (Figure 5).
//
// Member prefixes are swept through the network in small batches
// (announce a batch -> converge -> read vantage RIBs -> clear), which
// keeps memory flat: prefixes of one origin share announcement policy, so
// a single representative propagation is exact for all of them. Batching
// several origins per convergence is exact too: every origin announces a
// distinct prefix, and edge delays are a pure function of (seed, edge,
// prefix, per-flow message index) — see BgpNetwork::edge_delay — so one
// prefix's timeline is unaffected by the others sharing the queue; only
// the constant announce-time offset differs, and the decision process
// compares route ages relatively within a prefix.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "bgp/network.h"
#include "netbase/asn.h"
#include "topology/ecosystem.h"

namespace re::core {

// What the public view shows for one origin's prefixes.
struct OriginRibView {
  net::Asn origin;

  // Max origin-ASN prepend count (beyond the mandatory copy) observed in
  // any collector path whose first AS above the origin is an R&E /
  // commodity AS; nullopt when no path of that direction was observed.
  std::optional<std::uint32_t> re_prepends;
  std::optional<std::uint32_t> comm_prepends;

  // The RIPE-like vantage's selected route (Figure 5).
  bool ripe_has_route = false;
  bool ripe_via_re = false;        // selected route learned on an R&E session
  net::Asn ripe_first_hop;         // RIPE's neighbor on the selected route
};

struct RibSurveyResult {
  std::vector<OriginRibView> origins;
  const OriginRibView* find(net::Asn origin) const;

 private:
  mutable std::unordered_map<std::uint32_t, std::size_t> index_;
};

struct RibSurveyOptions {
  // Member origins propagated per announce -> converge -> clear cycle.
  // Any value produces bit-identical per-origin views (see above); larger
  // batches amortize convergence rounds, at the cost of proportionally
  // more transient RIB state held at once. 0 is treated as 1.
  std::size_t batch_size = 8;
};

// Runs the sweep over every member origin. Building the network and
// propagating ~2.6K origins takes tens of seconds at paper scale.
RibSurveyResult run_rib_survey(const topo::Ecosystem& ecosystem,
                               std::uint64_t seed = 4242,
                               RibSurveyOptions options = {});

}  // namespace re::core
