// RIB survey: the public-BGP-side observations the paper draws from
// RouteViews / RIPE RIS RIB files (Table 4) and from RIPE's own view
// (Figure 5).
//
// Member prefixes are swept through the network one origin at a time
// (announce -> converge -> read vantage RIBs -> clear), which keeps memory
// flat: prefixes of one origin share announcement policy, so a single
// representative propagation is exact for all of them.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "bgp/network.h"
#include "netbase/asn.h"
#include "netbase/prefix.h"
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
  std::vector<OriginRibView> origins;  // member order
};

// The one member sweep. For each member with an uncovered prefix, in
// member order: announce its first uncovered prefix with the member's
// planted origination (commodity sessions only if it announces to
// commodity), converge the dirty set, call `read(origin, prefix)` while
// the prefix is converged, then clear the prefix and the update log so
// the next origin sees a fresh network's timeline. `network` must have
// nothing in flight on entry: each convergence runs only the dirty set.
void sweep_origins(
    const topo::Ecosystem& ecosystem, bgp::BgpNetwork& network,
    const std::function<void(net::Asn origin, const net::Prefix& prefix)>& read);

// Sweeps every member origin through a network of its own. Building the
// network and propagating ~2.6K origins takes about ten seconds at paper
// scale.
RibSurveyResult run_rib_survey(const topo::Ecosystem& ecosystem);

}  // namespace re::core
