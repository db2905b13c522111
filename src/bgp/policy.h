// Import/export routing policy, the heart of what the paper infers.
//
// Policies follow the Gao-Rexford structure (customer > peer > provider
// local-preference; customer routes exported to everyone, peer/provider
// routes only to customers), extended with the R&E-specific behaviours the
// paper describes:
//   * R&E backbones re-export routes learned from peer NRENs to other peer
//     NRENs, building the global R&E fabric (§2.1);
//   * members assign a relative preference between their R&E and commodity
//     providers — higher, equal, or lower localpref (the planted ground
//     truth the inference pipeline recovers);
//   * per-neighbor localpref overrides (the NIKS case of Figure 4);
//   * AS-path prepending on export, globally or per neighbor (§4.2).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>

#include "bgp/route.h"
#include "netbase/asn.h"

namespace re::bgp {

// The neighbor's business role relative to the local AS.
enum class Relationship : std::uint8_t { kCustomer, kPeer, kProvider };

std::string to_string(Relationship r);

// One eBGP session from the local AS to a neighbor.
struct Session {
  net::Asn neighbor;
  Relationship relationship = Relationship::kPeer;

  // True when the session is part of the R&E fabric (e.g. a member's
  // session to its regional/NREN, or Internet2's session to GEANT).
  bool re_edge = false;

  // IGP cost to the session's next hop (decision step 6).
  std::uint32_t igp_cost = 10;

  // Neighbor's router-id on this session (final tie-break).
  std::uint32_t router_id = 0;

  // True if the local AS points a default route at this neighbor; traffic
  // to prefixes absent from the RIB egresses here. Members with hidden
  // commodity transit (§4.2 "no commodity" discussion) use this.
  bool default_route = false;

  // The neighbor's dense speaker index in the owning BgpNetwork, so the
  // delivery path addresses it without hashing its ASN. Set by the
  // network when it connects the session; never encoded (decoding a
  // snapshot rebuilds it). kNoIndex on standalone speakers.
  static constexpr std::uint32_t kNoIndex = static_cast<std::uint32_t>(-1);
  std::uint32_t neighbor_index = kNoIndex;
};

// The relative stance a network takes between R&E and commodity routes —
// exactly the property the paper's method infers.
enum class ReStance : std::uint8_t {
  kPreferRe,         // higher localpref on R&E sessions ("Always R&E")
  kEqualPref,        // same localpref; AS path length breaks the tie
  kPreferCommodity,  // higher localpref on commodity ("Always commodity")
};

std::string to_string(ReStance s);

// Import-side policy: assigns localpref and filters routes.
struct ImportPolicy {
  // Gao-Rexford base localpref by relationship.
  std::uint32_t customer_pref = 200;
  std::uint32_t peer_pref = 150;
  std::uint32_t provider_pref = 100;

  // Bonus added to the favoured side when the stance is not equal.
  std::uint32_t stance_bonus = 20;
  ReStance re_stance = ReStance::kPreferRe;

  // Absolute per-neighbor localpref overrides (strongest rule; the NIKS
  // configuration assigns GEANT 102 and NORDUnet/Arelion 50).
  std::map<net::Asn, std::uint32_t> neighbor_pref;

  // When true, routes from R&E sessions are rejected outright (a
  // commodity-only import policy; one way a network ends up
  // "Always commodity" even though it is R&E-connected).
  bool reject_re_routes = false;

  // Neighbors whose routes are rejected entirely (session effectively
  // down for this prefix universe — used to model connectivity churn
  // between experiment dates).
  std::vector<net::Asn> reject_neighbors;

  // Computes the localpref for a route arriving on `session`.
  std::uint32_t local_pref_for(const Session& session) const;

  // True if a route arriving on `session` passes the import filter.
  bool accepts(const Session& session) const;
};

// Export-side policy: prepending configuration.
struct ExportPolicy {
  // Extra copies of the local ASN prepended on every export.
  std::uint32_t default_prepend = 0;

  // Extra copies prepended on exports to sessions *not* on the R&E fabric
  // — the "prepend your commodity announcements" convention (§4.2, §4.3).
  std::uint32_t commodity_prepend = 0;

  // Extra copies prepended on exports to R&E-fabric sessions (networks
  // that deliberately push traffic to commodity set this; Table 4's
  // R>C rows).
  std::uint32_t re_prepend = 0;

  // Per-neighbor overrides, added on top of the class prepends.
  std::map<net::Asn, std::uint32_t> neighbor_prepend;

  // Per-neighbor path filters: routes whose AS path contains any of the
  // listed ASNs are not exported to that neighbor. (Figure 4: GEANT did
  // not carry the Internet2 route to NIKS.)
  std::map<net::Asn, std::vector<net::Asn>> neighbor_path_block;

  // Total extra prepends for an export on `session` (not counting the one
  // mandatory copy of the local ASN).
  std::uint32_t prepends_for(const Session& session) const;

  // True if a route with `path` may be exported to `neighbor`. The span
  // form is the hot path (it reads the interned arena directly); the
  // AsPath form is a convenience for analyses and tests.
  bool path_allowed(net::Asn neighbor, std::span<const net::Asn> path) const;
  bool path_allowed(net::Asn neighbor, const AsPath& path) const {
    return path_allowed(neighbor, std::span<const net::Asn>(path.asns()));
  }

  // Fast pre-check: true when no per-neighbor path filter exists at all
  // (the overwhelmingly common case), letting exporters skip the span
  // materialization entirely.
  bool has_path_filters() const noexcept { return !neighbor_path_block.empty(); }
};

// Gao-Rexford export eligibility, with the R&E peer-to-peer extension.
//
// `route_session` is the session the route was learned on (nullptr for a
// locally originated route); `to` is the candidate export session.
// `re_transit_between_peers` is set for R&E backbone networks that stitch
// peer NRENs together.
bool export_allowed(const Session* route_session, const Session& to,
                    bool re_transit_between_peers);

}  // namespace re::bgp
