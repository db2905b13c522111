// AS directory: classes, traits, and prefix records for the synthetic
// R&E ecosystem.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "bgp/policy.h"
#include "netbase/asn.h"
#include "netbase/prefix.h"

namespace re::topo {

// Structural role of an AS in the ecosystem.
enum class AsClass : std::uint8_t {
  kTier1,       // commodity backbone (settlement-free core)
  kTransit,     // mid-tier commodity transit
  kReBackbone,  // Internet2 / GEANT: glue between R&E networks
  kNren,        // national R&E network (SURF, DFN, ...)
  kRegional,    // U.S. regional R&E aggregator (NYSERNet, CENIC, ...)
  kMember,      // R&E member institution (edge network)
  kOther,       // measurement endpoints, RIPE-like vantage, ...
};

std::string to_string(AsClass c);

// Internet2 neighbor class per §2.1, assigned to member prefixes: U.S.
// domestic R&E (Participant) vs international R&E (Peer-NREN).
enum class ReSide : std::uint8_t { kParticipant, kPeerNren };

std::string to_string(ReSide s);

// Per-AS behavioural traits planted by the generator — the ground truth
// the inference pipeline is asked to recover.
struct MemberTraits {
  bgp::ReStance stance = bgp::ReStance::kPreferRe;

  bool has_commodity = true;           // any commodity egress at all
  bool announce_to_commodity = true;   // own prefixes visible via commodity
  bool default_route_commodity = false;  // hidden commodity egress

  std::uint32_t commodity_prepend = 0;  // own-ASN prepending toward commodity
  std::uint32_t re_prepend = 0;         // own-ASN prepending toward R&E

  // Case-J behaviour (Appendix A): break ties on route age, ignore AS
  // path length.
  bool uses_route_age = false;
  bool ignores_as_path_length = false;

  // Table 3 confound: exports the commodity VRF to public collectors.
  bool vrf_split_export = false;
  // This AS feeds a public collector (RouteViews/RIS peer).
  bool provides_public_view = false;

  // Import-side rejection of R&E routes (commodity-only RIB).
  bool reject_re_routes = false;

  // This AS damps route flaps (Gray et al. 2020: ~9% of ASes do).
  bool damps_flaps = false;
};

struct AsRecord {
  net::Asn asn;
  AsClass cls = AsClass::kMember;
  ReSide side = ReSide::kParticipant;
  std::string name;
  std::string country;   // ISO-3166-ish code ("US", "NL", ...)
  std::string us_state;  // two-letter code for U.S. members, else empty

  MemberTraits traits;
  std::vector<net::Asn> re_providers;
  std::vector<net::Asn> commodity_providers;
  std::vector<net::Asn> re_peers;
};

// One announced R&E prefix.
struct PrefixRecord {
  net::Prefix prefix;
  net::Asn origin;
  ReSide side = ReSide::kParticipant;
  std::string country;
  std::string us_state;

  // True for prefixes entirely covered by another announced prefix —
  // excluded from probing per §3.2 (437 such in the paper).
  bool covered = false;

  // Interconnect-router confound (§4.1.2): one of the systems inside this
  // prefix uses an address whose return routing follows `interconnect_as`
  // (e.g. a router of a neighboring AS numbered from this prefix).
  bool has_interconnect_system = false;
  net::Asn interconnect_as;

  // §3.4: some networks apply localpref at finer granularity than
  // per-session. When set, traffic sourced from this prefix follows a
  // different egress stance than the origin AS's default (policy routing
  // per prefix) — the reason real ASes land in multiple Table 1 rows.
  std::optional<bgp::ReStance> stance_override;
};

// The AS directory: lookup by ASN plus class-level listings.
class AsDirectory {
 public:
  AsRecord& add(AsRecord record);
  // Removes the record for `asn`; returns false when absent. Used to model
  // directory gaps (an AS observed in BGP but missing from the registry).
  bool erase(net::Asn asn);
  const AsRecord* find(net::Asn asn) const;
  AsRecord* find(net::Asn asn);
  bool contains(net::Asn asn) const { return by_asn_.count(asn) != 0; }
  std::size_t size() const noexcept { return records_.size(); }

  std::vector<net::Asn> all() const;

 private:
  std::vector<AsRecord> records_;
  std::unordered_map<net::Asn, std::size_t> by_asn_;
};

}  // namespace re::topo
