#include "topology/ecosystem.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace re::topo {

EcosystemParams EcosystemParams::scaled(double factor) const {
  EcosystemParams out = *this;
  auto scale_int = [factor](int v, int minimum) {
    return std::max(minimum, static_cast<int>(std::lround(v * factor)));
  };
  out.member_count = scale_int(member_count, 20);
  out.target_prefixes = scale_int(target_prefixes, 40);
  out.covered_prefixes = scale_int(covered_prefixes, 2);
  out.transit_count = scale_int(transit_count, 8);
  out.niks_members = scale_int(niks_members, 2);
  out.niks_prefixes_per_member = std::max(1, niks_prefixes_per_member);
  out.public_view_members = scale_int(public_view_members, 8);
  out.vrf_split_members = std::max(1, scale_int(vrf_split_members, 1));
  out.route_age_ases = std::max(1, scale_int(route_age_ases, 1));
  return out;
}

namespace {

// Well-known tier-1 roster; Lumen first (the commodity announcement's
// provider), Deutsche Telekom second (shared provider in the Figure 5
// German scenario), Arelion third (NIKS's commodity provider).
struct Tier1Spec {
  net::Asn asn;
  const char* name;
};
constexpr Tier1Spec kTier1Roster[] = {
    {net::Asn{3356}, "Lumen"},   {net::Asn{3320}, "DTAG"},
    {net::Asn{1299}, "Arelion"}, {net::Asn{174}, "Cogent"},
    {net::Asn{2914}, "NTT"},     {net::Asn{3257}, "GTT"},
    {net::Asn{6762}, "Sparkle"}, {net::Asn{7018}, "ATT"},
    {net::Asn{6461}, "Zayo"},    {net::Asn{1239}, "T-Sprint"},
};

// Prefix length distribution for member prefixes (mostly /24s, a tail of
// shorter allocations).
constexpr struct {
  std::uint8_t length;
  double weight;
} kPrefixLengths[] = {
    {24, 0.55}, {23, 0.15}, {22, 0.12}, {21, 0.08},
    {20, 0.05}, {19, 0.03}, {16, 0.02},
};

std::uint8_t draw_prefix_length(net::Rng& rng) {
  double total = 0;
  for (const auto& e : kPrefixLengths) total += e.weight;
  double draw = rng.uniform() * total;
  for (const auto& e : kPrefixLengths) {
    draw -= e.weight;
    if (draw < 0) return e.length;
  }
  return 24;
}

// Sequential non-overlapping block allocator.
class PrefixAllocator {
 public:
  explicit PrefixAllocator(std::uint32_t start) : cursor_(start) {}

  net::Prefix allocate(std::uint8_t length) {
    const std::uint32_t size = length >= 32 ? 1u : (1u << (32 - length));
    // Align the cursor up to the block size.
    const std::uint32_t aligned = (cursor_ + size - 1) & ~(size - 1);
    cursor_ = aligned + size;
    return net::Prefix(net::IPv4Address(aligned), length);
  }

 private:
  std::uint32_t cursor_;
};

}  // namespace

Ecosystem Ecosystem::generate(const EcosystemParams& params) {
  Ecosystem eco;
  eco.params_ = params;
  net::Rng rng(params.seed);

  // ---------------------------------------------------------------- tier1s
  for (int i = 0; i < params.tier1_count; ++i) {
    AsRecord r;
    if (i < static_cast<int>(std::size(kTier1Roster))) {
      r.asn = kTier1Roster[i].asn;
      r.name = kTier1Roster[i].name;
    } else {
      r.asn = net::Asn{static_cast<std::uint32_t>(64000 + i)};
      r.name = "Tier1-" + std::to_string(i);
    }
    r.cls = AsClass::kTier1;
    r.country = "US";
    eco.tier1s_.push_back(r.asn);
    eco.directory_.add(std::move(r));
  }
  // (The tier-1 full peering mesh is materialized in build_network.)

  // -------------------------------------------------------------- transits
  for (int i = 0; i < params.transit_count; ++i) {
    AsRecord r;
    r.asn = net::Asn{static_cast<std::uint32_t>(21000 + i)};
    r.cls = AsClass::kTransit;
    r.name = "Transit-" + std::to_string(i);
    r.country = "US";
    const int provider_count = 1 + static_cast<int>(rng.below(3));
    std::vector<net::Asn> pool = eco.tier1s_;
    rng.shuffle(pool);
    for (int p = 0; p < provider_count && p < static_cast<int>(pool.size()); ++p) {
      r.commodity_providers.push_back(pool[static_cast<std::size_t>(p)]);
    }
    eco.transits_.push_back(r.asn);
    eco.directory_.add(std::move(r));
  }

  // -------------------------------------------- R&E backbones and NRENs
  {
    AsRecord i2;
    i2.asn = net::asn::kInternet2;
    i2.cls = AsClass::kReBackbone;
    i2.name = "Internet2";
    i2.country = "US";
    eco.directory_.add(std::move(i2));

    AsRecord geant;
    geant.asn = net::asn::kGeant;
    geant.cls = AsClass::kReBackbone;
    geant.name = "GEANT";
    geant.country = "EU";
    geant.re_peers.push_back(net::asn::kInternet2);
    eco.directory_.add(std::move(geant));

    AsRecord nordu;
    nordu.asn = eco.nordunet_;
    nordu.cls = AsClass::kNren;
    nordu.name = "NORDUnet";
    nordu.country = "EU";
    nordu.re_peers.push_back(net::asn::kInternet2);
    nordu.re_peers.push_back(net::asn::kGeant);
    eco.directory_.add(std::move(nordu));
  }

  const std::vector<NrenProfile> nren_profiles = default_nren_profiles();
  // Nordic NRENs attach through NORDUnet, others through GEANT (European)
  // or peer directly with Internet2 (non-European).
  auto is_nordic = [](const std::string& c) {
    return c == "NO" || c == "SE" || c == "FI" || c == "DK";
  };
  for (const NrenProfile& profile : nren_profiles) {
    AsRecord r;
    r.asn = profile.asn;
    r.cls = AsClass::kNren;
    r.name = profile.name;
    r.country = profile.country;
    r.side = ReSide::kPeerNren;
    if (is_nordic(profile.country)) {
      r.re_providers.push_back(eco.nordunet_);
    } else if (profile.european) {
      r.re_providers.push_back(net::asn::kGeant);
    } else {
      r.re_peers.push_back(net::asn::kInternet2);
      // Half of the non-European NRENs also buy from GEANT for Europe.
      if (rng.chance(0.5)) r.re_providers.push_back(net::asn::kGeant);
    }
    // Commodity arms: DFN-type NRENs share DT with the vantage and do not
    // prepend; others buy 1-2 tier-1s and prepend per profile.
    if (profile.shares_provider_with_vantage) {
      r.commodity_providers.push_back(eco.dt_);
      r.traits.commodity_prepend = 0;
    } else {
      std::vector<net::Asn> pool = eco.tier1s_;
      rng.shuffle(pool);
      r.commodity_providers.push_back(pool[0]);
      if (rng.chance(0.4)) r.commodity_providers.push_back(pool[1]);
      r.traits.commodity_prepend = profile.nren_commodity_prepend;
    }
    eco.nrens_.push_back(r.asn);
    eco.directory_.add(std::move(r));
  }

  // NIKS: Russian R&E transit (Figure 4). Customer of GEANT (localpref
  // 102), NORDUnet (50), and Arelion (50); GEANT does not carry
  // Internet2 routes to NIKS.
  {
    AsRecord r;
    r.asn = net::asn::kNiks;
    r.cls = AsClass::kNren;
    r.name = "NIKS";
    r.country = "RU";
    r.side = ReSide::kPeerNren;
    r.re_providers.push_back(net::asn::kGeant);
    r.re_providers.push_back(eco.nordunet_);
    r.commodity_providers.push_back(net::asn::kArelion);
    eco.nrens_.push_back(r.asn);
    eco.directory_.add(std::move(r));
  }

  // ------------------------------------------------------------- regionals
  const std::vector<RegionalProfile> regional_profiles =
      default_regional_profiles();
  for (const RegionalProfile& profile : regional_profiles) {
    AsRecord r;
    r.asn = profile.asn;
    r.cls = AsClass::kRegional;
    r.name = profile.name;
    r.country = "US";
    r.us_state = profile.us_state;
    r.side = ReSide::kParticipant;
    r.re_providers.push_back(net::asn::kInternet2);
    if (profile.provides_commodity) {
      std::vector<net::Asn> pool = eco.transits_;
      rng.shuffle(pool);
      r.commodity_providers.push_back(pool[0]);
      r.traits.commodity_prepend = profile.regional_commodity_prepend;
    }
    eco.regionals_.push_back(r.asn);
    eco.directory_.add(std::move(r));
  }

  // ------------------------------------------------------- RIPE-like vantage
  {
    AsRecord r;
    r.asn = eco.ripe_;
    r.cls = AsClass::kOther;
    r.name = "RIPE";
    r.country = "NL";
    r.traits.stance = bgp::ReStance::kEqualPref;
    r.re_providers.push_back(net::asn::kSurf);
    r.commodity_providers.push_back(eco.dt_);
    r.commodity_providers.push_back(net::asn::kArelion);
    eco.directory_.add(std::move(r));
  }

  // ------------------------------------------------- measurement endpoints
  eco.measurement_.prefix = *net::Prefix::parse("163.253.63.0/24");
  eco.measurement_.commodity_origin = net::asn::kInternet2Blend;
  eco.measurement_.surf_re_origin = net::asn::kSurfExperiment;
  eco.measurement_.internet2_re_origin = net::asn::kInternet2;
  {
    AsRecord blend;
    blend.asn = net::asn::kInternet2Blend;
    blend.cls = AsClass::kOther;
    blend.name = "Internet2-Blend";
    blend.country = "US";
    blend.commodity_providers.push_back(net::asn::kLumen);
    eco.directory_.add(std::move(blend));

    AsRecord surf_exp;
    surf_exp.asn = net::asn::kSurfExperiment;
    surf_exp.cls = AsClass::kOther;
    surf_exp.name = "SURF-Experiment";
    surf_exp.country = "NL";
    surf_exp.re_providers.push_back(net::asn::kSurf);
    eco.directory_.add(std::move(surf_exp));
  }

  // ----------------------------------------------------------------- members
  // Weighted attachment pools.
  std::vector<double> regional_weights, nren_weights;
  for (const auto& p : regional_profiles) regional_weights.push_back(p.member_weight);
  for (const auto& p : nren_profiles) nren_weights.push_back(p.member_weight);

  const int niks_member_count = params.niks_members;
  for (int i = 0; i < params.member_count; ++i) {
    AsRecord r;
    r.asn = net::Asn{static_cast<std::uint32_t>(50000 + i)};
    r.cls = AsClass::kMember;

    double member_prepend_probability = 0.35;
    bool nren_commodity_available = false;
    bool nren_shares_provider = false;

    if (i < niks_member_count) {
      // Russian members behind NIKS.
      r.side = ReSide::kPeerNren;
      r.country = "RU";
      r.name = "RU-member-" + std::to_string(i);
      r.re_providers.push_back(net::asn::kNiks);
      r.traits.stance = bgp::ReStance::kPreferRe;
      r.traits.has_commodity = false;
      r.traits.announce_to_commodity = false;
      eco.members_.push_back(r.asn);
      eco.directory_.add(std::move(r));
      continue;
    }

    const bool participant = rng.uniform() < params.participant_fraction;
    if (participant) {
      r.side = ReSide::kParticipant;
      r.country = "US";
      const std::size_t idx = rng.weighted(regional_weights);
      const RegionalProfile& profile = regional_profiles[idx];
      r.us_state = profile.us_state;
      r.name = profile.us_state + "-member-" + std::to_string(i);
      if (rng.chance(0.15)) {
        r.re_providers.push_back(net::asn::kInternet2);  // direct connector
      } else {
        r.re_providers.push_back(profile.asn);
        if (rng.chance(0.06)) {
          // Dual-homed to a second regional.
          const std::size_t second = rng.weighted(regional_weights);
          if (regional_profiles[second].asn != profile.asn) {
            r.re_providers.push_back(regional_profiles[second].asn);
          }
        }
      }
      member_prepend_probability = profile.member_prepend_probability;
      nren_commodity_available = profile.provides_commodity;
    } else {
      r.side = ReSide::kPeerNren;
      const std::size_t idx = rng.weighted(nren_weights);
      const NrenProfile& profile = nren_profiles[idx];
      r.country = profile.country;
      r.name = profile.country + "-member-" + std::to_string(i);
      r.re_providers.push_back(profile.asn);
      member_prepend_probability = profile.member_prepend_probability;
      nren_commodity_available = profile.provides_commodity;
      nren_shares_provider = profile.shares_provider_with_vantage;
    }

    // Commodity attachment. Members of commodity-selling NRENs mostly rely
    // on that service ("near exclusively", §4.3) and have no external
    // transit of their own.
    bool external_commodity;
    if (nren_commodity_available && rng.chance(params.p_nren_commodity_take)) {
      external_commodity = false;
    } else {
      external_commodity = rng.chance(params.p_external_commodity);
    }
    if (external_commodity) {
      const int provider_count = rng.chance(0.6) ? 1 : (rng.chance(0.75) ? 2 : 3);
      std::vector<net::Asn> pool = eco.transits_;
      rng.shuffle(pool);
      for (int p = 0; p < provider_count; ++p) {
        r.commodity_providers.push_back(pool[static_cast<std::size_t>(p)]);
      }
      if (rng.chance(0.08)) {
        r.commodity_providers.back() = rng.pick(eco.tier1s_);
      }
      // German-style members buy straight from the shared tier-1.
      if (nren_shares_provider && rng.chance(0.3)) {
        r.commodity_providers[0] = eco.dt_;
      }
    }
    r.traits.has_commodity = external_commodity;

    // Planted egress stance. Members without any commodity egress always
    // return over R&E regardless of stance.
    const double draw = rng.uniform();
    if (draw < params.p_prefer_re) {
      r.traits.stance = bgp::ReStance::kPreferRe;
    } else if (draw < params.p_prefer_re + params.p_equal_pref) {
      r.traits.stance = bgp::ReStance::kEqualPref;
    } else if (draw <
               params.p_prefer_re + params.p_equal_pref + params.p_prefer_commodity) {
      r.traits.stance = bgp::ReStance::kPreferCommodity;
    } else {
      r.traits.stance = bgp::ReStance::kPreferRe;  // base stance...
      r.traits.reject_re_routes = true;            // ...but no R&E import
    }

    r.traits.announce_to_commodity =
        external_commodity && rng.chance(params.p_announce_to_commodity);
    r.traits.default_route_commodity =
        !external_commodity && !nren_commodity_available &&
        rng.chance(params.p_hidden_default_route);

    // Own-ASN prepending habits (Table 4 / Figure 5 signal). Strongly
    // conditioned communities (NYSERNet-style, §4.3) prepend harder.
    if (external_commodity && rng.chance(member_prepend_probability)) {
      r.traits.commodity_prepend =
          member_prepend_probability >= 0.7
              ? 3
              : 1 + static_cast<std::uint32_t>(rng.below(3));
    }
    const double re_prepend_p =
        r.traits.stance == bgp::ReStance::kPreferCommodity
            ? params.p_re_prepend_given_prefer_commodity
            : params.p_re_prepend_other;
    if (rng.chance(re_prepend_p)) {
      r.traits.re_prepend = 1 + static_cast<std::uint32_t>(rng.below(2));
    }

    r.traits.uses_route_age = false;
    r.traits.damps_flaps = rng.chance(params.p_damping);

    eco.members_.push_back(r.asn);
    eco.directory_.add(std::move(r));
  }

  // --------------------------------------------------------- special plants
  // Case-J networks: international, equal localpref, ignore AS path
  // length, break ties on route age (Appendix A/B: 4 ASes, 8 prefixes).
  {
    int planted = 0;
    for (const net::Asn member : eco.members_) {
      if (planted >= params.route_age_ases) break;
      AsRecord* r = eco.directory_.find(member);
      if (r->side != ReSide::kPeerNren || !r->traits.has_commodity ||
          r->country == "RU") {
        continue;
      }
      r->traits.stance = bgp::ReStance::kEqualPref;
      r->traits.reject_re_routes = false;
      r->traits.uses_route_age = true;
      r->traits.ignores_as_path_length = true;
      ++planted;
    }
  }

  // Public-view members (Table 3): pick across the stance spectrum, then
  // mark a few as VRF-split exporters (the incongruent ones).
  {
    std::vector<net::Asn> prefer_re, other;
    for (const net::Asn member : eco.members_) {
      const AsRecord* r = eco.directory_.find(member);
      if (!r->traits.has_commodity || r->traits.uses_route_age) continue;
      if (r->traits.stance == bgp::ReStance::kPreferRe &&
          !r->traits.reject_re_routes) {
        prefer_re.push_back(member);
      } else {
        other.push_back(member);
      }
    }
    rng.shuffle(prefer_re);
    rng.shuffle(other);
    const int want_other = std::min<int>(params.public_view_members / 3,
                                         static_cast<int>(other.size()));
    int taken = 0;
    for (int i = 0; i < want_other && taken < params.public_view_members; ++i) {
      eco.directory_.find(other[static_cast<std::size_t>(i)])
          ->traits.provides_public_view = true;
      eco.member_view_peers_.push_back(other[static_cast<std::size_t>(i)]);
      ++taken;
    }
    int vrf_assigned = 0;
    for (std::size_t i = 0; i < prefer_re.size() && taken < params.public_view_members;
         ++i, ++taken) {
      AsRecord* r = eco.directory_.find(prefer_re[i]);
      r->traits.provides_public_view = true;
      if (vrf_assigned < params.vrf_split_members) {
        r->traits.vrf_split_export = true;
        ++vrf_assigned;
      }
      eco.member_view_peers_.push_back(prefer_re[i]);
    }
    std::sort(eco.member_view_peers_.begin(), eco.member_view_peers_.end());
  }

  // ------------------------------------------------------ prefix generation
  {
    // Pareto-ish weights give the heavy-tailed prefixes-per-AS
    // distribution; NIKS members and case-J ASes get fixed counts.
    std::vector<double> weights(eco.members_.size());
    double total_weight = 0;
    for (std::size_t i = 0; i < eco.members_.size(); ++i) {
      const double u = std::max(rng.uniform(), 1e-9);
      // Pareto-ish tail, capped so that no single AS dominates the
      // prefix-share statistics.
      weights[i] = std::min(std::pow(1.0 / u, 1.0 / 1.35), 9.0);
      total_weight += weights[i];
    }
    const int plain_target = params.target_prefixes - params.covered_prefixes;
    std::vector<int> counts(eco.members_.size());
    int assigned = 0;
    for (std::size_t i = 0; i < eco.members_.size(); ++i) {
      const AsRecord* r = eco.directory_.find(eco.members_[i]);
      if (r->country == "RU" && r->cls == AsClass::kMember &&
          static_cast<int>(i) < params.niks_members) {
        counts[i] = params.niks_prefixes_per_member;
      } else if (r->traits.uses_route_age) {
        counts[i] = 2;
      } else {
        counts[i] = std::max(
            1, static_cast<int>(std::lround(weights[i] / total_weight *
                                            plain_target)));
      }
      assigned += counts[i];
    }
    // Trim or pad the largest allocations until the target matches.
    std::vector<std::size_t> order(counts.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return counts[a] > counts[b]; });
    std::size_t cursor = 0;
    while (assigned != plain_target && !order.empty()) {
      std::size_t idx = order[cursor % order.size()];
      if (assigned > plain_target && counts[idx] > 1) {
        --counts[idx];
        --assigned;
      } else if (assigned < plain_target) {
        ++counts[idx];
        ++assigned;
      }
      ++cursor;
    }

    PrefixAllocator allocator(net::IPv4Address::from_octets(128, 0, 0, 0).value());
    for (std::size_t i = 0; i < eco.members_.size(); ++i) {
      const AsRecord* r = eco.directory_.find(eco.members_[i]);
      for (int k = 0; k < counts[i]; ++k) {
        PrefixRecord p;
        p.prefix = allocator.allocate(draw_prefix_length(rng));
        p.origin = r->asn;
        p.side = r->side;
        p.country = r->country;
        p.us_state = r->us_state;
        if (rng.chance(params.p_interconnect_prefix)) {
          p.has_interconnect_system = true;
          p.interconnect_as = r->commodity_providers.empty()
                                  ? rng.pick(eco.transits_)
                                  : rng.pick(r->commodity_providers);
        }
        // Per-prefix egress stance deviations (§3.4) need commodity
        // egress and multiple prefixes to be observable as AS-category
        // overlap.
        if (counts[i] > 1 && r->traits.has_commodity &&
            !r->traits.reject_re_routes &&
            rng.chance(params.p_prefix_stance_override)) {
          switch (rng.below(3)) {
            case 0: p.stance_override = bgp::ReStance::kPreferRe; break;
            case 1: p.stance_override = bgp::ReStance::kEqualPref; break;
            default: p.stance_override = bgp::ReStance::kPreferCommodity;
          }
          if (*p.stance_override == r->traits.stance) p.stance_override.reset();
        }
        eco.prefixes_.push_back(std::move(p));
      }
    }

    // Covered more-specifics (§3.2: 437 excluded as entirely covered).
    for (int k = 0; k < params.covered_prefixes; ++k) {
      const PrefixRecord& parent =
          eco.prefixes_[rng.below(eco.prefixes_.size())];
      if (parent.prefix.length() > 28 || parent.covered) {
        --k;  // retry with a different parent
        continue;
      }
      PrefixRecord child = parent;
      const std::uint8_t child_len =
          static_cast<std::uint8_t>(parent.prefix.length() + 2);
      const std::uint64_t quarter = rng.below(4);
      child.prefix = net::Prefix(
          parent.prefix.address_at(quarter * (parent.prefix.size() / 4)),
          child_len);
      child.covered = true;
      child.has_interconnect_system = false;
      eco.prefixes_.push_back(std::move(child));
    }

    for (std::size_t i = 0; i < eco.prefixes_.size(); ++i) {
      eco.prefixes_by_origin_[eco.prefixes_[i].origin.value()].push_back(i);
    }
  }

  // --------------------------------------------------------------- collectors
  // RouteViews/RIS peers are overwhelmingly commodity networks: every
  // tier-1 and mid-tier transit feeds the collector, plus RIPE and the
  // member views. This asymmetry is what makes commodity-phase churn dwarf
  // R&E-phase churn in Figure 3.
  eco.collector_peers_ = eco.tier1s_;
  for (const net::Asn transit : eco.transits_) {
    eco.collector_peers_.push_back(transit);
  }
  eco.collector_peers_.push_back(eco.ripe_);
  for (const net::Asn asn : eco.member_view_peers_) {
    eco.collector_peers_.push_back(asn);
  }
  std::sort(eco.collector_peers_.begin(), eco.collector_peers_.end());

  return eco;
}

bool Ecosystem::is_re_transit(net::Asn asn) const {
  const AsRecord* r = directory_.find(asn);
  if (r == nullptr) return false;
  return r->cls == AsClass::kReBackbone || r->cls == AsClass::kNren ||
         r->cls == AsClass::kRegional;
}

std::vector<const PrefixRecord*> Ecosystem::prefixes_of(net::Asn origin) const {
  std::vector<const PrefixRecord*> out;
  const auto it = prefixes_by_origin_.find(origin.value());
  if (it == prefixes_by_origin_.end()) return out;
  out.reserve(it->second.size());
  for (const std::size_t idx : it->second) out.push_back(&prefixes_[idx]);
  return out;
}

void Ecosystem::build_network(bgp::BgpNetwork& network) const {
  // Pre-size the speaker index so building the topology never rehashes.
  network.reserve_topology(directory_.size());

  // Speakers first, in deterministic order.
  for (const net::Asn asn : directory_.all()) network.add_speaker(asn);

  // Tier-1 full mesh.
  for (std::size_t i = 0; i < tier1s_.size(); ++i) {
    for (std::size_t j = i + 1; j < tier1s_.size(); ++j) {
      network.connect_peering(tier1s_[i], tier1s_[j], /*re_edge=*/false);
    }
  }

  // Links recorded on each AS.
  for (const net::Asn asn : directory_.all()) {
    const AsRecord* r = directory_.find(asn);
    for (const net::Asn provider : r->re_providers) {
      network.connect_transit(provider, asn, /*re_edge=*/true);
    }
    for (const net::Asn provider : r->commodity_providers) {
      network.connect_transit(provider, asn, /*re_edge=*/false);
    }
    for (const net::Asn peer : r->re_peers) {
      if (asn < peer || directory_.find(peer) == nullptr ||
          std::find(directory_.find(peer)->re_peers.begin(),
                    directory_.find(peer)->re_peers.end(),
                    asn) == directory_.find(peer)->re_peers.end()) {
        network.connect_peering(asn, peer, /*re_edge=*/true);
      }
    }
  }

  // Transit-to-transit peering: a deterministic sparse mesh.
  for (std::size_t i = 0; i + 7 < transits_.size(); i += 3) {
    network.connect_peering(transits_[i], transits_[i + 7], /*re_edge=*/false);
  }

  // Per-AS policies.
  for (const net::Asn asn : directory_.all()) {
    const AsRecord* r = directory_.find(asn);
    bgp::Speaker* s = network.speaker(asn);

    s->import_policy().re_stance = r->traits.stance;
    s->import_policy().reject_re_routes = r->traits.reject_re_routes;
    s->export_policy().commodity_prepend = r->traits.commodity_prepend;
    s->export_policy().re_prepend = r->traits.re_prepend;
    s->decision().use_as_path_length = !r->traits.ignores_as_path_length;
    s->decision().use_route_age = r->traits.uses_route_age;
    s->set_vrf_split_export(r->traits.vrf_split_export);
    s->damping().enabled = r->traits.damps_flaps;

    if (r->cls == AsClass::kReBackbone) {
      s->set_re_transit_between_peers(true);
    }
    if (asn == nordunet_) s->set_re_transit_between_peers(true);
  }

  // The RIPE-like vantage breaks its (frequent, equal-localpref) ties on
  // route age: real vantages see per-prefix attribute variety that a fixed
  // router-id comparison would erase, and arrival order supplies exactly
  // that per-prefix variety here.
  if (bgp::Speaker* ripe_speaker = network.speaker(ripe_)) {
    ripe_speaker->decision().use_route_age = true;
  }

  // NIKS localpref overrides (Figure 4) and GEANT's export filter.
  if (bgp::Speaker* niks_speaker = network.speaker(net::asn::kNiks)) {
    niks_speaker->import_policy().neighbor_pref[net::asn::kGeant] = 102;
    niks_speaker->import_policy().neighbor_pref[nordunet_] = 50;
    niks_speaker->import_policy().neighbor_pref[net::asn::kArelion] = 50;
  }
  if (bgp::Speaker* geant_speaker = network.speaker(net::asn::kGeant)) {
    geant_speaker->export_policy().neighbor_path_block[net::asn::kNiks] = {
        net::asn::kInternet2};
  }

  // Hidden default routes: mark the first commodity session.
  // (Session flags live on the speaker; re-add is not possible, so the
  // builder sets them through a dedicated pass.)
  for (const net::Asn asn : members_) {
    const AsRecord* r = directory_.find(asn);
    // The directory can lose members after generation (directory gaps);
    // the member list is intentionally left untouched.
    if (r == nullptr || !r->traits.default_route_commodity) continue;
    // A member with a hidden default route has no visible commodity
    // provider; attach a transit session used for default egress only.
    // Deterministic transit choice by ASN.
    const net::Asn transit =
        transits_[asn.value() % static_cast<std::uint32_t>(transits_.size())];
    network.connect_transit(transit, asn, /*re_edge=*/false);
    bgp::Speaker* s = network.speaker(asn);
    s->set_session_default_route(transit);
    // A hidden upstream carries a default route only — the member imports
    // no table from it, which is exactly why public BGP never shows the
    // relationship (§4.2 / Bush et al.).
    s->import_policy().reject_neighbors.push_back(transit);
  }

  // Collector feeds.
  for (const net::Asn peer : collector_peers_) network.add_collector_peer(peer);
}

void Ecosystem::announce_member_prefixes(bgp::BgpNetwork& network,
                                         net::Asn origin) const {
  const AsRecord* r = directory_.find(origin);
  if (r == nullptr) return;
  bgp::OriginationOptions options;
  options.to_commodity_sessions = r->traits.announce_to_commodity;
  for (const PrefixRecord* p : prefixes_of(origin)) {
    network.announce(origin, p->prefix, options);
  }
}

}  // namespace re::topo
