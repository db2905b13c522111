#include "core/rib_survey.h"

#include <algorithm>
#include <span>
#include <utility>

namespace re::core {

namespace {

// The survey network's edge-delay seed.
constexpr std::uint64_t kSurveySeed = 4242;

// Counts the trailing origin run in a path and identifies the AS directly
// above the origin. Returns (prepends beyond the first copy, upstream) or
// nullopt when the path does not end in `origin` / has no upstream.
std::optional<std::pair<std::uint32_t, net::Asn>> origin_run(
    std::span<const net::Asn> asns, net::Asn origin) {
  if (asns.empty() || asns.back() != origin) return std::nullopt;
  std::size_t run = 0;
  for (auto it = asns.rbegin(); it != asns.rend() && *it == origin; ++it) ++run;
  if (run >= asns.size()) return std::nullopt;  // origin-only path
  const net::Asn upstream = asns[asns.size() - run - 1];
  return std::make_pair(static_cast<std::uint32_t>(run - 1), upstream);
}

}  // namespace

void sweep_origins(
    const topo::Ecosystem& ecosystem, bgp::BgpNetwork& network,
    const std::function<void(net::Asn origin, const net::Prefix& prefix)>& read) {
  for (const net::Asn origin : ecosystem.members()) {
    const auto prefixes = ecosystem.prefixes_of(origin);
    const auto representative =
        std::find_if(prefixes.begin(), prefixes.end(),
                     [](const topo::PrefixRecord* p) { return !p->covered; });
    if (representative == prefixes.end()) continue;
    const net::Prefix& prefix = (*representative)->prefix;

    bgp::OriginationOptions origination;
    origination.to_commodity_sessions =
        ecosystem.directory().find(origin)->traits.announce_to_commodity;
    network.announce(origin, prefix, origination);
    // The dirty set is exactly this prefix (nothing else is in flight
    // between origins), so the scoped run performs the same deliveries a
    // full run would without walking the whole channel table.
    network.run_dirty_to_convergence();

    read(origin, prefix);

    // clear_prefix drops the prefix's state everywhere (RIBs, queues,
    // advertisement history) — a withdrawal wave would be pure overhead.
    network.clear_prefix(prefix);
    network.update_log().clear();
  }
}

RibSurveyResult run_rib_survey(const topo::Ecosystem& ecosystem) {
  RibSurveyResult result;
  bgp::BgpNetwork network(kSurveySeed);
  ecosystem.build_network(network);

  sweep_origins(ecosystem, network, [&](net::Asn origin,
                                        const net::Prefix& prefix) {
    OriginRibView view;
    view.origin = origin;

    // Collector RIBs: one path per collector peer.
    for (const net::Asn peer : ecosystem.collector_peers()) {
      const bgp::Route* best = network.speaker(peer)->best(prefix);
      if (best == nullptr) continue;
      const auto run = origin_run(network.paths().span(best->path), origin);
      if (!run) continue;
      const auto [prepends, upstream] = *run;
      if (ecosystem.is_re_transit(upstream)) {
        view.re_prepends = std::max(view.re_prepends.value_or(0), prepends);
      } else {
        view.comm_prepends = std::max(view.comm_prepends.value_or(0), prepends);
      }
    }

    // The RIPE-like vantage's selected route.
    if (const bgp::Speaker* ripe = network.speaker(ecosystem.ripe())) {
      if (const bgp::Route* best = ripe->best(prefix)) {
        view.ripe_has_route = true;
        view.ripe_via_re = best->re_edge;
        view.ripe_first_hop = best->learned_from;
      }
    }

    result.origins.push_back(view);
  });
  return result;
}

}  // namespace re::core
