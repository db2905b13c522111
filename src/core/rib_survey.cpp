#include "core/rib_survey.h"

#include <algorithm>
#include <span>
#include <utility>

namespace re::core {

const OriginRibView* RibSurveyResult::find(net::Asn origin) const {
  if (index_.empty()) {
    for (std::size_t i = 0; i < origins.size(); ++i) {
      index_[origins[i].origin.value()] = i;
    }
  }
  const auto it = index_.find(origin.value());
  return it == index_.end() ? nullptr : &origins[it->second];
}

namespace {

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

RibSurveyResult run_rib_survey(const topo::Ecosystem& ecosystem,
                               std::uint64_t seed, RibSurveyOptions options) {
  RibSurveyResult result;
  bgp::BgpNetwork network(seed);
  ecosystem.build_network(network);
  const std::size_t batch_size = std::max<std::size_t>(options.batch_size, 1);

  // The representative prefix per member, in member order.
  std::vector<std::pair<net::Asn, const topo::PrefixRecord*>> sweep;
  for (const net::Asn origin : ecosystem.members()) {
    const topo::PrefixRecord* representative = nullptr;
    for (const topo::PrefixRecord* p : ecosystem.prefixes_of(origin)) {
      if (!p->covered) {
        representative = p;
        break;
      }
    }
    if (representative != nullptr) sweep.emplace_back(origin, representative);
  }

  for (std::size_t begin = 0; begin < sweep.size(); begin += batch_size) {
    const std::size_t end = std::min(begin + batch_size, sweep.size());

    // Announce the whole batch at one simulated instant, then converge
    // every prefix in one interleaved wave.
    for (std::size_t i = begin; i < end; ++i) {
      const auto& [origin, representative] = sweep[i];
      const topo::AsRecord* record = ecosystem.directory().find(origin);
      bgp::OriginationOptions origination;
      origination.to_commodity_sessions = record->traits.announce_to_commodity;
      network.announce(origin, representative->prefix, origination);
    }
    // The dirty set is exactly this batch's prefixes, so the scoped run
    // performs the same deliveries a full sweep would (nothing else is in
    // flight between batches) without walking the whole channel table.
    network.run_dirty_to_convergence();

    for (std::size_t i = begin; i < end; ++i) {
      const auto& [origin, representative] = sweep[i];
      OriginRibView view;
      view.origin = origin;

      // Collector RIBs: one path per collector peer.
      for (const net::Asn peer : ecosystem.collector_peers()) {
        const bgp::Speaker* speaker = network.speaker(peer);
        const bgp::Route* best = speaker->best(representative->prefix);
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
        if (const bgp::Route* best = ripe->best(representative->prefix)) {
          view.ripe_has_route = true;
          view.ripe_via_re = best->re_edge;
          view.ripe_first_hop = best->learned_from;
        }
      }

      result.origins.push_back(view);

      // clear_prefix drops the prefix's state everywhere (RIBs, queues,
      // advertisement history) — a withdrawal wave would be pure overhead.
      network.clear_prefix(representative->prefix);
    }
    network.update_log().clear();
  }
  return result;
}

}  // namespace re::core
