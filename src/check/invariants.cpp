#include "check/invariants.h"

#include <algorithm>

#include "bgp/decision.h"
#include "bgp/policy.h"
#include "bgp/speaker.h"
#include "check/reference_decision.h"
#include "check/return_path.h"
#include "netbase/binio.h"

namespace re::check {
namespace {

using bgp::Route;
using bgp::Speaker;

Violation make(const char* invariant, std::string detail) {
  Violation v;
  v.invariant = invariant;
  v.detail = std::move(detail);
  return v;
}

// The AS chain a route's presence asserts: receiver first, then the path
// as sent, with consecutive prepend runs collapsed (prepends repeat an AS
// in place; they never create a new adjacency).
std::vector<net::Asn> collapsed_chain(net::Asn receiver,
                                      std::span<const net::Asn> path) {
  std::vector<net::Asn> chain;
  chain.reserve(path.size() + 1);
  chain.push_back(receiver);
  for (const net::Asn asn : path) {
    if (chain.back() != asn) chain.push_back(asn);
  }
  return chain;
}

std::string route_context(const Speaker& speaker, const net::Prefix& prefix,
                          const Route& route) {
  return speaker.asn().to_string() + " prefix " + prefix.to_string() +
         " via " + route.learned_from.to_string();
}

// Stored bests are copies of the winning candidate, so every attribute
// must match bit-for-bit (a drifted copy means a missed re-decision).
bool same_route(const Route& a, const Route& b) {
  return a.path == b.path && a.learned_from == b.learned_from &&
         a.origin == b.origin && a.med == b.med &&
         a.local_pref == b.local_pref && a.igp_cost == b.igp_cost &&
         a.neighbor_router_id == b.neighbor_router_id && a.ebgp == b.ebgp &&
         a.established_at == b.established_at && a.re_only == b.re_only;
}

}  // namespace

std::optional<Violation> InvariantSuite::decision_conformance(
    bool med_flip_mutant) {
  ++checks_run_;
  bgp::PathTable table;
  for (AdversarialPair& pair : adversarial_pairs(table)) {
    pair.config.mutant_med_flip = med_flip_mutant;
    const Route candidates[2] = {pair.preferred, pair.other};
    const Route reversed[2] = {pair.other, pair.preferred};
    // Both argument orders through the production comparator...
    if (!bgp::better_route(pair.preferred, pair.other, pair.config) ||
        bgp::better_route(pair.other, pair.preferred, pair.config)) {
      return make("decision-conformance",
                  std::string(pair.name) +
                      ": better_route disagrees with the reference direction");
    }
    // ...and through the fold, with decided_by attribution.
    const auto forward = bgp::select_best(candidates, pair.config);
    const auto backward = bgp::select_best(reversed, pair.config);
    if (forward.best_index != 0 || backward.best_index != 1) {
      return make("decision-conformance",
                  std::string(pair.name) + ": select_best picked the loser");
    }
    if (forward.decided_by != pair.step || backward.decided_by != pair.step) {
      return make("decision-conformance",
                  std::string(pair.name) + ": decided_by is " +
                      bgp::to_string(forward.decided_by) + ", expected " +
                      bgp::to_string(pair.step));
    }
    // The reference must of course agree with itself on its own table —
    // a guard against the oracle and the table drifting apart.
    if (!reference_better(pair.preferred, pair.other, pair.config)) {
      return make("decision-conformance",
                  std::string(pair.name) + ": reference rejects its own pair");
    }
  }
  return std::nullopt;
}

std::optional<Violation> InvariantSuite::loop_freedom(
    const bgp::BgpNetwork& network) {
  ++checks_run_;
  const bgp::PathTable& paths = network.paths();
  for (const net::Asn asn : network.asns()) {
    const Speaker* speaker = network.speaker(asn);
    for (const net::Prefix& prefix : speaker->known_prefixes()) {
      for (const Route& route : speaker->candidates(prefix)) {
        if (!route.learned_from.valid()) continue;  // local origination
        const auto chain = collapsed_chain(asn, paths.span(route.path));
        for (std::size_t i = 0; i < chain.size(); ++i) {
          for (std::size_t j = i + 1; j < chain.size(); ++j) {
            if (chain[i] == chain[j]) {
              return make("loop-freedom",
                          route_context(*speaker, prefix, route) + ": " +
                              chain[i].to_string() +
                              " appears twice in the AS chain");
            }
          }
        }
      }
    }
  }
  return std::nullopt;
}

std::optional<Violation> InvariantSuite::decision_soundness(
    const bgp::BgpNetwork& network) {
  ++checks_run_;
  for (const net::Asn asn : network.asns()) {
    const Speaker* speaker = network.speaker(asn);
    // candidates() is the undamped view; a suppressed route legitimately
    // loses a contest it would win here.
    if (speaker->damping().enabled) continue;
    for (const net::Prefix& prefix : speaker->known_prefixes()) {
      const auto candidates = speaker->candidates(prefix);
      const Route* best = speaker->best(prefix);
      if (candidates.empty()) {
        if (best != nullptr) {
          return make("decision-soundness",
                      route_context(*speaker, prefix, *best) +
                          ": best installed with no candidates");
        }
        continue;
      }
      if (best == nullptr) {
        return make("decision-soundness",
                    speaker->asn().to_string() + " prefix " +
                        prefix.to_string() +
                        ": candidates present but no best installed");
      }
      const auto ref = reference_select(candidates, speaker->decision());
      if (!same_route(*best, candidates[ref.best_index])) {
        return make("decision-soundness",
                    route_context(*speaker, prefix, *best) +
                        ": installed best is not the reference winner (" +
                        candidates[ref.best_index].learned_from.to_string() +
                        ")");
      }
      if (speaker->best_decided_by(prefix) != ref.decided_by) {
        return make("decision-soundness",
                    route_context(*speaker, prefix, *best) +
                        ": decided_by " +
                        bgp::to_string(speaker->best_decided_by(prefix)) +
                        ", reference says " + bgp::to_string(ref.decided_by));
      }
    }
  }
  return std::nullopt;
}

std::optional<Violation> InvariantSuite::export_safety(
    const bgp::BgpNetwork& network) {
  ++checks_run_;
  const bgp::PathTable& paths = network.paths();
  for (const net::Asn asn : network.asns()) {
    const Speaker* speaker = network.speaker(asn);
    for (const net::Prefix& prefix : speaker->known_prefixes()) {
      for (const Route& route : speaker->candidates(prefix)) {
        if (!route.learned_from.valid()) continue;  // local origination
        const auto chain = collapsed_chain(asn, paths.span(route.path));
        // chain[i] exported the route to chain[i-1]; it learned the route
        // from chain[i+1], or originated it at the tail.
        for (std::size_t i = 1; i < chain.size(); ++i) {
          const Speaker* exporter = network.speaker(chain[i]);
          if (exporter == nullptr) {
            return make("export-safety",
                        route_context(*speaker, prefix, route) + ": " +
                            chain[i].to_string() + " is not in the network");
          }
          const bgp::Session* to = exporter->session_to(chain[i - 1]);
          if (to == nullptr) {
            return make("export-safety",
                        route_context(*speaker, prefix, route) +
                            ": no session " + chain[i].to_string() + " -> " +
                            chain[i - 1].to_string());
          }
          const bgp::Session* learned_on = nullptr;
          if (i + 1 < chain.size()) {
            learned_on = exporter->session_to(chain[i + 1]);
            if (learned_on == nullptr) {
              return make("export-safety",
                          route_context(*speaker, prefix, route) +
                              ": no session " + chain[i].to_string() +
                              " -> " + chain[i + 1].to_string());
            }
          }
          if (!bgp::export_allowed(learned_on, *to,
                                   exporter->re_transit_between_peers())) {
            return make(
                "export-safety",
                route_context(*speaker, prefix, route) + ": valley at " +
                    chain[i].to_string() + " exporting toward " +
                    chain[i - 1].to_string());
          }
        }
      }
    }
  }
  return std::nullopt;
}

std::optional<Violation> InvariantSuite::epoch_coherence(
    const bgp::BgpNetwork& network, std::span<const net::Prefix> prefixes) {
  ++checks_run_;
  for (const net::Prefix& prefix : prefixes) {
    const std::uint64_t epoch = network.prefix_epoch(prefix);
    const std::uint64_t digest = network.prefix_state_digest(prefix);
    const auto it = epochs_.find(prefix);
    if (it != epochs_.end()) {
      if (epoch < it->second.epoch) {
        return make("epoch-monotonic",
                    prefix.to_string() + ": epoch went backwards (" +
                        std::to_string(it->second.epoch) + " -> " +
                        std::to_string(epoch) + ")");
      }
      if (epoch == it->second.epoch && digest != it->second.digest) {
        return make("epoch-digest",
                    prefix.to_string() +
                        ": state digest changed under an unchanged epoch " +
                        std::to_string(epoch));
      }
    }
    epochs_[prefix] = EpochMemo{epoch, digest};
  }
  return std::nullopt;
}

std::optional<Violation> InvariantSuite::snapshot_roundtrip(
    bgp::BgpNetwork& network) {
  ++checks_run_;
  bgp::BgpNetwork::Snapshot snap = network.checkpoint();
  const std::uint64_t direct = snap.digest();
  net::BinaryWriter writer;
  snap.encode(writer);
  net::BinaryReader reader(writer.bytes());
  const bgp::BgpNetwork::Snapshot decoded =
      bgp::BgpNetwork::Snapshot::decode(reader);
  if (!reader.ok()) {
    return make("snapshot-roundtrip", "decode failed on freshly encoded bytes");
  }
  const std::uint64_t after = decoded.digest();
  if (after != direct) {
    return make("snapshot-roundtrip",
                "digest changed across encode/decode round-trip");
  }
  if (decoded.fork()->state_digest() != direct) {
    return make("snapshot-roundtrip",
                "fork of decoded snapshot digests differently");
  }
  return std::nullopt;
}

std::optional<Violation> InvariantSuite::fib_agreement(
    const bgp::BgpNetwork& network, const net::Prefix& prefix,
    std::span<const net::Asn> terminals, dataplane::CatchmentFib& fib) {
  ++checks_run_;
  fib.refresh();
  const ReturnPathResolver walker(network, prefix, terminals);
  ReturnPath from_walker;
  ReturnPath from_fib;
  for (const net::Asn asn : network.asns()) {
    walker.resolve(asn, from_walker);
    fib.resolve(asn, from_fib);
    if (from_walker.reachable != from_fib.reachable ||
        (from_walker.reachable &&
         (from_walker.terminal != from_fib.terminal ||
          from_walker.used_default_route != from_fib.used_default_route ||
          from_walker.hops != from_fib.hops))) {
      return make("fib-agreement",
                  asn.to_string() + " prefix " + prefix.to_string() +
                      ": compiled FIB disagrees with the reference walker");
    }
    const auto attr = fib.attribution(asn);
    if (attr.reachable != from_fib.reachable ||
        (attr.reachable && (attr.terminal != from_fib.terminal ||
                            attr.used_default_route !=
                                from_fib.used_default_route))) {
      return make("fib-agreement",
                  asn.to_string() + " prefix " + prefix.to_string() +
                      ": attribution() disagrees with resolve()");
    }
  }
  return std::nullopt;
}

std::optional<Violation> InvariantSuite::check_cheap(
    const bgp::BgpNetwork& network, std::span<const net::Prefix> prefixes) {
  if (auto v = loop_freedom(network)) return v;
  if (auto v = decision_soundness(network)) return v;
  if (auto v = export_safety(network)) return v;
  return epoch_coherence(network, prefixes);
}

}  // namespace re::check
