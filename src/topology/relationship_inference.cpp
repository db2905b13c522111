#include "topology/relationship_inference.h"

#include <algorithm>

namespace re::topo {

std::string to_string(InferredRelationship r) {
  switch (r) {
    case InferredRelationship::kProviderToCustomer: return "p2c";
    case InferredRelationship::kCustomerToProvider: return "c2p";
    case InferredRelationship::kPeerToPeer: return "p2p";
  }
  return "?";
}

namespace {

// Collapses prepend repetitions: "3 3 7 7 7 9" -> "3 7 9".
std::vector<net::Asn> collapse(const bgp::AsPath& path) {
  std::vector<net::Asn> out;
  for (const net::Asn asn : path.asns()) {
    if (out.empty() || out.back() != asn) out.push_back(asn);
  }
  return out;
}

}  // namespace

RelationshipInference RelationshipInference::infer(
    const std::vector<bgp::AsPath>& paths, const InferenceParams& params) {
  RelationshipInference result;

  // Pass 1: adjacency degrees over collapsed paths.
  std::map<AsEdge, bool> adjacency;
  std::vector<std::vector<net::Asn>> collapsed;
  collapsed.reserve(paths.size());
  for (const bgp::AsPath& path : paths) {
    std::vector<net::Asn> hops = collapse(path);
    for (std::size_t i = 0; i + 1 < hops.size(); ++i) {
      adjacency[AsEdge::of(hops[i], hops[i + 1])] = true;
    }
    collapsed.push_back(std::move(hops));
  }
  std::unordered_map<net::Asn, std::size_t> degrees;
  for (const auto& [edge, present] : adjacency) {
    ++degrees[edge.a];
    ++degrees[edge.b];
  }

  // Pass 2 (Gao): anchor each path at its highest-degree AS; edges toward
  // the anchor are customer->provider ("uphill"), edges after it are
  // provider->customer ("downhill"). Vote per edge.
  struct Votes {
    int up = 0;    // a -> b seen as c2p (a buys from b), with a < b
    int down = 0;  // a -> b seen as p2c
  };
  std::map<AsEdge, Votes> votes;
  for (const std::vector<net::Asn>& hops : collapsed) {
    if (hops.size() < 2) continue;
    std::size_t anchor = 0;
    for (std::size_t i = 1; i < hops.size(); ++i) {
      if (degrees[hops[i]] > degrees[hops[anchor]]) anchor = i;
    }
    for (std::size_t i = 0; i + 1 < hops.size(); ++i) {
      // Paths are receiver-first: hops[i] learned the route from
      // hops[i+1]. Positions before the anchor climb toward it (the
      // receiver side), positions after it descend to the origin.
      const net::Asn x = hops[i], y = hops[i + 1];
      const AsEdge edge = AsEdge::of(x, y);
      Votes& v = votes[edge];
      // Climbing toward the anchor: x is closer to the receiver, y closer
      // to the anchor, so y provides transit for this route to x... the
      // export rules say a route crossing x<-y with y below the anchor
      // means y is x's customer. Orient: for positions i >= anchor, the
      // step descends (x above y); for i < anchor it ascends (y above x).
      const bool x_above_y = i >= anchor;
      const bool a_above_b = (edge.a == x) == x_above_y;
      (a_above_b ? v.down : v.up) += 1;
    }
  }

  for (const auto& [edge, v] : votes) {
    const std::size_t da = degrees[edge.a];
    const std::size_t db = degrees[edge.b];
    const double ratio =
        static_cast<double>(std::max(da, db)) /
        static_cast<double>(std::max<std::size_t>(1, std::min(da, db)));
    InferredRelationship rel;
    if (v.up > 0 && v.down > 0 &&
        std::abs(v.up - v.down) <= params.peer_vote_slack &&
        ratio <= params.peer_degree_ratio) {
      rel = InferredRelationship::kPeerToPeer;
    } else if (v.down >= v.up) {
      rel = InferredRelationship::kProviderToCustomer;  // a above b
    } else {
      rel = InferredRelationship::kCustomerToProvider;  // b above a
    }
    result.edges_[edge] = rel;
  }
  return result;
}

std::optional<InferredRelationship> RelationshipInference::relationship(
    net::Asn a, net::Asn b) const {
  const auto it = edges_.find(AsEdge::of(a, b));
  if (it == edges_.end()) return std::nullopt;
  InferredRelationship rel = it->second;
  if (a < b) return rel;
  // Flip the orientation for the reversed query.
  switch (rel) {
    case InferredRelationship::kProviderToCustomer:
      return InferredRelationship::kCustomerToProvider;
    case InferredRelationship::kCustomerToProvider:
      return InferredRelationship::kProviderToCustomer;
    case InferredRelationship::kPeerToPeer:
      return InferredRelationship::kPeerToPeer;
  }
  return rel;
}

std::unordered_set<net::Asn> RelationshipInference::customer_cone(
    net::Asn asn) const {
  // Adjacency: provider -> customers.
  std::unordered_map<net::Asn, std::vector<net::Asn>> customers;
  for (const auto& [edge, rel] : edges_) {
    if (rel == InferredRelationship::kProviderToCustomer) {
      customers[edge.a].push_back(edge.b);
    } else if (rel == InferredRelationship::kCustomerToProvider) {
      customers[edge.b].push_back(edge.a);
    }
  }
  std::unordered_set<net::Asn> cone{asn};
  std::vector<net::Asn> stack{asn};
  while (!stack.empty()) {
    const net::Asn current = stack.back();
    stack.pop_back();
    const auto it = customers.find(current);
    if (it == customers.end()) continue;
    for (const net::Asn customer : it->second) {
      if (cone.insert(customer).second) stack.push_back(customer);
    }
  }
  return cone;
}

RelationshipValidation validate_inference(
    const RelationshipInference& inference,
    const std::map<AsEdge, InferredRelationship>& truth) {
  RelationshipValidation report;
  for (const auto& [edge, inferred] : inference.edges()) {
    const auto it = truth.find(edge);
    if (it == truth.end()) continue;
    ++report.edges_checked;
    const InferredRelationship actual = it->second;
    if (inferred == actual) {
      ++report.correct;
    } else if (inferred == InferredRelationship::kPeerToPeer) {
      ++report.transit_as_peer;
    } else if (actual == InferredRelationship::kPeerToPeer) {
      ++report.peer_as_transit;
    } else {
      ++report.inverted;
    }
  }
  return report;
}

}  // namespace re::topo
