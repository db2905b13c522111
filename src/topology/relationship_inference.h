// AS relationship inference and customer cones.
//
// The routing-policy literature this paper builds on (§2.2 — Gao 2001,
// CAIDA AS-Rank, Anwar et al.) starts from AS relationships inferred from
// observed BGP paths. This module implements a Gao-style degree-anchored
// vote over collector paths, plus customer-cone computation — and, because
// the ecosystem's true relationships are known, the inference can be
// validated exactly (the luxury the original papers lacked).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bgp/as_path.h"
#include "netbase/asn.h"

namespace re::topo {

// Inferred business relationship of an (a, b) adjacency.
enum class InferredRelationship : std::uint8_t {
  kProviderToCustomer,  // a provides transit to b
  kCustomerToProvider,  // a buys transit from b
  kPeerToPeer,
};

std::string to_string(InferredRelationship r);

// A normalized undirected edge key (smaller ASN first).
struct AsEdge {
  net::Asn a, b;
  static AsEdge of(net::Asn x, net::Asn y) {
    return x < y ? AsEdge{x, y} : AsEdge{y, x};
  }
  friend auto operator<=>(const AsEdge&, const AsEdge&) = default;
};

struct InferenceParams {
  // Vote-balance band treated as peering: |up - down| <= peer_vote_slack
  // and both sides seen.
  int peer_vote_slack = 1;
  // Degree ratio under which balanced edges are called peers.
  double peer_degree_ratio = 10.0;
};

class RelationshipInference {
 public:
  // Infers relationships from a corpus of observed AS paths (prepends are
  // collapsed before processing).
  static RelationshipInference infer(const std::vector<bgp::AsPath>& paths,
                                     const InferenceParams& params = {});

  // The relationship of edge (a, b) as seen from `a`; nullopt if the edge
  // never appeared in the corpus.
  std::optional<InferredRelationship> relationship(net::Asn a, net::Asn b) const;

  std::size_t edge_count() const noexcept { return edges_.size(); }
  const std::map<AsEdge, InferredRelationship>& edges() const noexcept {
    return edges_;
  }

  // Customer cone of `asn`: the set of ASes reachable by walking only
  // provider->customer edges downward (including `asn` itself).
  std::unordered_set<net::Asn> customer_cone(net::Asn asn) const;

 private:
  std::map<AsEdge, InferredRelationship> edges_;
};

// Validation against ground truth.
struct RelationshipValidation {
  std::size_t edges_checked = 0;
  std::size_t correct = 0;
  std::size_t transit_as_peer = 0;  // inferred p2p, truly transit
  std::size_t peer_as_transit = 0;  // inferred transit, truly p2p
  std::size_t inverted = 0;         // provider/customer direction flipped
  double accuracy() const {
    return edges_checked == 0
               ? 0.0
               : static_cast<double>(correct) / static_cast<double>(edges_checked);
  }
};

// Ground truth supplied as: (a, b) -> relationship from a's point of view.
RelationshipValidation validate_inference(
    const RelationshipInference& inference,
    const std::map<AsEdge, InferredRelationship>& truth);

}  // namespace re::topo
