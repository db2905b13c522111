// Public-view update log: what RouteViews / RIPE RIS would record.
//
// Collector peers are ordinary ASes that export their best route to a
// collector session. Every announce/withdraw they emit toward the
// collector is recorded with a timestamp — the raw material for Figure 3's
// churn timeline and Table 3's congruence check.
//
// Paths are hash-consed into the log's own PathTable (public-view churn
// repeats the same few paths thousands of times), so the log is
// self-contained: it can be copied out of a network into an
// ExperimentResult and outlive the network that produced it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "bgp/as_path.h"
#include "bgp/path_table.h"
#include "netbase/asn.h"
#include "netbase/clock.h"
#include "netbase/prefix.h"

namespace re::net {
class BinaryWriter;
class BinaryReader;
}  // namespace re::net

namespace re::bgp {

struct CollectorUpdate {
  net::SimTime time = 0;
  net::Asn peer;        // the AS feeding the collector
  net::Prefix prefix;
  bool withdraw = false;
  PathId path;          // interned in the owning UpdateLog; empty for withdrawals
};

class UpdateLog {
 public:
  // Records an update, interning `path` into the log's table.
  void record(net::SimTime time, net::Asn peer, const net::Prefix& prefix,
              bool withdraw, std::span<const net::Asn> path) {
    updates_.push_back(
        CollectorUpdate{time, peer, prefix, withdraw, paths_.intern(path)});
  }
  void record(net::SimTime time, net::Asn peer, const net::Prefix& prefix,
              bool withdraw, const AsPath& path) {
    record(time, peer, prefix, withdraw,
           std::span<const net::Asn>(path.asns()));
  }

  void clear() {
    updates_.clear();
    paths_ = PathTable{};
  }

  const std::vector<CollectorUpdate>& updates() const noexcept { return updates_; }
  std::size_t size() const noexcept { return updates_.size(); }

  // Resolving an update's interned path.
  const PathTable& paths() const noexcept { return paths_; }
  std::span<const net::Asn> path_span(const CollectorUpdate& u) const noexcept {
    return paths_.span(u.path);
  }
  AsPath path(const CollectorUpdate& u) const { return paths_.path(u.path); }

  // The last announced path per peer for `prefix` as of `at` (peers whose
  // last message was a withdrawal are absent) — a RIB snapshot
  // reconstructed from updates, as one does with RouteViews RIB+updates.
  std::unordered_map<net::Asn, AsPath> rib_at(const net::Prefix& prefix,
                                              net::SimTime at) const;

  // Checkpoint codec: the interned table is written in id order and
  // re-interned in the same order on decode, so every stored PathId
  // round-trips as a raw u32.
  void encode(net::BinaryWriter& writer) const;
  static UpdateLog decode(net::BinaryReader& reader);

 private:
  std::vector<CollectorUpdate> updates_;
  PathTable paths_;
};

}  // namespace re::bgp
