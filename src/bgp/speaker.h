// A per-AS BGP speaker: sessions, Adj-RIB-In, Loc-RIB, import/export.
//
// The model is AS-level: one speaker per AS, one route per (prefix,
// neighbor), full RFC 4271 decision process over the candidates. This is
// the granularity the paper reasons at (§3.4 notes policies can be finer
// than per-session; the dataplane module layers the interconnect-router
// confound on top).
//
// AS paths are hash-consed: routes and update messages carry PathIds into
// the PathTable shared across the owning network (see path_table.h), and
// the RIB maps are open-addressing FlatMaps, so the receive → decide →
// export loop runs without heap allocation in the steady state.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bgp/damping.h"
#include "bgp/decision.h"
#include "bgp/path_table.h"
#include "bgp/policy.h"
#include "bgp/route.h"
#include "bgp/rpki.h"
#include "netbase/asn.h"
#include "netbase/clock.h"
#include "netbase/flat_map.h"
#include "netbase/prefix.h"

namespace re::net {
class BinaryWriter;
class BinaryReader;
}  // namespace re::net

namespace re::bgp {

// Per-prefix options controlling how the *origin* announces it.
struct OriginationOptions {
  bool to_re_sessions = true;
  bool to_commodity_sessions = true;
  // Announcement carries the R&E-fabric-only scope (see Route::re_only).
  bool re_only = false;
};

class Speaker {
  struct PrefixState;  // defined below; ExportProbe holds a pointer

 public:
  // `paths` is the table update-message/route path ids refer to — one per
  // network, injected by BgpNetwork::add_speaker. A standalone speaker
  // (tests, micro-benches) passes nullptr and owns a private table.
  explicit Speaker(net::Asn asn, PathTable* paths = nullptr)
      : asn_(asn), paths_(paths) {
    if (paths_ == nullptr) {
      owned_paths_ = std::make_unique<PathTable>();
      paths_ = owned_paths_.get();
    }
  }

  net::Asn asn() const noexcept { return asn_; }

  PathTable& paths() noexcept { return *paths_; }
  const PathTable& paths() const noexcept { return *paths_; }

  DecisionConfig& decision() noexcept { return decision_; }
  const DecisionConfig& decision() const noexcept { return decision_; }
  ImportPolicy& import_policy() noexcept { return import_; }
  const ImportPolicy& import_policy() const noexcept { return import_; }
  ExportPolicy& export_policy() noexcept { return export_; }
  const ExportPolicy& export_policy() const noexcept { return export_; }
  DampingConfig& damping() noexcept { return damping_; }
  const DampingConfig& damping() const noexcept { return damping_; }

  // R&E backbone behaviour: re-export peer-NREN routes to other peer NRENs.
  void set_re_transit_between_peers(bool value) noexcept {
    re_transit_between_peers_ = value;
  }
  bool re_transit_between_peers() const noexcept {
    return re_transit_between_peers_;
  }

  // Table 3 confound: this AS exports its commodity VRF to public
  // collectors even when its actual forwarding prefers R&E routes.
  void set_vrf_split_export(bool value) noexcept { vrf_split_export_ = value; }
  bool vrf_split_export() const noexcept { return vrf_split_export_; }

  // RPKI Route Origin Validation: when armed with a ROA table, routes
  // that validate Invalid are dropped at import (an implicit withdraw of
  // whatever the neighbor previously advertised). The table must outlive
  // the speaker.
  void enable_rov(const RoaTable* table) noexcept { rov_table_ = table; }
  bool rov_enabled() const noexcept { return rov_table_ != nullptr; }

  // --- Sessions ---------------------------------------------------------
  void add_session(Session session);
  const std::vector<Session>& sessions() const noexcept { return sessions_; }
  const Session* session_to(net::Asn neighbor) const {
    const auto it = session_index_.find(neighbor);
    return it == session_index_.end() ? nullptr : &sessions_[it->second];
  }

  // Failure state of the session to `neighbor`, scoped to `prefix` (the
  // network layer injects per-prefix reachability failures). While failed,
  // no update for the prefix is accepted from or exported to the neighbor.
  void set_session_failed(net::Asn neighbor, const net::Prefix& prefix,
                          bool failed);
  bool session_failed(net::Asn neighbor, const net::Prefix& prefix) const {
    if (failed_.empty()) return false;  // the steady-state fast path
    const auto it = failed_.find(neighbor);
    return it != failed_.end() && it->second.count(prefix) != 0;
  }

  // Invalidates whatever `neighbor` currently advertises for `prefix`
  // (local state cleanup when the session fails — no message involved).
  // Returns true if the best route changed.
  bool invalidate_neighbor_route(net::Asn neighbor, const net::Prefix& prefix,
                                 net::SimTime now);

  // The session carrying this AS's default route, if any.
  const Session* default_route_session() const;

  // Marks the session to `neighbor` as carrying this AS's default route.
  void set_session_default_route(net::Asn neighbor);

  // --- Route ingestion --------------------------------------------------

  // Applies import policy to an update arriving from `neighbor`.
  // Returns true if the Loc-RIB best route for the prefix changed.
  bool receive(net::Asn neighbor, const UpdateMessage& update, net::SimTime now);

  // Originates / withdraws a locally-owned prefix.
  bool originate(const net::Prefix& prefix, net::SimTime now,
                 OriginationOptions options = {});
  bool withdraw_origination(const net::Prefix& prefix, net::SimTime now);
  bool originates(const net::Prefix& prefix) const;

  // Re-runs the decision process (e.g. after damping penalties decay).
  // Returns true if the best route changed.
  bool reevaluate(const net::Prefix& prefix, net::SimTime now);

  // --- Loc-RIB queries ----------------------------------------------------
  const Route* best(const net::Prefix& prefix) const;
  DecisionStep best_decided_by(const net::Prefix& prefix) const;

  // Best route considering only commodity-learned candidates (what a
  // vrf_split_export AS shows a public collector).
  const Route* best_commodity(const net::Prefix& prefix) const;

  // All Adj-RIB-In candidates currently eligible for selection.
  std::vector<Route> candidates(const net::Prefix& prefix) const;

  bool has_route(const net::Prefix& prefix) const { return best(prefix) != nullptr; }

  // --- Export -------------------------------------------------------------

  // The update this AS would currently send to `to` for `prefix`:
  // an announcement (with prepending applied), a withdrawal
  // (withdraw=true), or nullopt when nothing was ever advertised and
  // nothing is eligible.
  //
  // Statless with respect to advertisement history; the network layer
  // tracks what was previously sent and suppresses duplicates.
  std::optional<UpdateMessage> export_to(const Session& to,
                                         const net::Prefix& prefix) const;

  // The announcement content toward `to` if eligible, nullopt otherwise.
  std::optional<UpdateMessage> eligible_announcement(
      const Session& to, const net::Prefix& prefix) const;

  // Per-(speaker, prefix) export view: resolves the prefix state, the
  // best route, and the split-horizon session once, then answers the
  // per-session eligibility question. flush_exports walks every session
  // after each decision change, so the per-prefix lookups must not be
  // repeated per session; the probe also caches the prepended path id
  // (sessions overwhelmingly share one prepend count).
  class ExportProbe {
   public:
    std::optional<UpdateMessage> announcement(const Session& to) const;

   private:
    friend class Speaker;
    const Speaker* speaker_ = nullptr;
    const PrefixState* state_ = nullptr;  // nullptr → nothing eligible
    const Session* learned_on_ = nullptr;
    bool valid_ = false;  // best exists and its ingress session resolves
    mutable std::size_t cached_copies_ = 0;  // 0 = cache empty
    mutable PathId cached_path_;
  };
  ExportProbe export_probe(const net::Prefix& prefix) const;

  // --- Checkpoint/fork ------------------------------------------------------

  // The speaker's full mutable state (configs, sessions, Adj-RIB-In /
  // Loc-RIB, failure and damping state), with AS paths still held as
  // PathIds into the owning network's table. A snapshot is only
  // meaningful alongside the table state it was taken against —
  // BgpNetwork::Snapshot pairs the two.
  struct Snapshot;
  Snapshot snapshot() const;
  void restore(const Snapshot& snap);

  // Canonical *content* encoding of this speaker's state for one prefix:
  // like Snapshot::encode restricted to the prefix, but AS paths are
  // written as their ASN contents instead of PathIds. PathId intern order
  // legitimately differs between a full run and a prefix-scoped run that
  // deferred other prefixes' churn (cross-prefix interleaving differs),
  // so equivalence gates must compare path contents, not table ids.
  // Backs BgpNetwork::prefix_state_digest.
  void encode_prefix_state(const net::Prefix& prefix,
                           net::BinaryWriter& w) const;

  // --- Maintenance ----------------------------------------------------------
  void clear_prefix(const net::Prefix& prefix);
  std::vector<net::Prefix> known_prefixes() const;

 private:
  struct PrefixState {
    net::Prefix prefix;
    // One entry per neighbor that currently advertises the prefix to us.
    net::FlatMap<net::Asn, Route> in;
    bool local = false;
    OriginationOptions origination;
    net::SimTime local_since = 0;
    std::optional<Route> best;
    DecisionStep decided_by = DecisionStep::kOnlyRoute;
    net::FlatMap<net::Asn, DampingState> damping;
  };

  // Recomputes `state.best`; returns true on change.
  bool run_decision(PrefixState& state, net::SimTime now);

  Route make_local_route(const net::Prefix& prefix, net::SimTime since) const;

  net::Asn asn_;
  PathTable* paths_ = nullptr;
  std::unique_ptr<PathTable> owned_paths_;  // standalone speakers only
  DecisionConfig decision_;
  ImportPolicy import_;
  ExportPolicy export_;
  DampingConfig damping_;
  bool re_transit_between_peers_ = false;
  bool vrf_split_export_ = false;
  const RoaTable* rov_table_ = nullptr;

  std::vector<Session> sessions_;
  net::FlatMap<net::Asn, std::size_t> session_index_;
  net::FlatMap<net::Prefix, PrefixState> rib_;
  // (neighbor, prefix) pairs whose session is currently failed.
  net::FlatMap<net::Asn, net::FlatSet<net::Prefix>> failed_;
  // Scratch candidate buffer reused across decisions (capacity persists,
  // so the steady-state decision runs allocation-free).
  mutable std::vector<Route> candidate_scratch_;
};

// Plain-data copy of everything a speaker mutates after construction.
// In-memory forks restore it directly (FlatMap copies preserve layout);
// the disk codec re-inserts in sorted key order, which yields a
// behaviorally identical (lookup-equivalent) table.
struct Speaker::Snapshot {
  net::Asn asn;
  DecisionConfig decision;
  ImportPolicy import;
  ExportPolicy export_policy;
  DampingConfig damping;
  bool re_transit_between_peers = false;
  bool vrf_split_export = false;
  // Shared by forks in memory; the disk codec records only whether ROV
  // was armed and decodes to nullptr (the ROA table lives outside the
  // simulation state — callers re-arm it after a disk restore).
  const RoaTable* rov_table = nullptr;
  std::vector<Session> sessions;
  net::FlatMap<net::Asn, std::size_t> session_index;
  net::FlatMap<net::Prefix, PrefixState> rib;
  net::FlatMap<net::Asn, net::FlatSet<net::Prefix>> failed;

  void encode(net::BinaryWriter& writer) const;
  static Snapshot decode(net::BinaryReader& reader);
};

}  // namespace re::bgp
