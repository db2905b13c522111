// A per-AS BGP speaker: sessions, policies, import/export, decision.
//
// The model is AS-level: one speaker per AS, one route per (prefix,
// neighbor), full RFC 4271 decision process over the candidates. This is
// the granularity the paper reasons at (§3.4 notes policies can be finer
// than per-session; the dataplane module layers the interconnect-router
// confound on top).
//
// A speaker keeps its sessions, policies and per-session failure state.
// Its RIB (Adj-RIB-In, Loc-RIB, origination and damping state per prefix)
// lives in the owning network's prefix-major RibStore (see rib_store.h),
// reached through the speaker's dense index; a standalone speaker (tests,
// micro-benches) owns a private store. AS paths are hash-consed: routes
// and update messages carry PathIds into the PathTable shared across the
// owning network (see path_table.h), and the RIB maps are open-addressing
// FlatMaps, so the receive → decide → export loop runs without heap
// allocation in the steady state.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bgp/damping.h"
#include "bgp/decision.h"
#include "bgp/path_table.h"
#include "bgp/policy.h"
#include "bgp/rib_store.h"
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

class Speaker {
 public:
  // `paths` is the table update-message/route path ids refer to and `rib`
  // the store holding this speaker's per-prefix state under `index` — one
  // of each per network, injected by BgpNetwork::add_speaker. A standalone
  // speaker (tests, micro-benches) passes nullptr and owns private ones.
  explicit Speaker(net::Asn asn, PathTable* paths = nullptr,
                   RibStore* rib = nullptr, std::uint32_t index = 0)
      : asn_(asn), paths_(paths), rib_(rib), index_(index) {
    if (paths_ == nullptr) {
      owned_paths_ = std::make_unique<PathTable>();
      paths_ = owned_paths_.get();
    }
    if (rib_ == nullptr) {
      owned_rib_ = std::make_unique<RibStore>();
      rib_ = owned_rib_.get();
    }
  }

  net::Asn asn() const noexcept { return asn_; }
  // This speaker's key in its store's prefix columns.
  std::uint32_t index() const noexcept { return index_; }

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
  // Stat-free lookup: probe workers resolve sessions concurrently.
  const Session* session_to(net::Asn neighbor) const {
    const std::size_t* idx = session_index_.find_concurrent(neighbor);
    return idx == nullptr ? nullptr : &sessions_[*idx];
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
  // The same view over a state the caller already resolved (the network
  // holds the prefix's column while it flushes).
  ExportProbe export_probe(const PrefixState* state) const;

  // --- Checkpoint/fork ------------------------------------------------------

  // The speaker's own mutable state: configs, sessions and failure state.
  // Its RIB is not part of it: that lives in the network's prefix
  // columns, which BgpNetwork::Snapshot shares instead of copying.
  struct Snapshot;
  Snapshot snapshot() const;
  void restore(const Snapshot& snap);

  // Canonical *content* encoding of this speaker's state for one prefix:
  // like the disk codec restricted to the prefix, but AS paths are
  // written as their ASN contents instead of PathIds. PathId intern order
  // legitimately differs between a full run and a prefix-scoped run that
  // deferred other prefixes' churn (cross-prefix interleaving differs),
  // so equivalence gates must compare path contents, not table ids.
  // Backs BgpNetwork::prefix_state_digest.
  void encode_prefix_state(const net::Prefix& prefix,
                           net::BinaryWriter& w) const;

  // --- Maintenance ----------------------------------------------------------

  // Drops this speaker's state for `prefix` and every session failure
  // scoped to it.
  void clear_prefix(const net::Prefix& prefix);
  // Prefixes this speaker holds state for, sorted.
  std::vector<net::Prefix> known_prefixes() const;

 private:
  // Recomputes `state.best`; returns true on change.
  bool run_decision(PrefixState& state, net::SimTime now);

  Route make_local_route(const net::Prefix& prefix, net::SimTime since) const;

  net::Asn asn_;
  PathTable* paths_ = nullptr;
  std::unique_ptr<PathTable> owned_paths_;  // standalone speakers only
  RibStore* rib_ = nullptr;
  std::unique_ptr<RibStore> owned_rib_;  // standalone speakers only
  std::uint32_t index_ = 0;
  DecisionConfig decision_;
  ImportPolicy import_;
  ExportPolicy export_;
  DampingConfig damping_;
  bool re_transit_between_peers_ = false;
  bool vrf_split_export_ = false;
  const RoaTable* rov_table_ = nullptr;

  std::vector<Session> sessions_;
  net::FlatMap<net::Asn, std::size_t> session_index_;
  // (neighbor, prefix) pairs whose session is currently failed.
  net::FlatMap<net::Asn, net::FlatSet<net::Prefix>> failed_;
  // Scratch candidate buffer reused across decisions (capacity persists,
  // so the steady-state decision runs allocation-free).
  mutable std::vector<Route> candidate_scratch_;
};

// Plain-data copy of everything a speaker mutates after construction,
// except its RIB. In-memory forks restore it directly (FlatMap copies
// preserve layout); the disk codec re-inserts in sorted key order, which
// yields a behaviorally identical (lookup-equivalent) table.
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
  net::FlatMap<net::Asn, net::FlatSet<net::Prefix>> failed;

  // The speaker's record in the canonical network encoding. Its RIB sits
  // between the sessions and the failure state: encode writes `rib` (the
  // speaker's states, sorted by prefix) there, and decode appends what it
  // reads there to `rib`.
  void encode(net::BinaryWriter& writer,
              std::span<const PrefixState* const> rib) const;
  static Snapshot decode(net::BinaryReader& reader,
                         std::vector<PrefixState>& rib);
};

}  // namespace re::bgp
