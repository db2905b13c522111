#include "bgp/speaker.h"

#include <algorithm>
#include <iterator>

#include "netbase/binio.h"

namespace re::bgp {
namespace {

// Locally-originated routes outrank anything learned; mirrors the weight /
// origination preference real routers apply.
constexpr std::uint32_t kLocalRoutePref = 1000;

// True when two routes are interchangeable from the point of view of
// neighbors (same selection outcome and same export content). Route age
// deliberately excluded: refreshing a route's age is not a visible change.
// Paths are interned, so the comparison is one 32-bit id.
bool same_route_content(const Route& a, const Route& b) {
  return a.learned_from == b.learned_from && a.path == b.path &&
         a.origin == b.origin && a.med == b.med &&
         a.local_pref == b.local_pref && a.re_only == b.re_only;
}

}  // namespace

void Speaker::add_session(Session session) {
  session_index_[session.neighbor] = sessions_.size();
  sessions_.push_back(session);
}

void Speaker::set_session_failed(net::Asn neighbor, const net::Prefix& prefix,
                                 bool failed) {
  if (failed) {
    failed_[neighbor].insert(prefix);
    return;
  }
  const auto it = failed_.find(neighbor);
  if (it == failed_.end()) return;
  it->second.erase(prefix);
  if (it->second.empty()) failed_.erase(it);
}

bool Speaker::invalidate_neighbor_route(net::Asn neighbor,
                                        const net::Prefix& prefix,
                                        net::SimTime now) {
  PrefixState* state = rib_->find_for_write(index_, prefix);
  if (state == nullptr || state->in.erase(neighbor) == 0) return false;
  if (damping_.enabled) {
    state->damping[neighbor].record(damping_.withdraw_penalty, now, damping_);
  }
  return run_decision(*state, now);
}

void Speaker::set_session_default_route(net::Asn neighbor) {
  const auto it = session_index_.find(neighbor);
  if (it != session_index_.end()) sessions_[it->second].default_route = true;
}

const Session* Speaker::default_route_session() const {
  for (const Session& s : sessions_) {
    if (s.default_route) return &s;
  }
  return nullptr;
}

Route Speaker::make_local_route(const net::Prefix& prefix,
                                net::SimTime since) const {
  Route route;
  route.prefix = prefix;
  route.origin = Origin::kIgp;
  route.local_pref = kLocalRoutePref;
  route.ebgp = false;
  route.established_at = since;
  return route;  // path defaults to the interned empty path (id 0)
}

bool Speaker::receive(net::Asn neighbor, const UpdateMessage& update,
                      net::SimTime now) {
  const Session* session = session_to(neighbor);
  if (session == nullptr) return false;
  // Nothing crosses a failed session: late in-flight updates are lost the
  // way TCP segments on a dead session are.
  if (session_failed(neighbor, update.prefix)) return false;
  PrefixState& state = rib_->state_for_write(index_, update.prefix);
  // First touch of this prefix: size the Adj-RIB-In for the number of
  // neighbors that could ever advertise it (capped — hub ASes with
  // hundreds of sessions rarely hear a prefix from more than a few dozen)
  // so the first convergence wave doesn't rehash per insert.
  if (state.in.empty()) {
    state.in.reserve(std::min(sessions_.size(), std::size_t{48}));
  }

  if (update.withdraw) {
    const auto it = state.in.find(neighbor);
    if (it == state.in.end()) return false;
    state.in.erase(it);
    if (damping_.enabled) {
      state.damping[neighbor].record(damping_.withdraw_penalty, now, damping_);
    }
    return run_decision(state, now);
  }

  // Loop prevention / import filtering / ROV: the update itself is
  // discarded, but it still *replaces* whatever this neighbor previously
  // advertised — an implicit withdraw (RFC 4271 §9: an UPDATE replaces any
  // earlier route from the same peer).
  const bool rov_invalid =
      rov_table_ != nullptr &&
      rov_table_->validate(update.prefix, paths_->origin(update.path)) ==
          RovState::kInvalid;
  if (paths_->contains(update.path, asn_) || !import_.accepts(*session) ||
      rov_invalid) {
    const auto it = state.in.find(neighbor);
    if (it == state.in.end()) return false;
    state.in.erase(it);
    return run_decision(state, now);
  }

  Route route;
  route.prefix = update.prefix;
  route.set_path(*paths_, update.path);
  route.origin = update.origin;
  route.med = update.med;
  route.learned_from = neighbor;
  route.ebgp = true;
  route.local_pref = import_.local_pref_for(*session);
  route.igp_cost = session->igp_cost;
  route.neighbor_router_id = session->router_id;
  route.re_edge = session->re_edge;
  route.re_only = update.re_only;

  const auto it = state.in.find(neighbor);
  if (it != state.in.end() && same_route_content(it->second, route)) {
    return false;  // duplicate announcement; age is preserved
  }
  route.established_at = now;
  if (damping_.enabled && it != state.in.end()) {
    state.damping[neighbor].record(damping_.attribute_change_penalty, now,
                                   damping_);
  }
  if (it != state.in.end()) {
    it->second = route;  // reuse the slot located by find() above
  } else {
    state.in[neighbor] = route;
  }
  return run_decision(state, now);
}

bool Speaker::originate(const net::Prefix& prefix, net::SimTime now,
                        OriginationOptions options) {
  PrefixState& state = rib_->state_for_write(index_, prefix);
  state.origination = options;
  if (!state.local) {
    state.local = true;
    state.local_since = now;
  }
  return run_decision(state, now);
}

bool Speaker::withdraw_origination(const net::Prefix& prefix, net::SimTime now) {
  PrefixState* state = rib_->find_for_write(index_, prefix);
  if (state == nullptr || !state->local) return false;
  state->local = false;
  return run_decision(*state, now);
}

bool Speaker::originates(const net::Prefix& prefix) const {
  const PrefixState* state = rib_->state(index_, prefix);
  return state != nullptr && state->local;
}

bool Speaker::reevaluate(const net::Prefix& prefix, net::SimTime now) {
  PrefixState* state = rib_->find_for_write(index_, prefix);
  return state != nullptr && run_decision(*state, now);
}

bool Speaker::run_decision(PrefixState& state, net::SimTime now) {
  std::vector<Route>& candidates = candidate_scratch_;
  candidates.clear();
  candidates.reserve(state.in.size() + 1);
  if (state.local) {
    Route local = make_local_route(state.prefix, state.local_since);
    local.re_only = state.origination.re_only;
    candidates.push_back(std::move(local));
  }
  for (const auto& [neighbor, route] : state.in) {
    if (damping_.enabled) {
      const auto dit = state.damping.find(neighbor);
      if (dit != state.damping.end() && dit->second.suppressed(now, damping_)) {
        continue;
      }
    }
    candidates.push_back(route);
  }
  // Deterministic candidate order regardless of hash-map iteration.
  std::sort(candidates.begin(), candidates.end(),
            [](const Route& a, const Route& b) {
              return a.learned_from < b.learned_from;
            });

  std::optional<Route> new_best;
  DecisionStep decided = DecisionStep::kOnlyRoute;
  if (!candidates.empty()) {
    const DecisionResult result = select_best(candidates, decision_);
    new_best = candidates[result.best_index];
    decided = result.decided_by;
  }

  const bool changed = (state.best.has_value() != new_best.has_value()) ||
                       (state.best && new_best &&
                        !same_route_content(*state.best, *new_best));
  state.best = std::move(new_best);
  state.decided_by = decided;
  return changed;
}

const Route* Speaker::best(const net::Prefix& prefix) const {
  const PrefixState* state = rib_->state(index_, prefix);
  if (state == nullptr || !state->best) return nullptr;
  return &*state->best;
}

DecisionStep Speaker::best_decided_by(const net::Prefix& prefix) const {
  const PrefixState* state = rib_->state(index_, prefix);
  return state == nullptr ? DecisionStep::kOnlyRoute : state->decided_by;
}

const Route* Speaker::best_commodity(const net::Prefix& prefix) const {
  const PrefixState* state = rib_->state(index_, prefix);
  if (state == nullptr) return nullptr;
  const Route* best = nullptr;
  std::vector<const Route*> commodity;
  for (const auto& [neighbor, route] : state->in) {
    if (!route.re_edge) commodity.push_back(&route);
  }
  std::sort(commodity.begin(), commodity.end(),
            [](const Route* a, const Route* b) {
              return a->learned_from < b->learned_from;
            });
  for (const Route* route : commodity) {
    if (best == nullptr || better_route(*route, *best, decision_)) best = route;
  }
  return best;
}

std::vector<Route> Speaker::candidates(const net::Prefix& prefix) const {
  std::vector<Route> out;
  const PrefixState* state = rib_->state(index_, prefix);
  if (state == nullptr) return out;
  // Damping state mutates lazily; expose the undamped view plus local.
  if (state->local) {
    Route local = make_local_route(prefix, state->local_since);
    local.re_only = state->origination.re_only;
    out.push_back(std::move(local));
  }
  for (const auto& [neighbor, route] : state->in) out.push_back(route);
  std::sort(out.begin(), out.end(), [](const Route& a, const Route& b) {
    return a.learned_from < b.learned_from;
  });
  return out;
}

Speaker::ExportProbe Speaker::export_probe(const net::Prefix& prefix) const {
  return export_probe(rib_->state(index_, prefix));
}

Speaker::ExportProbe Speaker::export_probe(const PrefixState* state) const {
  ExportProbe probe;
  probe.speaker_ = this;
  if (state == nullptr || !state->best) return probe;
  probe.state_ = state;
  const Route& best = *state->best;
  probe.learned_on_ =
      best.learned_from.valid() ? session_to(best.learned_from) : nullptr;
  probe.valid_ = !best.learned_from.valid() || probe.learned_on_ != nullptr;
  return probe;
}

std::optional<UpdateMessage> Speaker::ExportProbe::announcement(
    const Session& to) const {
  if (state_ == nullptr || !valid_) return std::nullopt;
  const Route& best = *state_->best;
  const Speaker& s = *speaker_;
  if (s.session_failed(to.neighbor, state_->prefix)) return std::nullopt;

  // Split horizon: never echo a route back to the neighbor it came from.
  if (best.learned_from == to.neighbor) return std::nullopt;

  if (!export_allowed(learned_on_, to, s.re_transit_between_peers_)) {
    return std::nullopt;
  }

  // R&E-fabric scoping: an re_only route never leaves the R&E fabric.
  if (best.re_only && !to.re_edge) return std::nullopt;

  // Origin-side announcement scoping (e.g. prefixes announced to R&E only).
  if (!best.learned_from.valid()) {
    const OriginationOptions& opt = state_->origination;
    if (to.re_edge ? !opt.to_re_sessions : !opt.to_commodity_sessions) {
      return std::nullopt;
    }
  }

  UpdateMessage msg;
  msg.prefix = state_->prefix;
  msg.withdraw = false;
  msg.origin = best.origin;
  msg.med = 0;
  msg.re_only = best.re_only;
  const std::size_t copies = 1 + s.export_.prepends_for(to);
  if (copies != cached_copies_) {
    cached_path_ = s.paths_->prepended(best.path, s.asn_, copies);
    cached_copies_ = copies;
  }
  msg.path = cached_path_;
  if (s.export_.has_path_filters() &&
      !s.export_.path_allowed(to.neighbor, s.paths_->span(msg.path))) {
    return std::nullopt;
  }
  return msg;
}

std::optional<UpdateMessage> Speaker::eligible_announcement(
    const Session& to, const net::Prefix& prefix) const {
  return export_probe(prefix).announcement(to);
}

std::optional<UpdateMessage> Speaker::export_to(const Session& to,
                                                const net::Prefix& prefix) const {
  if (auto announcement = eligible_announcement(to, prefix)) return announcement;
  UpdateMessage withdraw;
  withdraw.prefix = prefix;
  withdraw.withdraw = true;
  return withdraw;
}

void Speaker::clear_prefix(const net::Prefix& prefix) {
  rib_->erase(index_, prefix);
  for (auto it = failed_.begin(); it != failed_.end();) {
    it->second.erase(prefix);
    it = it->second.empty() ? failed_.erase(it) : std::next(it);
  }
}

std::vector<net::Prefix> Speaker::known_prefixes() const {
  std::vector<net::Prefix> out;
  for (std::uint32_t slot = 0; slot < rib_->size(); ++slot) {
    const PrefixColumn* column = rib_->column(slot);
    if (column != nullptr && column->state(index_) != nullptr) {
      out.push_back(column->prefix);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

// --- Checkpoint/fork --------------------------------------------------------

Speaker::Snapshot Speaker::snapshot() const {
  Snapshot snap;
  snap.asn = asn_;
  snap.decision = decision_;
  snap.import = import_;
  snap.export_policy = export_;
  snap.damping = damping_;
  snap.re_transit_between_peers = re_transit_between_peers_;
  snap.vrf_split_export = vrf_split_export_;
  snap.rov_table = rov_table_;
  snap.sessions = sessions_;
  snap.session_index = session_index_;
  snap.failed = failed_;
  return snap;
}

void Speaker::restore(const Snapshot& snap) {
  asn_ = snap.asn;
  decision_ = snap.decision;
  import_ = snap.import;
  export_ = snap.export_policy;
  damping_ = snap.damping;
  re_transit_between_peers_ = snap.re_transit_between_peers;
  vrf_split_export_ = snap.vrf_split_export;
  rov_table_ = snap.rov_table;
  sessions_ = snap.sessions;
  session_index_ = snap.session_index;
  failed_ = snap.failed;
  candidate_scratch_.clear();
}

namespace {

// Disk codec helpers. Encoding always walks maps in sorted key order so
// identical state produces identical bytes (the CI kill-and-resume check
// compares digests of decoded state, but byte-stable files make the
// on-disk artifacts diffable too).

void encode_asn(net::BinaryWriter& w, net::Asn asn) { w.u32(asn.value()); }
net::Asn decode_asn(net::BinaryReader& r) { return net::Asn{r.u32()}; }

void encode_prefix(net::BinaryWriter& w, const net::Prefix& prefix) {
  w.u32(prefix.network().value());
  w.u8(prefix.length());
}
net::Prefix decode_prefix(net::BinaryReader& r) {
  const std::uint32_t network = r.u32();
  return net::Prefix(net::IPv4Address(network), r.u8());
}

void encode_route(net::BinaryWriter& w, const Route& route) {
  encode_prefix(w, route.prefix);
  w.u32(route.path.value());
  w.u32(route.path_length);
  encode_asn(w, route.path_first);
  w.u8(static_cast<std::uint8_t>(route.origin));
  w.u32(route.local_pref);
  w.u32(route.med);
  encode_asn(w, route.learned_from);
  w.boolean(route.ebgp);
  w.u32(route.igp_cost);
  w.u32(route.neighbor_router_id);
  w.i64(route.established_at);
  w.boolean(route.re_edge);
  w.boolean(route.re_only);
}
Route decode_route(net::BinaryReader& r) {
  Route route;
  route.prefix = decode_prefix(r);
  route.path = PathId{r.u32()};
  route.path_length = r.u32();
  route.path_first = decode_asn(r);
  route.origin = static_cast<Origin>(r.u8());
  route.local_pref = r.u32();
  route.med = r.u32();
  route.learned_from = decode_asn(r);
  route.ebgp = r.boolean();
  route.igp_cost = r.u32();
  route.neighbor_router_id = r.u32();
  route.established_at = r.i64();
  route.re_edge = r.boolean();
  route.re_only = r.boolean();
  return route;
}

void encode_session(net::BinaryWriter& w, const Session& session) {
  encode_asn(w, session.neighbor);
  w.u8(static_cast<std::uint8_t>(session.relationship));
  w.boolean(session.re_edge);
  w.u32(session.igp_cost);
  w.u32(session.router_id);
  w.boolean(session.default_route);
}
Session decode_session(net::BinaryReader& r) {
  Session session;
  session.neighbor = decode_asn(r);
  session.relationship = static_cast<Relationship>(r.u8());
  session.re_edge = r.boolean();
  session.igp_cost = r.u32();
  session.router_id = r.u32();
  session.default_route = r.boolean();
  return session;
}

void encode_import(net::BinaryWriter& w, const ImportPolicy& import) {
  w.u32(import.customer_pref);
  w.u32(import.peer_pref);
  w.u32(import.provider_pref);
  w.u32(import.stance_bonus);
  w.u8(static_cast<std::uint8_t>(import.re_stance));
  w.u64(import.neighbor_pref.size());
  for (const auto& [asn, pref] : import.neighbor_pref) {  // std::map: sorted
    encode_asn(w, asn);
    w.u32(pref);
  }
  w.boolean(import.reject_re_routes);
  w.u64(import.reject_neighbors.size());
  for (const net::Asn asn : import.reject_neighbors) encode_asn(w, asn);
}
ImportPolicy decode_import(net::BinaryReader& r) {
  ImportPolicy import;
  import.customer_pref = r.u32();
  import.peer_pref = r.u32();
  import.provider_pref = r.u32();
  import.stance_bonus = r.u32();
  import.re_stance = static_cast<ReStance>(r.u8());
  const std::uint64_t prefs = r.length(1u << 24);
  for (std::uint64_t i = 0; i < prefs; ++i) {
    const net::Asn asn = decode_asn(r);
    import.neighbor_pref[asn] = r.u32();
  }
  import.reject_re_routes = r.boolean();
  const std::uint64_t rejects = r.length(1u << 24);
  import.reject_neighbors.reserve(rejects);
  for (std::uint64_t i = 0; i < rejects; ++i) {
    import.reject_neighbors.push_back(decode_asn(r));
  }
  return import;
}

void encode_export(net::BinaryWriter& w, const ExportPolicy& policy) {
  w.u32(policy.default_prepend);
  w.u32(policy.commodity_prepend);
  w.u32(policy.re_prepend);
  w.u64(policy.neighbor_prepend.size());
  for (const auto& [asn, copies] : policy.neighbor_prepend) {
    encode_asn(w, asn);
    w.u32(copies);
  }
  w.u64(policy.neighbor_path_block.size());
  for (const auto& [asn, blocked] : policy.neighbor_path_block) {
    encode_asn(w, asn);
    w.u64(blocked.size());
    for (const net::Asn b : blocked) encode_asn(w, b);
  }
}
ExportPolicy decode_export(net::BinaryReader& r) {
  ExportPolicy policy;
  policy.default_prepend = r.u32();
  policy.commodity_prepend = r.u32();
  policy.re_prepend = r.u32();
  const std::uint64_t prepends = r.length(1u << 24);
  for (std::uint64_t i = 0; i < prepends; ++i) {
    const net::Asn asn = decode_asn(r);
    policy.neighbor_prepend[asn] = r.u32();
  }
  const std::uint64_t blocks = r.length(1u << 24);
  for (std::uint64_t i = 0; i < blocks; ++i) {
    const net::Asn asn = decode_asn(r);
    const std::uint64_t count = r.length(1u << 24);
    auto& list = policy.neighbor_path_block[asn];
    list.reserve(count);
    for (std::uint64_t j = 0; j < count; ++j) list.push_back(decode_asn(r));
  }
  return policy;
}

void encode_damping_config(net::BinaryWriter& w, const DampingConfig& config) {
  w.boolean(config.enabled);
  w.f64(config.withdraw_penalty);
  w.f64(config.attribute_change_penalty);
  w.f64(config.suppress_threshold);
  w.f64(config.reuse_threshold);
  w.i64(config.half_life);
  w.i64(config.max_suppress);
  w.f64(config.max_penalty);
}
DampingConfig decode_damping_config(net::BinaryReader& r) {
  DampingConfig config;
  config.enabled = r.boolean();
  config.withdraw_penalty = r.f64();
  config.attribute_change_penalty = r.f64();
  config.suppress_threshold = r.f64();
  config.reuse_threshold = r.f64();
  config.half_life = r.i64();
  config.max_suppress = r.i64();
  config.max_penalty = r.f64();
  return config;
}

}  // namespace

void Speaker::Snapshot::encode(net::BinaryWriter& w,
                               std::span<const PrefixState* const> rib) const {
  encode_asn(w, asn);
  w.boolean(decision.use_as_path_length);
  w.boolean(decision.use_med);
  w.boolean(decision.use_route_age);
  encode_import(w, import);
  encode_export(w, export_policy);
  encode_damping_config(w, damping);
  w.boolean(re_transit_between_peers);
  w.boolean(vrf_split_export);
  w.boolean(rov_table != nullptr);  // pointer itself is not serializable

  w.u64(sessions.size());
  for (const Session& session : sessions) encode_session(w, session);
  // session_index is derived (neighbor -> position); decode rebuilds it.

  w.u64(rib.size());
  for (const PrefixState* entry : rib) {
    const PrefixState& state = *entry;
    encode_prefix(w, state.prefix);
    w.u64(state.in.size());
    for (const auto* route_kv : net::sorted_by_key(state.in)) {
      encode_asn(w, route_kv->first);
      encode_route(w, route_kv->second);
    }
    w.boolean(state.local);
    w.boolean(state.origination.to_re_sessions);
    w.boolean(state.origination.to_commodity_sessions);
    w.boolean(state.origination.re_only);
    w.i64(state.local_since);
    w.boolean(state.best.has_value());
    if (state.best.has_value()) encode_route(w, *state.best);
    w.u8(static_cast<std::uint8_t>(state.decided_by));
    w.u64(state.damping.size());
    for (const auto* damp_kv : net::sorted_by_key(state.damping)) {
      encode_asn(w, damp_kv->first);
      const DampingState::Raw raw = damp_kv->second.raw();
      w.f64(raw.penalty);
      w.i64(raw.last_update);
      w.boolean(raw.suppressed);
      w.i64(raw.suppressed_since);
    }
  }

  w.u64(failed.size());
  for (const auto* kv : net::sorted_by_key(failed)) {
    encode_asn(w, kv->first);
    std::vector<net::Prefix> sorted;
    sorted.reserve(kv->second.size());
    for (const net::Prefix& prefix : kv->second) sorted.push_back(prefix);
    std::sort(sorted.begin(), sorted.end());
    w.u64(sorted.size());
    for (const net::Prefix& prefix : sorted) encode_prefix(w, prefix);
  }
}

Speaker::Snapshot Speaker::Snapshot::decode(net::BinaryReader& r,
                                            std::vector<PrefixState>& rib) {
  Snapshot snap;
  snap.asn = decode_asn(r);
  snap.decision.use_as_path_length = r.boolean();
  snap.decision.use_med = r.boolean();
  snap.decision.use_route_age = r.boolean();
  snap.import = decode_import(r);
  snap.export_policy = decode_export(r);
  snap.damping = decode_damping_config(r);
  snap.re_transit_between_peers = r.boolean();
  snap.vrf_split_export = r.boolean();
  (void)r.boolean();  // ROV armed flag; the table pointer cannot round-trip
  snap.rov_table = nullptr;

  const std::uint64_t session_count = r.length(1u << 24);
  snap.sessions.reserve(session_count);
  for (std::uint64_t i = 0; i < session_count; ++i) {
    snap.sessions.push_back(decode_session(r));
    snap.session_index[snap.sessions.back().neighbor] = i;
  }

  const std::uint64_t rib_count = r.length(1u << 26);
  for (std::uint64_t i = 0; i < rib_count && !r.failed(); ++i) {
    PrefixState& state = rib.emplace_back();
    state.prefix = decode_prefix(r);
    const std::uint64_t in_count = r.length(1u << 26);
    for (std::uint64_t j = 0; j < in_count; ++j) {
      const net::Asn neighbor = decode_asn(r);
      state.in[neighbor] = decode_route(r);
    }
    state.local = r.boolean();
    state.origination.to_re_sessions = r.boolean();
    state.origination.to_commodity_sessions = r.boolean();
    state.origination.re_only = r.boolean();
    state.local_since = r.i64();
    if (r.boolean()) state.best = decode_route(r);
    state.decided_by = static_cast<DecisionStep>(r.u8());
    const std::uint64_t damp_count = r.length(1u << 26);
    for (std::uint64_t j = 0; j < damp_count; ++j) {
      const net::Asn neighbor = decode_asn(r);
      DampingState::Raw raw;
      raw.penalty = r.f64();
      raw.last_update = r.i64();
      raw.suppressed = r.boolean();
      raw.suppressed_since = r.i64();
      state.damping[neighbor] = DampingState::from_raw(raw);
    }
  }

  const std::uint64_t failed_count = r.length(1u << 24);
  for (std::uint64_t i = 0; i < failed_count; ++i) {
    const net::Asn neighbor = decode_asn(r);
    auto& prefixes = snap.failed[neighbor];
    const std::uint64_t prefix_count = r.length(1u << 26);
    for (std::uint64_t j = 0; j < prefix_count; ++j) {
      prefixes.insert(decode_prefix(r));
    }
  }
  return snap;
}

void Speaker::encode_prefix_state(const net::Prefix& prefix,
                                  net::BinaryWriter& w) const {
  encode_asn(w, asn_);
  // Routes by *content*: the AS path is written as its ASN sequence, not
  // its PathId (see the header comment — intern order is run-dependent).
  const auto content_route = [&](const Route& route) {
    const auto path = paths_->span(route.path);
    w.u64(path.size());
    for (const net::Asn hop : path) encode_asn(w, hop);
    w.u32(route.path_length);
    encode_asn(w, route.path_first);
    w.u8(static_cast<std::uint8_t>(route.origin));
    w.u32(route.local_pref);
    w.u32(route.med);
    encode_asn(w, route.learned_from);
    w.boolean(route.ebgp);
    w.u32(route.igp_cost);
    w.u32(route.neighbor_router_id);
    w.i64(route.established_at);
    w.boolean(route.re_edge);
    w.boolean(route.re_only);
  };

  const PrefixState* found = rib_->state(index_, prefix);
  w.boolean(found != nullptr);
  if (found != nullptr) {
    const PrefixState& state = *found;
    w.u64(state.in.size());
    for (const auto* kv : net::sorted_by_key(state.in)) {
      encode_asn(w, kv->first);
      content_route(kv->second);
    }
    w.boolean(state.local);
    w.boolean(state.origination.to_re_sessions);
    w.boolean(state.origination.to_commodity_sessions);
    w.boolean(state.origination.re_only);
    w.i64(state.local_since);
    w.boolean(state.best.has_value());
    if (state.best.has_value()) content_route(*state.best);
    w.u8(static_cast<std::uint8_t>(state.decided_by));
    w.u64(state.damping.size());
    for (const auto* kv : net::sorted_by_key(state.damping)) {
      encode_asn(w, kv->first);
      const DampingState::Raw raw = kv->second.raw();
      w.f64(raw.penalty);
      w.i64(raw.last_update);
      w.boolean(raw.suppressed);
      w.i64(raw.suppressed_since);
    }
  }

  std::vector<net::Asn> failed_neighbors;
  for (const auto& [neighbor, prefixes] : failed_) {
    if (prefixes.count(prefix) != 0) failed_neighbors.push_back(neighbor);
  }
  std::sort(failed_neighbors.begin(), failed_neighbors.end());
  w.u64(failed_neighbors.size());
  for (const net::Asn neighbor : failed_neighbors) encode_asn(w, neighbor);
}

}  // namespace re::bgp
