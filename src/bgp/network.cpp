#include "bgp/network.h"

#include <algorithm>
#include <limits>
#include <span>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace re::bgp {

namespace {

// Deterministic per-session router id derived from the two ASNs, so that
// the final tie-break is reproducible without global coordination.
std::uint32_t derive_router_id(net::Asn local, net::Asn neighbor) {
  std::uint64_t x = (std::uint64_t{local.value()} << 32) | neighbor.value();
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  return static_cast<std::uint32_t>(x);
}

Session make_session(net::Asn local, net::Asn neighbor, Relationship rel,
                     bool re_edge) {
  Session s;
  s.neighbor = neighbor;
  s.relationship = rel;
  s.re_edge = re_edge;
  s.router_id = derive_router_id(local, neighbor);
  return s;
}

}  // namespace

Speaker& BgpNetwork::add_speaker(net::Asn asn) {
  if (const auto it = index_.find(asn); it != index_.end()) {
    return *speakers_[it->second];
  }
  const auto index = static_cast<std::uint32_t>(speakers_.size());
  index_[asn] = index;
  speakers_.push_back(std::make_unique<Speaker>(asn, &paths_, &rib_, index));
  return *speakers_.back();
}

std::vector<net::Asn> BgpNetwork::asns() const {
  std::vector<net::Asn> out;
  out.reserve(speakers_.size());
  for (const auto& s : speakers_) out.push_back(s->asn());
  std::sort(out.begin(), out.end());
  return out;
}

net::FlatMap<net::Asn, std::size_t>::ProbeStats BgpNetwork::map_probe_stats()
    const {
  net::FlatMap<net::Asn, std::size_t>::ProbeStats total;
  const auto add = [&](const auto& stats) {
    total.lookups += stats.lookups;
    total.probes += stats.probes;
  };
  add(index_.probe_stats());
  add(rib_.probe_stats());
  add(collector_peers_.probe_stats());
  return total;
}

void BgpNetwork::reserve_topology(std::size_t speakers) {
  // 2x: at the 0.75 load a bare reserve allows, linear probing averages
  // over two probes per lookup (see map_probe_stats()).
  index_.reserve(2 * speakers);
}

void BgpNetwork::connect_transit(net::Asn provider, net::Asn customer,
                                 bool re_edge) {
  Speaker& p = add_speaker(provider);
  Speaker& c = add_speaker(customer);
  p.add_session(make_session(provider, customer, Relationship::kCustomer, re_edge));
  c.add_session(make_session(customer, provider, Relationship::kProvider, re_edge));
}

void BgpNetwork::connect_peering(net::Asn a, net::Asn b, bool re_edge) {
  Speaker& sa = add_speaker(a);
  Speaker& sb = add_speaker(b);
  sa.add_session(make_session(a, b, Relationship::kPeer, re_edge));
  sb.add_session(make_session(b, a, Relationship::kPeer, re_edge));
}

net::SimTime BgpNetwork::edge_delay(net::Asn from, net::Asn to,
                                    const net::Prefix& prefix,
                                    std::uint32_t flow_index) const {
  // Deterministic base (1..12s, a stand-in for MRAI and link latency) plus
  // jitter (0..19s) so that update waves arrive staggered and propagation
  // explores transient paths ("path hunting") the way real BGP does.
  //
  // The jitter is counter-hashed, not drawn from a shared RNG: message k
  // of a given (edge, prefix) flow always jitters the same way for a
  // given network seed, no matter what else is in flight. That
  // statelessness is what makes batched multi-origin sweeps reproduce
  // one-at-a-time timelines exactly.
  const std::uint32_t mix = derive_router_id(from, to);
  const net::SimTime base = 1 + (mix % 12);
  std::uint64_t h = net::mix64(seed_);
  h = net::mix64(h ^ ((std::uint64_t{from.value()} << 32) | to.value()));
  h = net::mix64(h ^ ((std::uint64_t{prefix.network().value()} << 8) |
                      prefix.length()));
  h = net::mix64(h ^ flow_index);
  return base + static_cast<net::SimTime>(h % 20);
}

void BgpNetwork::enqueue(PrefixColumn& column, std::uint32_t id, net::Asn from,
                         net::Asn to, const UpdateMessage& update,
                         net::SimTime now) {
  PendingMessage msg;
  EdgeFlowState& flow = column.edge_flow[edge_key(from, to)];
  msg.deliver_at = now + edge_delay(from, to, update.prefix, flow.sent);
  ++flow.sent;
  // Per-(session, prefix) FIFO: an update for a prefix never overtakes an
  // earlier one on the same session (BGP runs over TCP).
  if (msg.deliver_at <= flow.last_delivery) {
    msg.deliver_at = flow.last_delivery;  // same tick: seq orders them
  }
  flow.last_delivery = msg.deliver_at;
  msg.seq = next_seq_++;
  msg.from = from;
  msg.to = to;
  msg.update = update;
  Channel& channel = channels_[id];
  channel.queue.push(msg);
  ++total_pending_;
  // Inside a run, a message that becomes its channel's new head must
  // surface in the active heap (emissions only ever target in-scope
  // prefixes — processing a prefix generates messages for that prefix
  // alone — so no scope check is needed here).
  if (run_active_ && channel.queue.top().seq == msg.seq) {
    active_.push(ActiveHead{msg.deliver_at, msg.seq, id});
  }
}

void BgpNetwork::flush_exports(Speaker& from, const net::Prefix& prefix,
                               net::SimTime now) {
  // Resolve the per-prefix export inputs once; the loop below asks a
  // per-session question per neighbor. The column is taken for writing
  // first, so the probe reads the copy the sends below update.
  const std::uint32_t id = channel_for(prefix);
  PrefixColumn& column = rib_.write(id);
  const Speaker::ExportProbe probe =
      from.export_probe(column.state(from.index()));
  for (const Session& session : from.sessions()) {
    // A failed session carries nothing — not even a withdrawal. The
    // remote end already invalidated the route when the failure was
    // injected.
    if (from.session_failed(session.neighbor, prefix)) continue;
    const std::uint64_t key = edge_key(from.asn(), session.neighbor);
    auto announcement = probe.announcement(session);
    auto it = column.sent.find(key);
    if (announcement) {
      if (it != column.sent.end()) {
        if (!it->second.withdrawn && it->second.path == announcement->path &&
            it->second.origin == announcement->origin) {
          continue;  // nothing new to say
        }
        // Reuse the slot located by find() instead of probing again.
        it->second = SentState{false, announcement->path, announcement->origin};
      } else {
        column.sent.insert_or_assign(
            key, SentState{false, announcement->path, announcement->origin});
      }
      enqueue(column, id, from.asn(), session.neighbor, *announcement, now);
    } else {
      if (it == column.sent.end() || it->second.withdrawn) continue;
      it->second = SentState{};
      UpdateMessage withdraw;
      withdraw.prefix = prefix;
      withdraw.withdraw = true;
      enqueue(column, id, from.asn(), session.neighbor, withdraw, now);
    }
  }
  if (collector_peers_.count(from.asn()) != 0) {
    record_collector(from.asn(), prefix, now);
  }
}

void BgpNetwork::record_collector(net::Asn peer, const net::Prefix& prefix,
                                  net::SimTime now) {
  Speaker* s = speaker(peer);
  if (s == nullptr) return;
  // Take the column for writing before reading the view from it: a clone
  // replaces the handle, and `view` must point into the kept copy.
  auto& collector_sent = rib_.write(channel_for(prefix)).collector_sent;
  // A VRF-split AS feeds the collector from its commodity VRF (§4.1.1).
  const Route* view =
      s->vrf_split_export() ? s->best_commodity(prefix) : s->best(prefix);
  auto it = collector_sent.find(peer);
  if (view != nullptr) {
    const PathId exported = paths_.prepended(view->path, peer, 1);
    if (it != collector_sent.end()) {
      if (!it->second.withdrawn && it->second.path == exported) return;
      it->second = SentState{false, exported, view->origin};
    } else {
      collector_sent.insert_or_assign(
          peer, SentState{false, exported, view->origin});
    }
    log_.record(now, peer, prefix, false, paths_.span(exported));
  } else {
    if (it == collector_sent.end() || it->second.withdrawn) return;
    it->second = SentState{};
    log_.record(now, peer, prefix, true, std::span<const net::Asn>{});
  }
}

void BgpNetwork::announce(net::Asn origin, const net::Prefix& prefix,
                          OriginationOptions options) {
  Speaker* s = speaker(origin);
  if (s == nullptr) return;
  mark_dirty(prefix);
  s->originate(prefix, clock_.now(), options);
  flush_exports(*s, prefix, clock_.now());
}

void BgpNetwork::withdraw(net::Asn origin, const net::Prefix& prefix) {
  Speaker* s = speaker(origin);
  if (s == nullptr) return;
  mark_dirty(prefix);
  s->withdraw_origination(prefix, clock_.now());
  flush_exports(*s, prefix, clock_.now());
}

void BgpNetwork::set_origin_prepend(net::Asn origin, const net::Prefix& prefix,
                                    std::uint32_t extra_prepends) {
  Speaker* s = speaker(origin);
  if (s == nullptr) return;
  mark_dirty(prefix);
  s->export_policy().default_prepend = extra_prepends;
  // Best route is unchanged at the origin; only the exported form differs.
  flush_exports(*s, prefix, clock_.now());
}

void BgpNetwork::fail_session(net::Asn a, net::Asn b, const net::Prefix& prefix) {
  mark_dirty(prefix);
  // Sever the session first, in both directions, so that nothing queued
  // below (or already in flight) can cross it: the repropagation a
  // failure triggers must never resurrect the failed link itself.
  for (const auto& [local, remote] : {std::pair{a, b}, std::pair{b, a}}) {
    if (Speaker* s = speaker(local)) {
      s->set_session_failed(remote, prefix, true);
    }
  }
  drop_in_flight(a, b, prefix);

  for (const auto& [local, remote] : {std::pair{a, b}, std::pair{b, a}}) {
    Speaker* s = speaker(local);
    if (s == nullptr) continue;
    // Local state cleanup — the neighbor's route died with the session.
    if (s->invalidate_neighbor_route(remote, prefix, clock_.now())) {
      flush_exports(*s, prefix, clock_.now());
    }
    if (collector_peers_.count(local) != 0) {
      record_collector(local, prefix, clock_.now());
    }
    // Forget what was sent over the dead session so that restoration
    // re-advertises from scratch.
    rib_.write(channel_for(prefix)).sent.erase(edge_key(local, remote));
  }
}

void BgpNetwork::restore_session(net::Asn a, net::Asn b,
                                 const net::Prefix& prefix) {
  mark_dirty(prefix);
  // Bring both directions up before flushing either side, so each end's
  // re-advertisement sees the session as usable.
  for (const auto& [local, remote] : {std::pair{a, b}, std::pair{b, a}}) {
    if (Speaker* s = speaker(local)) {
      s->set_session_failed(remote, prefix, false);
    }
  }
  for (const auto& [local, remote] : {std::pair{a, b}, std::pair{b, a}}) {
    Speaker* s = speaker(local);
    if (s == nullptr) continue;
    flush_exports(*s, prefix, clock_.now());
  }
}

void BgpNetwork::drop_in_flight(net::Asn a, net::Asn b,
                                const net::Prefix& prefix) {
  const std::uint32_t id = rib_.find_slot(prefix);
  if (id >= channels_.size()) return;
  Channel& channel = channels_[id];
  if (channel.queue.empty()) return;
  std::vector<PendingMessage> keep;
  keep.reserve(channel.queue.size());
  while (!channel.queue.empty()) {
    const PendingMessage& top = channel.queue.top();
    const bool crosses = (top.from == a && top.to == b) ||
                         (top.from == b && top.to == a);
    if (!crosses) keep.push_back(top);
    channel.queue.pop();
    --total_pending_;
  }
  total_pending_ += keep.size();
  for (auto& msg : keep) channel.queue.push(std::move(msg));
}

ConvergenceStats BgpNetwork::run_to_convergence() {
  return run_until(std::numeric_limits<net::SimTime>::max());
}

ConvergenceStats BgpNetwork::run_to_convergence(
    std::span<const net::Prefix> scope) {
  std::vector<std::uint32_t> ids;
  ids.reserve(scope.size());
  for (const net::Prefix& prefix : scope) ids.push_back(channel_for(prefix));
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  ConvergenceStats stats =
      run_channels(ids, false, std::numeric_limits<net::SimTime>::max());
  // Every scoped channel drained: these prefixes are converged.
  for (const net::Prefix& prefix : scope) dirty_.erase(prefix);
  return stats;
}

ConvergenceStats BgpNetwork::run_dirty_to_convergence() {
  std::vector<std::uint32_t> ids;
  ids.reserve(dirty_.size());
  // Explicitly perturbed prefixes first (a flush that emitted nothing
  // still counts as dirty — it converges trivially), then anything with
  // messages in flight (deferred or deadline-stranded work).
  for (const net::Prefix& prefix : dirty_) ids.push_back(channel_for(prefix));
  for (std::uint32_t id = 0; id < channels_.size(); ++id) {
    if (!channels_[id].queue.empty() && !dirty_.contains(rib_.prefix(id))) {
      ids.push_back(id);
    }
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  ConvergenceStats stats =
      run_channels(ids, false, std::numeric_limits<net::SimTime>::max());
  dirty_.clear();
  return stats;
}

std::vector<net::Prefix> BgpNetwork::dirty_prefixes() const {
  std::vector<net::Prefix> out;
  out.reserve(dirty_.size());
  for (const net::Prefix& prefix : dirty_) out.push_back(prefix);
  for (std::uint32_t id = 0; id < channels_.size(); ++id) {
    const net::Prefix& prefix = rib_.prefix(id);
    if (!channels_[id].queue.empty() && !dirty_.contains(prefix)) {
      out.push_back(prefix);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

void BgpNetwork::deliver(const PendingMessage& msg, ConvergenceStats& stats,
                         net::SimTime now) {
  Speaker* to = speaker(msg.to);
  if (to == nullptr) return;
  ++stats.messages_delivered;
  const bool changed = to->receive(msg.from, msg.update, now);
  if (changed) {
    ++stats.best_changes;
    flush_exports(*to, msg.update.prefix, now);
  } else if (collector_peers_.count(msg.to) != 0) {
    // The exported best may be unchanged while the commodity-VRF view
    // (what this peer feeds the collector) changed.
    record_collector(msg.to, msg.update.prefix, now);
  }
}

ConvergenceStats BgpNetwork::run_until(net::SimTime deadline) {
  ConvergenceStats stats = run_channels({}, true, deadline);
  // A full run visits every channel: whatever drained is converged, and
  // whatever a deadline stranded stays implicitly dirty via its pending
  // messages — the explicit set has nothing left to say.
  dirty_.clear();
  return stats;
}

ConvergenceStats BgpNetwork::run_channels(std::span<const std::uint32_t> scope,
                                          bool full, net::SimTime deadline) {
  obs::SpanGuard run_span(full ? "converge.run" : "converge.run_scoped");
  ConvergenceStats stats;
  std::uint64_t rounds = 0;

  // Seed the active-head heap from the scoped channels.
  active_ = {};
  const auto seed = [&](std::uint32_t id) {
    const Channel& channel = channels_[id];
    if (!channel.queue.empty()) {
      const PendingMessage& head = channel.queue.top();
      active_.push(ActiveHead{head.deliver_at, head.seq, id});
    }
  };
  if (full) {
    for (std::uint32_t id = 0; id < channels_.size(); ++id) {
      if (!channels_[id].queue.empty()) seed(id);
    }
  } else {
    for (const std::uint32_t id : scope) seed(id);
  }
  run_active_ = true;

  while (!active_.empty()) {
    const ActiveHead top = active_.top();
    {
      const Channel& channel = channels_[top.channel];
      if (channel.queue.empty() || channel.queue.top().seq != top.seq) {
        active_.pop();  // stale: this head was popped or superseded
        continue;
      }
    }
    if (top.at > deadline) break;
    // Gather the round: every in-scope message due at this tick, across
    // all channels. Every edge delay is >= 1, so anything a delivery
    // emits lands at a strictly later tick — the round set is closed once
    // the tick starts. The clock never rewinds: a deferred channel
    // catching up on past ticks runs with the tick itself (`tick` below),
    // not the clock, so its deliveries see the same timestamps an eager
    // run gave them.
    const net::SimTime tick = top.at;
    clock_.advance_to(tick);
    round_.clear();
    touched_channels_.clear();
    while (!active_.empty() && active_.top().at == tick) {
      const ActiveHead head = active_.top();
      active_.pop();
      Channel& channel = channels_[head.channel];
      if (channel.queue.empty() || channel.queue.top().deliver_at != tick) {
        continue;  // stale or duplicate entry; the live head is elsewhere
      }
      while (!channel.queue.empty() &&
             channel.queue.top().deliver_at == tick) {
        round_.push_back(channel.queue.top());
        channel.queue.pop();
        --total_pending_;
      }
      touched_channels_.push_back(head.channel);
      // Deliveries this tick may change the prefix's forwarding state:
      // one epoch bump per (tick, channel) keeps compiled-FIB caches
      // honest without touching the per-message hot path.
      ++channel.epoch;
    }
    // Global (deliver_at, seq) order: within a tick, messages interleave
    // across channels exactly as the single-queue engine popped them.
    std::sort(round_.begin(), round_.end(),
              [](const PendingMessage& a, const PendingMessage& b) {
                return a.seq < b.seq;
              });
    ++rounds;
    // Round-size distribution (p50/p95/p99 in the metrics dump).
    static auto& round_messages =
        obs::registry().histogram("converge.round_messages");
    round_messages.record(round_.size());
    {
      RE_SPAN_ARG("converge.round", "messages", round_.size());
      for (const PendingMessage& msg : round_) deliver(msg, stats, tick);
    }
    // Channels drained at this tick may have fresh emissions; their new
    // heads re-enter the heap here. (enqueue also pushes heads, so some
    // entries are duplicates — the stale check above absorbs them.)
    for (const std::uint32_t id : touched_channels_) {
      const Channel& channel = channels_[id];
      if (!channel.queue.empty()) {
        const PendingMessage& head = channel.queue.top();
        active_.push(ActiveHead{head.deliver_at, head.seq, id});
      }
    }
    // Round boundary: deliveries done, heads re-seeded — the network is
    // consistent and observers (the re_check invariant suite) may read it.
    if (round_observer_) round_observer_(tick, rounds);
  }
  run_active_ = false;
  active_ = {};

  stats.converged_at = clock_.now();
  if (full) {
    stats.fully_converged = total_pending_ == 0;
  } else {
    stats.fully_converged = true;  // scoped runs have no deadline: the
    for (const std::uint32_t id : scope) {  // loop exits when scope drains
      if (!channels_[id].queue.empty()) stats.fully_converged = false;
    }
  }

  run_span.set_arg("messages", stats.messages_delivered);
  return stats;
}

ConvergenceStats BgpNetwork::settle(const net::Prefix& prefix) {
  mark_dirty(prefix);
  for (const auto& s : speakers_) {
    if (s->reevaluate(prefix, clock_.now())) {
      flush_exports(*s, prefix, clock_.now());
    }
  }
  // Full-scope drain on purpose: callers (beacon schedules, partial-failure
  // tests) expect a settled network afterwards, not just a settled prefix.
  return run_to_convergence();
}

void BgpNetwork::add_collector_peer(net::Asn peer) {
  // 4x headroom: nearly every lookup here (one per delivery) is a miss,
  // and a miss walks the whole probe run, which grows sharply with load.
  collector_peers_.reserve(4 * (collector_peers_.size() + 1));
  collector_peers_.insert(peer);
}

void BgpNetwork::clear_prefix(const net::Prefix& prefix) {
  // One column drop removes every speaker's RIB entry and the per-edge
  // send, FIFO-clamp and flow-counter history: a prefix announced after a
  // clear sees the exact timeline a fresh network would give it
  // (rib_survey's batched sweeps rely on this for solo/batch identity).
  const std::uint32_t id = rib_.find_slot(prefix);
  if (id != RibStore::kNoSlot) rib_.drop(id);
  for (const auto& s : speakers_) s->clear_prefix(prefix);  // failures
  // The channel is expected to be drained before clearing; dropping any
  // stragglers keeps semantics crisp.
  if (id < channels_.size()) {
    Channel& channel = channels_[id];
    total_pending_ -= channel.queue.size();
    channel.queue = {};
    ++channel.epoch;  // the prefix's state was just dropped
  }
  dirty_.erase(prefix);
}

}  // namespace re::bgp
