// BgpNetwork: the collection of speakers plus event-driven propagation.
//
// Updates travel as timestamped messages through a priority queue; each
// edge has a deterministic base delay plus seeded jitter, which produces
// realistic transient path exploration ("path hunting") and therefore a
// realistic update-churn timeline (Figure 3). The jitter is *stateless*:
// it is hashed from (network seed, directed edge, prefix, per-flow message
// index), never drawn from a shared sequential RNG, so a prefix's
// propagation timeline is a pure function of the seed and that prefix's
// own history — independent of which other prefixes are in flight, of
// thread count, and of scheduling order.
//
// Propagation is round-synchronous: the engine drains the queue one
// simulated-time tick at a time (messages emitted in a round always
// deliver strictly later, so a round is closed under causality) and
// delivers each round serially in global (deliver_at, seq) order.
// Parallelism lives above the network: independent trials each own one
// (see DESIGN.md §5d).
//
// The message pipeline is partitioned by prefix: each prefix owns a
// channel (its own priority queue), and a run drains a chosen set of
// channels — all of them (the classic full run) or only the prefixes a
// mutation dirtied (run_dirty_to_convergence / the scoped overload).
// Because BGP state for distinct prefixes is independent in this model
// (per-prefix RIB entries, per-(edge,prefix) FIFO clamps and flow
// counters, per-prefix damping, per-(edge,prefix) duplicate suppression),
// a scoped run performs exactly the deliveries a full run would perform
// for those prefixes, and out-of-scope messages wait untouched. Deferred
// channels catch up later at their original delivery ticks — the tick is
// threaded through the delivery path rather than read from the clock —
// so their per-prefix outcome is the same whether they were drained
// eagerly or lazily (see DESIGN.md §5e).
//
// The network owns the PathTable all its speakers intern into: queued
// messages and edge suppression state carry 32-bit PathIds, and the hot
// maps are open-addressing FlatMaps. One table per network also keeps
// parallel sweeps share-nothing: two networks never touch the same arena.
//
// Delivery is index-addressed: each session carries its neighbor's dense
// speaker index and each queued message its receiver's, so delivering and
// flushing index speakers_ and a per-speaker collector flag instead of
// hashing ASNs. Neither index is encoded; Snapshot::decode rebuilds both.
//
// All per-prefix state lives in the network's RibStore (rib_store.h): one
// prefix column per channel slot, holding every speaker's RIB entry for
// the prefix, dense by speaker index, plus the prefix's per-edge state
// (duplicate suppression, FIFO clamp and jitter counter in one entry per
// edge) and collector-feed state. Columns are shared copy-on-write between a
// network, its checkpoints and their forks, so a fork costs O(prefixes)
// handle copies plus a clone of each column it then writes, and clearing
// a prefix drops its column.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <span>
#include <string>
#include <vector>

#include "bgp/path_table.h"
#include "bgp/rib_store.h"
#include "bgp/speaker.h"
#include "bgp/update_log.h"
#include "netbase/clock.h"
#include "netbase/flat_map.h"
#include "netbase/rng.h"

namespace re::bgp {

struct ConvergenceStats {
  std::size_t messages_delivered = 0;
  std::size_t best_changes = 0;
  // Simulated time of the last delivered update in this run. Only a full
  // convergence timestamp when fully_converged is also set: a deadlined
  // run_until() reports when it *stopped delivering*, not when the
  // network settled (it didn't).
  net::SimTime converged_at = 0;
  // True when the queue drained (no updates remain in flight).
  bool fully_converged = false;
};

class BgpNetwork {
 public:
  explicit BgpNetwork(std::uint64_t seed = 1) : seed_(seed) {}

  net::SimClock& clock() noexcept { return clock_; }
  const net::SimClock& clock() const noexcept { return clock_; }

  // The path intern table shared by every speaker in this network.
  PathTable& paths() noexcept { return paths_; }
  const PathTable& paths() const noexcept { return paths_; }

  // --- Topology construction --------------------------------------------

  Speaker& add_speaker(net::Asn asn);
  Speaker* speaker(net::Asn asn) {
    const auto it = index_.find(asn);
    return it == index_.end() ? nullptr : speakers_[it->second].get();
  }
  // Stat-free, like speaker_index(): the probing plane calls it from
  // several pool workers at once.
  const Speaker* speaker(net::Asn asn) const {
    const std::size_t* idx = index_.find_concurrent(asn);
    return idx == nullptr ? nullptr : speakers_[*idx].get();
  }
  bool contains(net::Asn asn) const { return index_.count(asn) != 0; }
  std::vector<net::Asn> asns() const;
  std::size_t speaker_count() const noexcept { return speakers_.size(); }

  // Open-addressing lookups and probe steps summed over the network-level
  // maps (speaker index, prefix slots, collector peers), cumulative over
  // their lifetime. With the speaker index reserved at 2x its speakers
  // and the collector set at 4x its peers, an experiment's flow averages
  // about 1.2 probes per lookup
  // (BgpNetwork.MapProbeLengthsStayNearOneOverAnExperiment holds it
  // under 1.5).
  net::FlatMap<net::Asn, std::size_t>::ProbeStats map_probe_stats() const;

  // --- Dense AS indexing ---------------------------------------------------

  // Every speaker has a dense index in add_speaker order, stable for the
  // network's lifetime. Subsystems that build per-AS arrays (the compiled
  // catchment FIB) key them by this index instead of
  // hashing ASNs per query.
  static constexpr std::size_t kNoSpeakerIndex = static_cast<std::size_t>(-1);
  // Stat-free lookup (find_concurrent): dense-index queries come from the
  // probing plane, often from several pool workers at once, and must not
  // touch the map's mutable probe counters.
  std::size_t speaker_index(net::Asn asn) const {
    const std::size_t* idx = index_.find_concurrent(asn);
    return idx == nullptr ? kNoSpeakerIndex : *idx;
  }
  const Speaker& speaker_at(std::size_t index) const {
    return *speakers_[index];
  }

  // --- Mutation epochs -------------------------------------------------------

  // Monotonic per-prefix mutation counter: bumped by every mutator that
  // seeds the dirty set (announce/withdraw/set_origin_prepend/
  // fail_session/restore_session/settle/clear_prefix) and once per
  // delivery tick that touched the prefix's channel. Restoring a snapshot
  // folds a restore generation into the value, so a rewind never collides
  // with a pre-restore epoch. Equal epochs guarantee unchanged per-prefix
  // forwarding state; an epoch change merely permits it (callers use this
  // for cache invalidation, never for semantics).
  std::uint64_t prefix_epoch(const net::Prefix& prefix) const {
    const std::uint32_t id = rib_.find_slot(prefix);
    const std::uint64_t counter =
        id < channels_.size() ? channels_[id].epoch : 0;
    return (restore_generation_ << 48) | counter;
  }

  // Pre-sizes the speaker index from the known speaker count, so building
  // the topology does not pay rehash churn. Builders call this up front;
  // calling late or not at all is merely slower.
  void reserve_topology(std::size_t speakers);

  // Provider-customer link: `customer` buys transit from `provider`.
  void connect_transit(net::Asn provider, net::Asn customer, bool re_edge = false);
  // Settlement-free peering link.
  void connect_peering(net::Asn a, net::Asn b, bool re_edge = false);

  // --- Announcements ------------------------------------------------------

  void announce(net::Asn origin, const net::Prefix& prefix,
                OriginationOptions options = {});
  void withdraw(net::Asn origin, const net::Prefix& prefix);

  // Changes the origin's blanket prepend count and re-advertises the
  // difference — the §3.3 prepend-configuration knob.
  void set_origin_prepend(net::Asn origin, const net::Prefix& prefix,
                          std::uint32_t extra_prepends);

  // --- Failure injection --------------------------------------------------

  // Simulates loss of reachability for `prefix` over the (a, b) session:
  // both ends drop the neighbor's route and propagate the change.
  void fail_session(net::Asn a, net::Asn b, const net::Prefix& prefix);
  // Restores the session: both ends re-advertise their current export.
  void restore_session(net::Asn a, net::Asn b, const net::Prefix& prefix);

  // --- Propagation ----------------------------------------------------------

  // Delivers queued messages in timestamp order until the queue drains.
  ConvergenceStats run_to_convergence();

  // Scoped run: drains only the channels of the given prefixes, leaving
  // every other prefix's messages queued (they catch up in a later run,
  // at their original delivery times). Per-prefix independence makes the
  // scoped outcome for these prefixes identical to a full run's.
  ConvergenceStats run_to_convergence(std::span<const net::Prefix> scope);

  // Delta-driven run: converges exactly the dirty prefixes — those
  // perturbed by announce/withdraw/set_origin_prepend/fail_session/
  // restore_session since they last drained, plus any with messages
  // still in flight — and clears the dirty set. A prepend round on a
  // converged baseline touches one prefix out of thousands; this is the
  // entry point that makes such rounds O(that prefix).
  ConvergenceStats run_dirty_to_convergence();

  // Delivers only messages scheduled at or before `deadline`, leaving later
  // ones queued (used to probe a network that has NOT converged — the
  // ablation counterpart of the paper's one-hour wait).
  ConvergenceStats run_until(net::SimTime deadline);

  bool converged() const noexcept { return total_pending_ == 0; }
  std::size_t pending_messages() const noexcept { return total_pending_; }

  // The prefixes a run_dirty_to_convergence() call would converge right
  // now, sorted (explicitly perturbed plus in-flight).
  std::vector<net::Prefix> dirty_prefixes() const;

  // Round-boundary observer: invoked after every propagation round (one
  // simulated-time tick) with the tick just drained and the 1-based round
  // index within the current run. The network is internally consistent at
  // the call — the round's deliveries are done and channel heads
  // re-seeded — so observers may read any const API. They must NOT mutate
  // the network or start a nested run (the run loop is active). An empty
  // function clears the hook. Observers survive restore(); forks start
  // without one.
  using RoundObserver = std::function<void(net::SimTime tick, std::uint64_t round)>;
  void set_round_observer(RoundObserver observer) {
    round_observer_ = std::move(observer);
  }

  // --- Collectors (public BGP view) ----------------------------------------

  // Registers `peer` as a collector feed (RouteViews/RIS-style).
  void add_collector_peer(net::Asn peer);
  const net::FlatSet<net::Asn>& collector_peers() const noexcept {
    return collector_peers_;
  }
  UpdateLog& update_log() noexcept { return log_; }
  const UpdateLog& update_log() const noexcept { return log_; }

  // --- Checkpoint / fork ----------------------------------------------------

  // The full network state at a point in time: speakers (policies,
  // sessions, failures), prefix columns (RIBs, damping, per-edge FIFO
  // clamps and duplicate suppression), in-flight messages, collector log,
  // clock — with all AS paths held in a frozen, shared PathTable base.
  // Defined after the class.
  struct Snapshot;

  // Captures the current state. Freezes the path table first, so the
  // snapshot (and every fork made from it) *shares* the interned arena
  // with this network instead of copying it, and shares every prefix
  // column: a checkpoint copies one handle per prefix, and this network
  // clones a column the next time it writes it. Freezing preserves every
  // PathId, so taking a checkpoint never perturbs subsequent results.
  // Each call adds one to the "snapshot.checkpoints" registry counter.
  Snapshot checkpoint();

  // Replaces this network's state with the snapshot's (the clock rewinds
  // to the snapshot time). Columns stay shared until first written.
  void restore(const Snapshot& snap);

  // Content digest over the canonical serialization of the full state —
  // equal to checkpoint().digest(), computed from the live state without
  // taking a checkpoint (no freeze, no column sharing, no count in the
  // "snapshot.checkpoints" registry counter). The bit-identity contract: a
  // forked run and a fresh run that executed the same schedule produce
  // equal digests.
  std::uint64_t state_digest() const;

  // Content digest over everything the network knows about one prefix:
  // every speaker's RIB/damping/failure state for it, the per-edge flow
  // and suppression entries, and the pending-message count. AS paths are
  // written as their contents, not PathIds, so two runs that interleaved
  // prefixes differently (and therefore interned in different orders)
  // still compare equal when their per-prefix outcomes match. This is the
  // equivalence gate for deferred catch-up, where global seq/intern order
  // legitimately diverges from an eager full run.
  std::uint64_t prefix_state_digest(const net::Prefix& prefix) const;

  // --- Maintenance -----------------------------------------------------------

  // Drops all state for `prefix` everywhere (used when sweeping many
  // prefixes through the network one at a time): its column, its queued
  // messages and every session failure scoped to it.
  void clear_prefix(const net::Prefix& prefix);

 private:
  struct PendingMessage {
    net::SimTime deliver_at = 0;
    std::uint64_t seq = 0;
    net::Asn from;
    net::Asn to;
    // `to`'s dense speaker index (kNoIndex: no such speaker). Never
    // encoded; Snapshot::decode rebuilds it from the speaker order.
    std::uint32_t to_index = Session::kNoIndex;
    UpdateMessage update;  // path is a PathId — queuing copies no heap data
  };
  struct LaterFirst {
    bool operator()(const PendingMessage& a, const PendingMessage& b) const {
      return a.deliver_at != b.deliver_at ? a.deliver_at > b.deliver_at
                                          : a.seq > b.seq;
    }
  };

  // One prefix's slice of the message pipeline. Channel ids are the
  // RibStore's prefix slots: created on first use, persisting (empty)
  // after clear_prefix, and carried over by restore().
  struct Channel {
    std::priority_queue<PendingMessage, std::vector<PendingMessage>, LaterFirst>
        queue;
    // Mutation counter for prefix_epoch() (not part of snapshot state —
    // a restored network invalidates via restore_generation_ instead).
    std::uint64_t epoch = 0;
  };

  // An entry in the active-head heap: the head (deliver_at, seq) of one
  // in-scope channel at push time. Entries go stale when the head they
  // describe is popped or superseded; the run loop validates each entry
  // against the channel's actual head and discards mismatches. Every head
  // change pushes a fresh entry, so a live channel always has a valid one.
  struct ActiveHead {
    net::SimTime at = 0;
    std::uint64_t seq = 0;
    std::uint32_t channel = 0;
  };
  struct HeadLaterFirst {
    bool operator()(const ActiveHead& a, const ActiveHead& b) const {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };

  // Queues this speaker's current exports for `prefix` toward all
  // sessions, suppressing duplicates. `now` is the simulated time the
  // flush happens at — the current round's tick inside a run (which may
  // lag the clock during deferred catch-up), the clock time from mutators.
  void flush_exports(Speaker& from, const net::Prefix& prefix,
                     net::SimTime now);

  // Records the collector view of collector peer `s` for `prefix` if it
  // changed.
  void record_collector(const Speaker& s, const net::Prefix& prefix,
                        net::SimTime now);

  // Queues `update` from `from` over `to_session` (one of `from`'s; the
  // message carries its neighbor index). `edge` is the (from, to) entry
  // of the update's prefix column, whose flow state this advances.
  void enqueue(EdgeState& edge, std::uint32_t channel, net::Asn from,
               const Session& to_session, const UpdateMessage& update,
               net::SimTime now);

  // Delivers one message at its tick.
  void deliver(const PendingMessage& msg, ConvergenceStats& stats,
               net::SimTime now);

  // The channel slot for `prefix`, created on first use.
  std::uint32_t channel_for(const net::Prefix& prefix) {
    const std::uint32_t id = rib_.slot(prefix);
    if (id >= channels_.size()) channels_.resize(id + 1);
    return id;
  }

  // Seeds the dirty set and bumps the prefix's mutation epoch — the one
  // funnel every explicit per-prefix mutation goes through.
  void mark_dirty(const net::Prefix& prefix) {
    dirty_.insert(prefix);
    ++channels_[channel_for(prefix)].epoch;
  }

  // Gathers every queued message in (deliver_at, seq) order.
  std::vector<PendingMessage> sorted_queue() const;

  // The canonical encoding of a full state, shared by Snapshot::encode
  // and state_digest (defined in network_snapshot.cpp).
  struct EncodeView;
  static void encode_state(net::BinaryWriter& w, const EncodeView& view);

  // The engine shared by every run flavor: drains the scoped channels
  // (all of them when `full`) in global (deliver_at, seq) order up to
  // `deadline`. Scope ids must be distinct.
  ConvergenceStats run_channels(std::span<const std::uint32_t> scope,
                                bool full, net::SimTime deadline);

  // Removes queued messages for `prefix` crossing the (a, b) session in
  // either direction (they died with the session).
  void drop_in_flight(net::Asn a, net::Asn b, const net::Prefix& prefix);

  net::SimTime edge_delay(net::Asn from, net::Asn to, const net::Prefix& prefix,
                          std::uint32_t flow_index) const;

  net::SimClock clock_;
  std::uint64_t seed_;
  PathTable paths_;  // must outlive speakers_ (they hold a pointer to it)
  RibStore rib_;     // likewise
  std::vector<std::unique_ptr<Speaker>> speakers_;  // stable addresses
  net::FlatMap<net::Asn, std::size_t> index_;

  // Per-prefix message channels (see Channel above; ids index rib_'s
  // slots, and a slot without a channel yet has nothing queued) plus the
  // prefixes
  // explicitly perturbed since they last drained. The effective dirty set
  // is dirty_ ∪ {prefixes with non-empty channels}: a mutation whose
  // flush emitted nothing still shows up (trivially converged), and
  // messages deferred past a run_until deadline stay dirty without any
  // bookkeeping on the enqueue hot path.
  std::vector<Channel> channels_;
  std::size_t total_pending_ = 0;
  net::FlatSet<net::Prefix> dirty_;
  std::uint64_t next_seq_ = 0;

  // Active-head heap + scratch, live only inside run_channels.
  std::priority_queue<ActiveHead, std::vector<ActiveHead>, HeadLaterFirst>
      active_;
  std::vector<std::uint32_t> touched_channels_;
  bool run_active_ = false;  // enqueue feeds active_ only during a run
  RoundObserver round_observer_;  // round-boundary hook (see setter)

  net::FlatSet<net::Asn> collector_peers_;
  // By dense speaker index: 1 if the speaker feeds a collector, so the
  // delivery path tests membership without hashing.
  std::vector<std::uint8_t> feeds_collector_;
  UpdateLog log_;

  std::vector<PendingMessage> round_;  // current round, seq order (scratch)

  // Bumped by restore(): channel epochs are rebuilt from scratch there,
  // so the generation keeps prefix_epoch() values from ever repeating
  // across a rewind (see prefix_epoch above).
  std::uint64_t restore_generation_ = 0;
};

// The captured state. Holds plain copies of the speakers' own state, the
// queue and the collector log; AS paths and prefix columns are shared.
// Forks created from one snapshot — and the network that produced it —
// all point at the same immutable path arena, extending it privately and
// append-only, and at the same immutable columns, cloning one only when
// they first write it.
struct BgpNetwork::Snapshot {
  std::uint64_t seed = 0;
  net::SimTime now = 0;
  std::shared_ptr<const PathTable::Frozen> paths;
  std::vector<Speaker::Snapshot> speakers;  // in add_speaker order
  std::vector<PendingMessage> queue;        // sorted by (deliver_at, seq)
  std::uint64_t next_seq = 0;
  // Prefix slots and their columns (null: nothing written yet).
  std::vector<net::Prefix> prefixes;
  std::vector<RibStore::Handle> columns;
  net::FlatSet<net::Asn> collector_peers;
  UpdateLog log;

  // A new network in exactly this state, sharing the frozen path arena
  // with every sibling fork. Safe to call concurrently from multiple
  // threads on one snapshot (the snapshot is never mutated).
  std::unique_ptr<BgpNetwork> fork() const;

  // Canonical little-endian serialization (sorted map walks, paths in id
  // order), so equal states produce equal bytes.
  void encode(net::BinaryWriter& writer) const;
  static Snapshot decode(net::BinaryReader& reader);

  // Hash of the canonical serialization.
  std::uint64_t digest() const;
};

// The name the experiment layer uses (see core/experiment.h).
using NetworkSnapshot = BgpNetwork::Snapshot;

}  // namespace re::bgp
