// BgpNetwork checkpoint/fork engine (see the Snapshot declaration in
// network.h and DESIGN.md §5d).
//
// A checkpoint freezes the network's PathTable into an immutable shared
// base, shares every prefix column (RIBs, per-edge FIFO clamps and
// duplicate suppression) copy-on-write, and copies the remaining live
// state: speaker sessions and policies, the in-flight message queue and
// the collector log. Forks restore that state into fresh networks that
// extend the shared arena privately and clone a column only when they
// first write it, so N variant runs off one converged baseline cost one
// baseline convergence plus N deltas.
//
// Serialization is canonical: maps are walked in sorted key order and the
// path table is written in id order, so equal states produce equal bytes
// and the digest doubles as the fork-vs-fresh bit-identity check. The
// prefix-major columns are written network-wide (each speaker's RIB in
// prefix order, each per-edge table in (from, to, prefix) order), so the
// bytes do not depend on how the columns are sliced or ordered in memory.

#include <algorithm>
#include <memory>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "bgp/network.h"
#include "netbase/binio.h"
#include "netbase/fnv1a.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace re::bgp {

std::vector<BgpNetwork::PendingMessage> BgpNetwork::sorted_queue() const {
  // Gather in-flight messages across all per-prefix channels, then order
  // them globally by (time, seq) — the same canonical order the old
  // single-queue engine drained a copy in, so the encode format (and
  // therefore every digest) is unchanged by the channel partition.
  std::vector<PendingMessage> queue;
  queue.reserve(total_pending_);
  for (const Channel& channel : channels_) {
    auto queue_copy = channel.queue;
    while (!queue_copy.empty()) {
      queue.push_back(queue_copy.top());
      queue_copy.pop();
    }
  }
  std::sort(queue.begin(), queue.end(),
            [](const PendingMessage& a, const PendingMessage& b) {
              return std::tie(a.deliver_at, a.seq) <
                     std::tie(b.deliver_at, b.seq);
            });
  return queue;
}

BgpNetwork::Snapshot BgpNetwork::checkpoint() {
  RE_SPAN("snapshot.checkpoint");
  Snapshot snap;
  snap.seed = seed_;
  snap.now = clock_.now();
  snap.paths = paths_.freeze();
  snap.speakers.reserve(speakers_.size());
  for (const auto& speaker : speakers_) {
    snap.speakers.push_back(speaker->snapshot());
  }
  snap.queue = sorted_queue();
  snap.next_seq = next_seq_;
  rib_.share(snap.prefixes, snap.columns);
  snap.collector_peers = collector_peers_;
  snap.log = log_;
  static auto& checkpoints = obs::registry().counter("snapshot.checkpoints");
  checkpoints.add();
  return snap;
}

void BgpNetwork::restore(const Snapshot& snap) {
  RE_SPAN("snapshot.restore");
  seed_ = snap.seed;
  clock_ = net::SimClock(snap.now);
  paths_ = PathTable(snap.paths);
  rib_.assign(snap.prefixes, snap.columns);
  speakers_.clear();
  index_.clear();
  feeds_collector_.clear();
  // Cleared first, so add_speaker below looks nothing up in it; the flags
  // are set from the snapshot's (small) peer set afterwards.
  collector_peers_.clear();
  reserve_topology(snap.speakers.size());
  for (const Speaker::Snapshot& speaker : snap.speakers) {
    add_speaker(speaker.asn).restore(speaker);
  }
  collector_peers_ = snap.collector_peers;
  // 4x headroom, as in add_collector_peer.
  collector_peers_.reserve(4 * collector_peers_.size());
  for (const net::Asn peer : collector_peers_) {
    if (const std::size_t* idx = index_.find_concurrent(peer)) {
      feeds_collector_[*idx] = 1;
    }
  }
  channels_.clear();
  channels_.resize(rib_.size());
  total_pending_ = 0;
  active_ = {};
  run_active_ = false;
  // Channel epochs restart at zero below; the generation bump keeps every
  // post-restore prefix_epoch() distinct from every pre-restore one, so a
  // compiled FIB never mistakes the rewound state for its cached one.
  ++restore_generation_;
  // No explicit dirty carry-over: everything queued is implicitly dirty
  // (run_dirty_to_convergence scans non-empty channels), and a fork's
  // first mutation re-seeds the explicit set.
  dirty_.clear();
  for (const PendingMessage& msg : snap.queue) {
    channels_[channel_for(msg.update.prefix)].queue.push(msg);
    ++total_pending_;
  }
  next_seq_ = snap.next_seq;
  log_ = snap.log;
}

std::uint64_t BgpNetwork::prefix_state_digest(const net::Prefix& prefix) const {
  // Canonical *content* encoding of everything the network knows about one
  // prefix: per-speaker RIB/damping/failure state, per-edge send history
  // and FIFO clamps, in-flight messages, and the collector-log slice. AS
  // paths are written as ASN sequences, never PathIds, and global message
  // seqs are omitted: intern order and seq values legitimately differ
  // between a full run and a scoped run that deferred other prefixes'
  // churn, while per-prefix content and relative order do not (per-prefix
  // state independence — DESIGN.md §5e). This is the equivalence gate for
  // deferred catch-up; same-schedule runs can use the stricter
  // state_digest. The bytes are hashed record by record (one speaker, one
  // edge table, the queue, the log slice), never held whole.
  net::Fnv1a hash;
  net::BinaryWriter w;
  const auto fold = [&] {
    hash.add(w.bytes());
    w.clear();
  };
  w.u32(prefix.network().value());
  w.u8(prefix.length());

  w.u64(speakers_.size());
  fold();
  for (const auto& speaker : speakers_) {  // insertion order: topology order
    speaker->encode_prefix_state(prefix, w);
    fold();
  }

  // Per-edge state, each table in (from, to) order.
  const PrefixColumn* column = rib_.column(prefix);
  const auto encode_path_contents = [&](PathId id) {
    const auto path = paths_.span(id);
    w.u64(path.size());
    for (const net::Asn hop : path) w.u32(hop.value());
  };
  const auto encode_sent = [&](std::uint64_t key, const SentState& sent) {
    w.u32(edge_from(key).value());
    w.u32(edge_to(key).value());
    w.boolean(sent.withdrawn);
    if (!sent.withdrawn) encode_path_contents(sent.path);
    w.u8(static_cast<std::uint8_t>(sent.origin));
  };
  if (column == nullptr) {
    w.u64(0);  // sent
    w.u64(0);  // collector_sent
    w.u64(0);  // edge_flow
  } else {
    // The sent and flow tables are the edge entries that have each part.
    const auto edges = net::sorted_by_key(column->edges);
    std::uint64_t sent_rows = 0, flow_rows = 0;
    for (const auto* kv : edges) {
      sent_rows += kv->second.has_sent;
      flow_rows += kv->second.has_flow;
    }
    w.u64(sent_rows);
    for (const auto* kv : edges) {
      if (kv->second.has_sent) encode_sent(kv->first, kv->second.sent);
    }
    fold();
    w.u64(column->collector_sent.size());
    for (const auto* kv : net::sorted_by_key(column->collector_sent)) {
      encode_sent(edge_key(kv->first, net::Asn{}), kv->second);
    }
    fold();
    w.u64(flow_rows);
    for (const auto* kv : edges) {
      if (!kv->second.has_flow) continue;
      w.u32(edge_from(kv->first).value());
      w.u32(edge_to(kv->first).value());
      w.i64(kv->second.last_delivery);
      w.u32(kv->second.messages);
    }
  }
  fold();

  // In-flight messages, in (deliver_at, seq) order but with the seq values
  // themselves omitted — per-prefix relative order is run-invariant, the
  // absolute seqs are not.
  if (const std::uint32_t id = rib_.find_slot(prefix); id < channels_.size()) {
    auto queue_copy = channels_[id].queue;
    w.u64(queue_copy.size());
    while (!queue_copy.empty()) {
      const PendingMessage& msg = queue_copy.top();
      w.i64(msg.deliver_at);
      w.u32(msg.from.value());
      w.u32(msg.to.value());
      w.boolean(msg.update.withdraw);
      if (!msg.update.withdraw) encode_path_contents(msg.update.path);
      w.u8(static_cast<std::uint8_t>(msg.update.origin));
      w.u32(msg.update.med);
      w.boolean(msg.update.re_only);
      queue_copy.pop();
    }
  } else {
    w.u64(0);
  }
  fold();

  // Collector-log slice for the prefix, in record order.
  for (const CollectorUpdate& update : log_.updates()) {
    if (update.prefix != prefix) continue;
    w.i64(update.time);
    w.u32(update.peer.value());
    w.boolean(update.withdraw);
    const auto path = log_.path_span(update);
    w.u64(path.size());
    for (const net::Asn hop : path) w.u32(hop.value());
  }
  fold();
  return hash.finish();
}

std::unique_ptr<BgpNetwork> BgpNetwork::Snapshot::fork() const {
  RE_SPAN("snapshot.fork");
  auto network = std::make_unique<BgpNetwork>(seed);
  network->restore(*this);
  return network;
}

namespace {

void encode_prefix(net::BinaryWriter& w, const net::Prefix& prefix) {
  w.u32(prefix.network().value());
  w.u8(prefix.length());
}
net::Prefix decode_prefix(net::BinaryReader& r) {
  const std::uint32_t network = r.u32();
  return net::Prefix(net::IPv4Address(network), r.u8());
}

void encode_update(net::BinaryWriter& w, const UpdateMessage& update) {
  encode_prefix(w, update.prefix);
  w.boolean(update.withdraw);
  w.u32(update.path.value());
  w.u8(static_cast<std::uint8_t>(update.origin));
  w.u32(update.med);
  w.boolean(update.re_only);
}
UpdateMessage decode_update(net::BinaryReader& r) {
  UpdateMessage update;
  update.prefix = decode_prefix(r);
  update.withdraw = r.boolean();
  update.path = PathId{r.u32()};
  update.origin = static_cast<Origin>(r.u8());
  update.med = r.u32();
  update.re_only = r.boolean();
  return update;
}

void encode_sent_state(net::BinaryWriter& w, const SentState& sent) {
  w.boolean(sent.withdrawn);
  w.u32(sent.path.value());
  w.u8(static_cast<std::uint8_t>(sent.origin));
}

// One row of a per-edge table in the network-wide encoding.
template <typename T>
struct EdgeRow {
  std::uint64_t edge;  // edge_key(from, to)
  net::Prefix prefix;
  const T* value;
};

template <typename T, typename EncodeValue>
void encode_edge_rows(net::BinaryWriter& w, std::vector<EdgeRow<T>>& rows,
                      EncodeValue encode_value) {
  std::sort(rows.begin(), rows.end(),
            [](const EdgeRow<T>& a, const EdgeRow<T>& b) {
              return std::tie(a.edge, a.prefix) < std::tie(b.edge, b.prefix);
            });
  w.u64(rows.size());
  for (const EdgeRow<T>& row : rows) {
    w.u32(edge_from(row.edge).value());
    w.u32(edge_to(row.edge).value());
    encode_prefix(w, row.prefix);
    encode_value(w, *row.value);
  }
}

}  // namespace

// What the canonical encoding reads: a snapshot's state or a live
// network's, through the same fields.
struct BgpNetwork::EncodeView {
  std::uint64_t seed = 0;
  net::SimTime now = 0;
  std::uint64_t next_seq = 0;
  const PathTable& paths;
  std::span<const Speaker::Snapshot> speakers;
  std::span<const PendingMessage> queue;         // (deliver_at, seq) order
  std::span<const RibStore::Handle> columns;     // any order; null skipped
  const net::FlatSet<net::Asn>& collector_peers;
  const UpdateLog& log;
};

void BgpNetwork::encode_state(net::BinaryWriter& w, const EncodeView& v) {
  w.u64(v.seed);
  w.i64(v.now);
  w.u64(v.next_seq);

  // Path table in id order; decode re-interns in the same order, so every
  // PathId below serializes as a raw u32. Id 0 (the empty path) is
  // implicit.
  w.u64(v.paths.size());
  for (std::uint32_t id = 1; id < v.paths.size(); ++id) {
    const auto path = v.paths.span(PathId{id});
    w.u64(path.size());
    for (const net::Asn hop : path) w.u32(hop.value());
  }

  std::vector<const PrefixColumn*> columns;
  columns.reserve(v.columns.size());
  for (const RibStore::Handle& column : v.columns) {
    if (column != nullptr) columns.push_back(column.get());
  }
  std::sort(columns.begin(), columns.end(),
            [](const PrefixColumn* a, const PrefixColumn* b) {
              return a->prefix < b->prefix;
            });

  // Each speaker's record carries its RIB in prefix order.
  w.u64(v.speakers.size());
  std::vector<const PrefixState*> rib;
  for (std::uint32_t i = 0; i < v.speakers.size(); ++i) {
    rib.clear();
    for (const PrefixColumn* column : columns) {
      if (const PrefixState* state = column->state(i)) rib.push_back(state);
    }
    v.speakers[i].encode(w, rib);
  }

  w.u64(v.queue.size());
  for (const PendingMessage& msg : v.queue) {
    w.i64(msg.deliver_at);
    w.u64(msg.seq);
    w.u32(msg.from.value());
    w.u32(msg.to.value());
    encode_update(w, msg.update);
  }

  // The per-edge tables, each written as one network-wide table sorted by
  // (from, to, prefix); collector feeds are edges (peer, AS 0). The flow
  // and sent tables are the edge entries that have each part.
  std::vector<EdgeRow<EdgeState>> flows;
  std::vector<EdgeRow<EdgeState>> sent;
  std::vector<EdgeRow<SentState>> collector_sent;
  for (const PrefixColumn* column : columns) {
    for (const auto& [key, edge] : column->edges) {
      if (edge.has_flow) flows.push_back({key, column->prefix, &edge});
      if (edge.has_sent) sent.push_back({key, column->prefix, &edge});
    }
    for (const auto& [peer, state] : column->collector_sent) {
      collector_sent.push_back(
          {edge_key(peer, net::Asn{}), column->prefix, &state});
    }
  }
  encode_edge_rows(w, flows, [](net::BinaryWriter& out, const EdgeState& edge) {
    out.i64(edge.last_delivery);
    out.u32(edge.messages);
  });
  encode_edge_rows(w, sent, [](net::BinaryWriter& out, const EdgeState& edge) {
    encode_sent_state(out, edge.sent);
  });

  {
    std::vector<net::Asn> peers;
    peers.reserve(v.collector_peers.size());
    for (const net::Asn peer : v.collector_peers) peers.push_back(peer);
    std::sort(peers.begin(), peers.end());
    w.u64(peers.size());
    for (const net::Asn peer : peers) w.u32(peer.value());
  }
  encode_edge_rows(w, collector_sent, encode_sent_state);

  v.log.encode(w);
}

BgpNetwork::Snapshot BgpNetwork::Snapshot::decode(net::BinaryReader& r) {
  Snapshot snap;
  snap.seed = r.u64();
  snap.now = r.i64();
  snap.next_seq = r.u64();

  {
    PathTable table;
    const std::uint64_t path_count = r.length(std::uint64_t{1} << 32);
    std::vector<net::Asn> scratch;
    for (std::uint64_t id = 1; id < path_count; ++id) {
      const std::uint64_t len = r.length(1u << 20);
      scratch.clear();
      scratch.reserve(len);
      for (std::uint64_t i = 0; i < len; ++i) {
        scratch.push_back(net::Asn{r.u32()});
      }
      table.intern(scratch);  // id order reproduces ids exactly
    }
    snap.paths = table.freeze();
  }

  // Prefix columns are rebuilt as their rows arrive; the slot order is
  // first appearance (slot ids carry no meaning across a codec trip). Each
  // column holds one slot per speaker record, so it costs speakers x
  // sizeof(PrefixState) whatever the input says about it, and N speakers
  // holding one prefix each would allocate O(N^2) from O(N) bytes. A
  // column is therefore made only while all of them together stay within
  // kMaxSlotBytesPerInputByte per input byte. Converged snapshots use
  // under 1 (0.45 for a scale-0.03 full-RIB baseline); one stopped while
  // its first 8 prefixes were still spreading uses 4.2.
  constexpr std::uint64_t kMaxSlotBytesPerInputByte = 16;
  const std::uint64_t speaker_count = r.length(1u << 24);
  net::FlatMap<net::Prefix, std::uint32_t> slot_of;
  std::vector<std::shared_ptr<PrefixColumn>> columns;
  const auto column_for = [&](const net::Prefix& prefix) -> PrefixColumn* {
    if (const std::uint32_t* slot = slot_of.find_concurrent(prefix)) {
      return columns[*slot].get();
    }
    const std::uint64_t slot_bytes =
        (columns.size() + 1) * speaker_count * sizeof(PrefixState);
    if (slot_bytes > kMaxSlotBytesPerInputByte * r.size()) {
      r.fail();
      return nullptr;
    }
    slot_of.insert({prefix, static_cast<std::uint32_t>(columns.size())});
    auto column = std::make_shared<PrefixColumn>();
    column->prefix = prefix;
    column->resize(static_cast<std::uint32_t>(speaker_count));
    columns.push_back(std::move(column));
    return columns.back().get();
  };

  std::vector<PrefixState> rib;
  for (std::uint32_t i = 0; i < speaker_count && !r.failed(); ++i) {
    rib.clear();
    snap.speakers.push_back(Speaker::Snapshot::decode(r, rib));
    for (PrefixState& state : rib) {
      PrefixColumn* column = column_for(state.prefix);
      if (column == nullptr) break;
      column->emplace(i) = std::move(state);
    }
  }
  // Dense speaker indices are not encoded. restore() numbers speakers in
  // record order (an ASN seen again keeps its first index); every session
  // and queued message is pointed at its neighbor's number here.
  net::FlatMap<net::Asn, std::uint32_t> index_of;
  index_of.reserve(2 * snap.speakers.size());
  for (const Speaker::Snapshot& speaker : snap.speakers) {
    index_of.insert(
        {speaker.asn, static_cast<std::uint32_t>(index_of.size())});
  }
  const auto index_for = [&](net::Asn asn) {
    const std::uint32_t* idx = index_of.find_concurrent(asn);
    return idx == nullptr ? Session::kNoIndex : *idx;
  };
  for (Speaker::Snapshot& speaker : snap.speakers) {
    for (Session& session : speaker.sessions) {
      session.neighbor_index = index_for(session.neighbor);
    }
  }

  const std::uint64_t queue_count = r.length(std::uint64_t{1} << 32);
  for (std::uint64_t i = 0; i < queue_count && !r.failed(); ++i) {
    PendingMessage msg;
    msg.deliver_at = r.i64();
    msg.seq = r.u64();
    msg.from = net::Asn{r.u32()};
    msg.to = net::Asn{r.u32()};
    msg.to_index = index_for(msg.to);
    msg.update = decode_update(r);
    snap.queue.push_back(msg);
  }

  // Reads one per-edge table, handing each row's prefix column, edge key
  // and reader position to `decode_value`.
  const auto decode_rows = [&](auto decode_value) {
    const std::uint64_t count = r.length(std::uint64_t{1} << 32);
    for (std::uint64_t i = 0; i < count && !r.failed(); ++i) {
      const net::Asn from{r.u32()};
      const net::Asn to{r.u32()};
      PrefixColumn* column = column_for(decode_prefix(r));
      if (column == nullptr) break;
      decode_value(*column, edge_key(from, to));
    }
  };
  const auto decode_sent = [&] {
    SentState state;
    state.withdrawn = r.boolean();
    state.path = PathId{r.u32()};
    state.origin = static_cast<Origin>(r.u8());
    return state;
  };
  decode_rows([&](PrefixColumn& column, std::uint64_t key) {
    EdgeState& edge = column.edges[key];
    edge.last_delivery = r.i64();
    edge.messages = r.u32();
    edge.has_flow = true;
  });
  decode_rows([&](PrefixColumn& column, std::uint64_t key) {
    EdgeState& edge = column.edges[key];
    edge.sent = decode_sent();
    edge.has_sent = true;
  });

  const std::uint64_t peer_count = r.length(1u << 24);
  for (std::uint64_t i = 0; i < peer_count && !r.failed(); ++i) {
    snap.collector_peers.insert(net::Asn{r.u32()});
  }
  decode_rows([&](PrefixColumn& column, std::uint64_t edge) {
    column.collector_sent.insert_or_assign(edge_from(edge), decode_sent());
  });

  snap.log = UpdateLog::decode(r);

  snap.prefixes.reserve(columns.size());
  snap.columns.reserve(columns.size());
  for (auto& column : columns) {
    snap.prefixes.push_back(column->prefix);
    snap.columns.push_back(std::move(column));  // owner 0: no store's
  }
  return snap;
}

std::uint64_t BgpNetwork::state_digest() const {
  std::vector<Speaker::Snapshot> speakers;
  speakers.reserve(speakers_.size());
  for (const auto& speaker : speakers_) speakers.push_back(speaker->snapshot());
  const std::vector<PendingMessage> queue = sorted_queue();
  net::BinaryWriter w;
  encode_state(w, EncodeView{seed_, clock_.now(), next_seq_, paths_, speakers,
                             queue, rib_.columns(), collector_peers_, log_});
  return net::Fnv1a{}.add(w.bytes()).finish();
}

void BgpNetwork::Snapshot::encode(net::BinaryWriter& w) const {
  const PathTable table(paths);
  encode_state(w, EncodeView{seed, now, next_seq, table, speakers, queue,
                             columns, collector_peers, log});
}

std::uint64_t BgpNetwork::Snapshot::digest() const {
  net::BinaryWriter w;
  encode(w);
  return net::Fnv1a{}.add(w.bytes()).finish();
}

}  // namespace re::bgp
