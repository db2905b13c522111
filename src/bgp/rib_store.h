// Prefix-major RIB storage with copy-on-write columns.
//
// All per-prefix BGP state lives in one place: a PrefixColumn per prefix
// slot. A column holds every speaker's PrefixState for the prefix (Adj-RIB-
// In as a vector sorted by neighbor, Loc-RIB best, origination, and an
// out-of-line damping table), dense by speaker index: one slot per speaker
// of the network plus a presence bit, because nearly every prefix reaches
// nearly every speaker. It also holds the prefix's per-directed-edge state
// in one map: what was last sent on each edge (duplicate suppression) and
// the edge's FIFO clamp and jitter counter; and what each collector feed
// last recorded. Slot ids are the network's channel ids, so clearing a
// prefix drops one column.
//
// A RibStore holds its columns through shared handles, which is what makes
// checkpoint/fork cheap: a snapshot copies the handle vector (one pointer
// per prefix), and every fork starts from the same columns. The first
// write to a column in a store clones that column alone, so a warm trial
// pays for the prefixes it touches, not for the whole RIB.
//
// Whether a write may happen in place is decided by an ownership stamp,
// never by shared_ptr::use_count() (a relaxed read that orders nothing
// against sibling forks reading the column on other threads). Every store
// carries a process-unique stamp; a column records the stamp of the store
// that created it and is written in place only under that same stamp.
// share() (checkpoint) and assign() (restore) move the store to a fresh
// stamp, so every column it held becomes read-only for everyone. A column
// is therefore immutable from the moment any second holder can see it,
// and concurrent forks read shared columns without synchronization (all
// read paths are plain loads or the stat-free FlatMap::find_concurrent).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "bgp/damping.h"
#include "bgp/decision.h"
#include "bgp/path_table.h"
#include "bgp/route.h"
#include "netbase/asn.h"
#include "netbase/clock.h"
#include "netbase/flat_map.h"
#include "netbase/prefix.h"

namespace re::bgp {

// Per-prefix options controlling how the *origin* announces it.
struct OriginationOptions {
  bool to_re_sessions = true;
  bool to_commodity_sessions = true;
  // Announcement carries the R&E-fabric-only scope (see Route::re_only).
  bool re_only = false;
};

// One speaker's state for one prefix. Kept small (see the static_assert
// below): every slot of a column pays sizeof(PrefixState), present or not,
// and a warm fork clones every slot of each column it writes.
struct PrefixState {
  net::Prefix prefix;
  // One route per neighbor that currently advertises the prefix to us,
  // strictly ascending by learned_from: the order the decision process
  // folds its candidates in, so it can read them in place.
  std::vector<Route> in;
  bool local = false;
  OriginationOptions origination;
  DecisionStep decided_by = DecisionStep::kOnlyRoute;
  net::SimTime local_since = 0;
  std::optional<Route> best;
  DampingTable damping;  // out of line, null until the first penalty
};
static_assert(sizeof(PrefixState) <= 136,
              "every column slot pays sizeof(PrefixState), present or not");

// What was last sent on a directed edge for a prefix (announce content or
// withdrawal), to suppress duplicate updates.
struct SentState {
  bool withdrawn = true;
  Origin origin = Origin::kIgp;
  PathId path;
};

// Everything one column keeps per directed edge: the last update sent on
// it (has_sent), and its flow state (has_flow): the FIFO clamp (BGP runs
// over TCP — an update for a prefix never overtakes an earlier one on the
// same session) and the message counter that keys the stateless jitter.
// A failed session forgets what was sent but keeps the flow.
struct EdgeState {
  net::SimTime last_delivery = 0;
  std::uint32_t messages = 0;
  SentState sent;
  bool has_sent = false;
  bool has_flow = false;
};
static_assert(sizeof(EdgeState) <= 24,
              "one EdgeState per (edge, prefix) the prefix ever crossed");

// A directed edge (from, to) packed so that key order is (from, to) order.
inline std::uint64_t edge_key(net::Asn from, net::Asn to) noexcept {
  return (std::uint64_t{from.value()} << 32) | to.value();
}
inline net::Asn edge_from(std::uint64_t key) noexcept {
  return net::Asn{static_cast<std::uint32_t>(key >> 32)};
}
inline net::Asn edge_to(std::uint64_t key) noexcept {
  return net::Asn{static_cast<std::uint32_t>(key)};
}

struct PrefixColumn {
  net::Prefix prefix;
  // Stamp of the store allowed to write this column in place.
  std::uint64_t owner = 0;
  // Speaker state by dense speaker index, one slot per speaker; bit i of
  // `present` says whether states[i] holds a state (an absent slot holds a
  // default PrefixState).
  std::vector<PrefixState> states;
  std::vector<std::uint64_t> present;
  // Per-directed-edge state by edge_key(from, to).
  net::FlatMap<std::uint64_t, EdgeState> edges;
  // Collector-feed state by feeding peer.
  net::FlatMap<net::Asn, SentState> collector_sent;

  // Read-only lookup, safe on a column shared across threads.
  const PrefixState* state(std::uint32_t speaker) const noexcept {
    return has(speaker) ? &states[speaker] : nullptr;
  }
  bool has(std::uint32_t speaker) const noexcept {
    return speaker < states.size() &&
           ((present[speaker / 64] >> (speaker % 64)) & 1) != 0;
  }
  // Grows the column to at least `speakers` slots.
  void resize(std::uint32_t speakers);
  // The speaker's state, default-created (growing the column) if absent.
  PrefixState& emplace(std::uint32_t speaker);
  // Resets the speaker's slot to a default, absent state.
  void erase(std::uint32_t speaker);
};

class RibStore {
 public:
  using Handle = std::shared_ptr<const PrefixColumn>;
  static constexpr std::uint32_t kNoSlot = static_cast<std::uint32_t>(-1);

  RibStore() : stamp_(fresh_stamp()) {}
  RibStore(const RibStore&) = delete;
  RibStore& operator=(const RibStore&) = delete;

  // --- Slots ----------------------------------------------------------------

  // The slot of `prefix`, created (with no column yet) on first use. Slot
  // ids are dense and stable until the next assign().
  std::uint32_t slot(const net::Prefix& prefix);
  // The slot of `prefix` or kNoSlot. Stat-free: safe for concurrent readers.
  std::uint32_t find_slot(const net::Prefix& prefix) const noexcept {
    const std::uint32_t* slot = index_.find_concurrent(prefix);
    return slot == nullptr ? kNoSlot : *slot;
  }
  std::size_t size() const noexcept { return prefixes_.size(); }
  const net::Prefix& prefix(std::uint32_t slot) const noexcept {
    return prefixes_[slot];
  }
  // The network's speaker count: the slots a column is created with.
  void set_speakers(std::uint32_t count) noexcept { speakers_ = count; }

  // --- Columns --------------------------------------------------------------

  // The slot's column, or nullptr when nothing was written to it.
  const PrefixColumn* column(std::uint32_t slot) const noexcept {
    return columns_[slot].get();
  }
  const PrefixColumn* column(const net::Prefix& prefix) const noexcept {
    const std::uint32_t slot = find_slot(prefix);
    return slot == kNoSlot ? nullptr : column(slot);
  }
  // The slot's column for writing: created if absent, cloned first if this
  // store does not own it (see the header comment).
  PrefixColumn& write(std::uint32_t slot);
  // Forgets the slot's column (the slot itself stays).
  void drop(std::uint32_t slot) { columns_[slot].reset(); }
  // Every slot's column handle (null: none yet).
  const std::vector<Handle>& columns() const noexcept { return columns_; }

  // --- One speaker's state --------------------------------------------------

  const PrefixState* state(std::uint32_t speaker,
                           const net::Prefix& prefix) const noexcept {
    const PrefixColumn* col = column(prefix);
    return col == nullptr ? nullptr : col->state(speaker);
  }
  // The speaker's state for writing, or nullptr (and no clone) if absent.
  PrefixState* find_for_write(std::uint32_t speaker, const net::Prefix& prefix);
  // The speaker's state for writing, default-created if absent.
  PrefixState& state_for_write(std::uint32_t speaker, const net::Prefix& prefix);
  void erase(std::uint32_t speaker, const net::Prefix& prefix);

  // --- Checkpoint/fork ------------------------------------------------------

  // Hands out the slot list and column handles, and moves this store to a
  // fresh stamp so none of those columns is ever written in place again.
  void share(std::vector<net::Prefix>& prefixes, std::vector<Handle>& columns);
  // Replaces the contents with shared columns (slot i holds columns[i] for
  // prefixes[i]) under a fresh stamp.
  void assign(const std::vector<net::Prefix>& prefixes,
              const std::vector<Handle>& columns);

  const net::FlatMap<net::Prefix, std::uint32_t>::ProbeStats& probe_stats()
      const noexcept {
    return index_.probe_stats();
  }

 private:
  static std::uint64_t fresh_stamp();

  net::FlatMap<net::Prefix, std::uint32_t> index_;
  std::vector<net::Prefix> prefixes_;  // slot -> prefix
  std::vector<Handle> columns_;        // slot -> column (null: none yet)
  std::uint64_t stamp_;
  std::uint32_t speakers_ = 0;
  std::uint32_t last_slot_ = kNoSlot;  // slot() one-entry cache
};

}  // namespace re::bgp
