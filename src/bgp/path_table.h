// Hash-consed AS-path interning.
//
// Every UpdateMessage, queued PendingMessage, SentState and Adj-RIB-In
// Route used to carry its own heap-allocated std::vector<Asn> copy of the
// AS path, so the propagation hot loop was dominated by malloc/free and
// memcpy rather than the decision process. A PathTable deduplicates path
// contents into one contiguous arena and hands out dense 32-bit PathIds:
// copying a route or queuing a message copies four bytes, path equality
// is an id compare, and length/first/origin are O(1) table reads.
//
// PathId 0 is always the empty path. Ids are assigned in first-intern
// order and are never invalidated — the lookup table rehashes, the
// entries never move (id stability is what lets ids live inside queued
// messages and RIB entries across arbitrary interleavings). A table is
// owned by one BgpNetwork and shared by its speakers; ids from different
// tables must never be mixed (same discipline as arena indices).
//
// Checkpoint/fork support: freeze() seals the table's current contents
// into an immutable, shared Frozen base and rebases the live table on it.
// Forked tables (PathTable(frozen)) start from the same base and extend
// it with a private local arena, so a fork's path state is O(new paths),
// not O(history): the baseline's interned paths — the bulk of any
// experiment's arena — are one shared allocation across every fork. Ids
// below the base count resolve through the base, ids at or above it
// through the local extension; id assignment order (and therefore every
// id) is identical to a never-frozen table, which is what keeps forked
// runs bit-identical to fresh ones.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bgp/as_path.h"
#include "netbase/asn.h"

namespace re::bgp {

// A handle to an interned AS path. Default-constructed = the empty path.
class PathId {
 public:
  constexpr PathId() noexcept = default;
  constexpr explicit PathId(std::uint32_t value) noexcept : value_(value) {}

  constexpr std::uint32_t value() const noexcept { return value_; }
  constexpr bool is_empty_path() const noexcept { return value_ == 0; }

  friend constexpr auto operator<=>(PathId, PathId) noexcept = default;

 private:
  std::uint32_t value_ = 0;
};

class PathTable {
 public:
  // An immutable sealed prefix of a table's contents, shared (via
  // shared_ptr) between the table that froze it and every fork created
  // from it. Entries/arena/slots never change after freeze(), so
  // concurrent forks read it without synchronization.
  struct Frozen;

  PathTable();

  // A table whose contents start as `base` (ids [0, base->entries count)
  // resolve through the shared base); new interns extend it locally.
  // A null base is equivalent to the default constructor.
  explicit PathTable(std::shared_ptr<const Frozen> base);

  // Seals the current contents (base + local extension merged) into a
  // Frozen, rebases *this* table onto it (local extension becomes empty;
  // every id keeps its value), and returns it. When nothing was interned
  // since the last freeze, returns the existing base without copying.
  std::shared_ptr<const Frozen> freeze();

  // Ids below this resolve through the shared frozen base.
  std::size_t frozen_count() const noexcept { return base_count_; }
  // Bytes held by the shared frozen base (0 for a never-frozen table).
  std::size_t frozen_bytes() const noexcept;

  // Interns `asns`, returning the id of the canonical copy. O(len) hash +
  // compare on hit; appends to the arena on miss.
  PathId intern(std::span<const net::Asn> asns);
  PathId intern(const AsPath& path) { return intern(path.asns()); }

  // The id of `id`'s path with `asn` prepended `copies` times — the
  // export-side prepend as an intern-on-miss table op (no AsPath
  // temporaries; the candidate is staged in a reused scratch buffer).
  PathId prepended(PathId id, net::Asn asn, std::size_t copies = 1);

  // The interned contents. Valid until the next intern (arena growth may
  // reallocate; frozen-base contents are stable for the base's lifetime),
  // so consume before interning again — same contract as std::vector
  // data().
  std::span<const net::Asn> span(PathId id) const noexcept;

  std::size_t length(PathId id) const noexcept;
  bool empty(PathId id) const noexcept { return length(id) == 0; }

  // First element (the AS adjacent to the receiver) / last element (the
  // origin AS); invalid Asn for the empty path.
  net::Asn first(PathId id) const noexcept {
    const auto asns = span(id);
    return asns.empty() ? net::Asn{} : asns.front();
  }
  net::Asn origin(PathId id) const noexcept {
    const auto asns = span(id);
    return asns.empty() ? net::Asn{} : asns.back();
  }

  // Loop detection over the arena span — no temporaries, no indirection.
  bool contains(PathId id, net::Asn asn) const noexcept;
  std::size_t count(PathId id, net::Asn asn) const noexcept;
  std::size_t unique_count(PathId id) const;

  // Materializes an owning AsPath (for analyses and serialization; not
  // for the hot path).
  AsPath path(PathId id) const { return AsPath(to_vector(id)); }
  std::string to_string(PathId id) const;

  // Number of distinct interned paths (including the empty path).
  std::size_t size() const noexcept { return base_count_ + entries_.size(); }
  // Bytes backing the interned contents (local arena capacity plus the
  // shared frozen base, when any).
  std::size_t arena_bytes() const noexcept {
    return arena_.capacity() * sizeof(net::Asn) +
           entries_.capacity() * sizeof(Entry) +
           slots_.capacity() * sizeof(std::uint32_t) + frozen_bytes();
  }

 private:
  struct Entry {
    std::uint32_t offset = 0;
    std::uint32_t length = 0;
    std::uint64_t hash = 0;  // cached content hash (rehash without re-reading)
  };

  std::vector<net::Asn> to_vector(PathId id) const {
    const auto asns = span(id);
    return {asns.begin(), asns.end()};
  }

  // Content hash used by the slot table.
  static std::uint64_t hash_span(std::span<const net::Asn> asns) noexcept;
  // Interns pre-hashed contents (the single insertion path).
  PathId intern_hashed(std::span<const net::Asn> asns, std::uint64_t hash);
  bool local_slot_matches(std::uint32_t local_index, std::uint64_t hash,
                          std::span<const net::Asn> asns) const noexcept;
  bool base_slot_matches(std::uint32_t entry_index, std::uint64_t hash,
                         std::span<const net::Asn> asns) const noexcept;
  void grow_slots();

  std::shared_ptr<const Frozen> base_;  // sealed shared prefix (may be null)
  std::uint32_t base_count_ = 0;        // entries resolved through base_
  std::vector<net::Asn> arena_;      // local extension: concatenated contents
  std::vector<Entry> entries_;       // local: (PathId - base_count_) -> extent
  std::vector<std::uint32_t> slots_; // open addressing: local index + 1, 0 empty
  std::vector<net::Asn> scratch_;    // staging buffer for prepended()
};

// The sealed prefix a fork shares with its siblings. Plain data: the
// merged arena/entries exactly as a flat table would hold them (absolute
// ids), plus a read-only slot table so lookups against sealed contents
// stay O(1) without copying anything per fork.
struct PathTable::Frozen {
  std::vector<net::Asn> arena;       // concatenated sealed path contents
  std::vector<Entry> entries;        // PathId -> arena extent (absolute ids)
  std::vector<std::uint32_t> slots;  // open addressing: entry index + 1, 0 empty

  std::size_t bytes() const noexcept {
    return arena.capacity() * sizeof(net::Asn) +
           entries.capacity() * sizeof(Entry) +
           slots.capacity() * sizeof(std::uint32_t);
  }
};

inline std::size_t PathTable::frozen_bytes() const noexcept {
  return base_ ? base_->bytes() : 0;
}

inline std::span<const net::Asn> PathTable::span(PathId id) const noexcept {
  const std::uint32_t v = id.value();
  if (v >= base_count_) {
    const Entry& entry = entries_[v - base_count_];
    return {arena_.data() + entry.offset, entry.length};
  }
  const Entry& entry = base_->entries[v];
  return {base_->arena.data() + entry.offset, entry.length};
}

inline std::size_t PathTable::length(PathId id) const noexcept {
  const std::uint32_t v = id.value();
  if (v >= base_count_) return entries_[v - base_count_].length;
  return base_->entries[v].length;
}

}  // namespace re::bgp
