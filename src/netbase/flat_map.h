// Open-addressing hash containers for the propagation hot path.
//
// std::unordered_map is node-based: every insert allocates, every lookup
// chases a pointer per bucket entry. The propagation engine keys its
// per-edge suppression and flow state, session tables and prefix slots
// through these maps millions of times per sweep, so the cache misses dominate. FlatMap is a
// header-only linear-probing table with power-of-two capacity, a strong
// 64-bit avalanche on top of the key hash (weak identity hashes like
// std::hash<uint32_t> would otherwise cluster), tombstone deletion with
// slot reuse, and cheap probe-length counters for perf diagnostics.
//
// Semantics intentionally match the std::unordered_map subset the engine
// uses: find / operator[] / insert / insert_or_assign / erase(key) /
// erase(iterator) -> next iterator / reserve / clear / iteration / count.
// Iterators and references are invalidated by rehash (any growing
// insert), exactly like the std containers invalidate on rehash — the
// call sites never hold references across inserts. Iteration order is
// unspecified; every deterministic consumer sorts, as they already must
// with the std containers.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <utility>
#include <vector>

namespace re::net {

// splitmix64 finalizer: a full-avalanche 64-bit mixer.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

// Default hasher: std::hash for identity/locality, mix64 for avalanche.
template <typename K>
struct FlatHash {
  std::size_t operator()(const K& key) const noexcept {
    return static_cast<std::size_t>(
        mix64(static_cast<std::uint64_t>(std::hash<K>{}(key))));
  }
};

template <typename Key, typename T, typename Hash = FlatHash<Key>>
class FlatMap {
  enum class SlotState : std::uint8_t { kEmpty = 0, kFull = 1, kTombstone = 2 };

 public:
  using value_type = std::pair<Key, T>;

  struct ProbeStats {
    std::uint64_t lookups = 0;  // find_slot invocations
    std::uint64_t probes = 0;   // total slots visited across lookups
  };

  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = std::pair<Key, T>;
    using difference_type = std::ptrdiff_t;
    using pointer = value_type*;
    using reference = value_type&;

    iterator() = default;
    iterator(FlatMap* map, std::size_t index) : map_(map), index_(index) {
      skip();
    }
    value_type& operator*() const { return map_->slots_[index_]; }
    value_type* operator->() const { return &map_->slots_[index_]; }
    iterator& operator++() {
      ++index_;
      skip();
      return *this;
    }
    iterator operator++(int) {
      iterator copy = *this;
      ++*this;
      return copy;
    }
    friend bool operator==(const iterator& a, const iterator& b) {
      return a.index_ == b.index_;
    }

   private:
    friend class FlatMap;
    void skip() {
      while (index_ < map_->states_.size() &&
             map_->states_[index_] != SlotState::kFull) {
        ++index_;
      }
    }
    FlatMap* map_ = nullptr;
    std::size_t index_ = 0;
  };

  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = std::pair<Key, T>;
    using difference_type = std::ptrdiff_t;
    using pointer = const value_type*;
    using reference = const value_type&;

    const_iterator() = default;
    const_iterator(const FlatMap* map, std::size_t index)
        : map_(map), index_(index) {
      skip();
    }
    const value_type& operator*() const { return map_->slots_[index_]; }
    const value_type* operator->() const { return &map_->slots_[index_]; }
    const_iterator& operator++() {
      ++index_;
      skip();
      return *this;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.index_ == b.index_;
    }

   private:
    friend class FlatMap;
    void skip() {
      while (index_ < map_->states_.size() &&
             map_->states_[index_] != SlotState::kFull) {
        ++index_;
      }
    }
    const FlatMap* map_ = nullptr;
    std::size_t index_ = 0;
  };

  FlatMap() = default;

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  iterator begin() { return iterator(this, 0); }
  iterator end() { return iterator(this, states_.size()); }
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, states_.size()); }

  void clear() {
    slots_.clear();
    states_.clear();
    size_ = 0;
    used_ = 0;
  }

  void reserve(std::size_t count) {
    std::size_t capacity = 16;
    while (capacity * 3 < count * 4) capacity *= 2;  // target load <= 0.75
    if (capacity > states_.size()) rehash(capacity);
  }

  iterator find(const Key& key) {
    const std::size_t index = find_slot(key);
    if (index == kNotFound) return end();
    return iterator_at(index);
  }
  const_iterator find(const Key& key) const {
    const std::size_t index = find_slot(key);
    if (index == kNotFound) return end();
    return const_iterator_at(index);
  }

  std::size_t count(const Key& key) const {
    return find_slot(key) == kNotFound ? 0 : 1;
  }
  bool contains(const Key& key) const { return count(key) != 0; }

  // Lookup that skips the (mutable) probe counters, so concurrent readers
  // never write to shared state. Safe to call from multiple threads while
  // no thread mutates the table; such lookups are invisible to
  // probe_stats().
  const T* find_concurrent(const Key& key) const noexcept {
    if (states_.empty()) return nullptr;
    std::size_t index = Hash{}(key) & mask();
    while (true) {
      const SlotState state = states_[index];
      if (state == SlotState::kEmpty) return nullptr;
      if (state == SlotState::kFull && slots_[index].first == key) {
        return &slots_[index].second;
      }
      index = (index + 1) & mask();
    }
  }

  T& operator[](const Key& key) {
    return slots_[insert_slot(key)].second;
  }

  template <typename V>
  std::pair<iterator, bool> insert_or_assign(const Key& key, V&& value) {
    const std::size_t before = size_;
    const std::size_t index = insert_slot(key);
    slots_[index].second = std::forward<V>(value);
    return {iterator_at(index), size_ != before};
  }

  std::pair<iterator, bool> insert(const value_type& kv) {
    const std::size_t before = size_;
    const std::size_t index = insert_slot(kv.first);
    if (size_ != before) slots_[index].second = kv.second;
    return {iterator_at(index), size_ != before};
  }

  std::size_t erase(const Key& key) {
    const std::size_t index = find_slot(key);
    if (index == kNotFound) return 0;
    erase_at(index);
    return 1;
  }

  // Erases the element at `pos`; returns the iterator to the next element
  // (the unordered_map erase(iterator) contract the call sites rely on).
  iterator erase(iterator pos) {
    erase_at(pos.index_);
    ++pos.index_;
    pos.skip();
    return pos;
  }

  const ProbeStats& probe_stats() const noexcept { return probe_stats_; }

 private:
  static constexpr std::size_t kNotFound = static_cast<std::size_t>(-1);

  iterator iterator_at(std::size_t index) {
    iterator it;
    it.map_ = this;
    it.index_ = index;
    return it;
  }
  const_iterator const_iterator_at(std::size_t index) const {
    const_iterator it(this, states_.size());
    it.map_ = this;
    it.index_ = index;
    return it;
  }

  std::size_t mask() const noexcept { return states_.size() - 1; }

  std::size_t find_slot(const Key& key) const {
    if (states_.empty()) return kNotFound;
    ++probe_stats_.lookups;
    std::size_t index = Hash{}(key) & mask();
    while (true) {
      ++probe_stats_.probes;
      const SlotState state = states_[index];
      if (state == SlotState::kEmpty) return kNotFound;
      if (state == SlotState::kFull && slots_[index].first == key) return index;
      index = (index + 1) & mask();
    }
  }

  // Returns the slot holding `key`, inserting a default-constructed value
  // (reusing a tombstone when possible) if absent.
  std::size_t insert_slot(const Key& key) {
    if (states_.empty()) rehash(16);
    // Grow when full+tombstone load crosses 0.75: linear probing degrades
    // sharply past that, and rehashing also purges tombstones.
    if ((used_ + 1) * 4 > states_.size() * 3) {
      rehash(size_ * 4 > states_.size() ? states_.size() * 2 : states_.size());
    }
    ++probe_stats_.lookups;
    std::size_t index = Hash{}(key) & mask();
    std::size_t tombstone = kNotFound;
    while (true) {
      ++probe_stats_.probes;
      const SlotState state = states_[index];
      if (state == SlotState::kEmpty) break;
      if (state == SlotState::kTombstone) {
        if (tombstone == kNotFound) tombstone = index;
      } else if (slots_[index].first == key) {
        return index;
      }
      index = (index + 1) & mask();
    }
    if (tombstone != kNotFound) {
      index = tombstone;  // reuse the grave; used_ already counts it
    } else {
      ++used_;
    }
    states_[index] = SlotState::kFull;
    slots_[index].first = key;
    slots_[index].second = T{};
    ++size_;
    return index;
  }

  void erase_at(std::size_t index) {
    assert(states_[index] == SlotState::kFull);
    states_[index] = SlotState::kTombstone;
    slots_[index] = value_type{};  // release held resources eagerly
    --size_;
  }

  void rehash(std::size_t capacity) {
    std::vector<value_type> old_slots = std::move(slots_);
    std::vector<SlotState> old_states = std::move(states_);
    slots_.assign(capacity, value_type{});
    states_.assign(capacity, SlotState::kEmpty);
    size_ = 0;
    used_ = 0;
    for (std::size_t i = 0; i < old_states.size(); ++i) {
      if (old_states[i] != SlotState::kFull) continue;
      const std::size_t index = insert_slot(old_slots[i].first);
      slots_[index].second = std::move(old_slots[i].second);
    }
  }

  std::vector<value_type> slots_;
  std::vector<SlotState> states_;
  std::size_t size_ = 0;  // live elements
  std::size_t used_ = 0;  // live + tombstones
  mutable ProbeStats probe_stats_;
};

// A set built on FlatMap. Iteration yields const keys.
template <typename Key, typename Hash = FlatHash<Key>>
class FlatSet {
  struct Empty {};
  using Map = FlatMap<Key, Empty, Hash>;

 public:
  class const_iterator {
   public:
    const_iterator() = default;
    explicit const_iterator(typename Map::const_iterator it) : it_(it) {}
    const Key& operator*() const { return it_->first; }
    const Key* operator->() const { return &it_->first; }
    const_iterator& operator++() {
      ++it_;
      return *this;
    }
    friend bool operator==(const const_iterator&, const const_iterator&) =
        default;

   private:
    typename Map::const_iterator it_;
  };

  std::size_t size() const noexcept { return map_.size(); }
  bool empty() const noexcept { return map_.empty(); }
  void clear() { map_.clear(); }
  void reserve(std::size_t count) { map_.reserve(count); }

  const_iterator begin() const { return const_iterator(map_.begin()); }
  const_iterator end() const { return const_iterator(map_.end()); }

  bool insert(const Key& key) {
    const std::size_t before = map_.size();
    map_[key];
    return map_.size() != before;
  }
  std::size_t erase(const Key& key) { return map_.erase(key); }
  std::size_t count(const Key& key) const { return map_.count(key); }
  bool contains(const Key& key) const { return map_.contains(key); }

  const typename Map::ProbeStats& probe_stats() const noexcept {
    return map_.probe_stats();
  }

 private:
  Map map_;
};

// The map's entries ordered by key: iteration order is unspecified, so
// every canonical encoder walks maps through this.
template <typename Map>
std::vector<typename Map::value_type const*> sorted_by_key(const Map& map) {
  std::vector<typename Map::value_type const*> out;
  out.reserve(map.size());
  for (const auto& kv : map) out.push_back(&kv);
  std::sort(out.begin(), out.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  return out;
}

}  // namespace re::net
