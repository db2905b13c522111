#include "bgp/path_table.h"

#include <algorithm>

#include "netbase/flat_map.h"

namespace re::bgp {

namespace {
constexpr std::size_t kInitialSlots = 256;  // power of two
}  // namespace

PathTable::PathTable() {
  entries_.push_back(Entry{});  // id 0: the empty path
  slots_.assign(kInitialSlots, 0);
  // The empty path hashes like any other content; seat it so intern({})
  // finds it.
  entries_[0].hash = hash_span({});
  const std::size_t index = entries_[0].hash & (slots_.size() - 1);
  slots_[index] = 1;  // entry 0, stored as index + 1
}

PathTable::PathTable(std::shared_ptr<const Frozen> base) {
  if (base == nullptr || base->entries.empty()) {
    *this = PathTable();
    return;
  }
  base_ = std::move(base);
  base_count_ = static_cast<std::uint32_t>(base_->entries.size());
  slots_.assign(kInitialSlots, 0);  // local extension starts empty
}

std::shared_ptr<const PathTable::Frozen> PathTable::freeze() {
  if (base_ != nullptr && entries_.empty()) return base_;  // nothing new

  auto frozen = std::make_shared<Frozen>();
  std::uint32_t shift = 0;
  if (base_ != nullptr) {
    frozen->arena = base_->arena;
    frozen->entries = base_->entries;
    shift = static_cast<std::uint32_t>(base_->arena.size());
  }
  frozen->arena.insert(frozen->arena.end(), arena_.begin(), arena_.end());
  frozen->entries.reserve(frozen->entries.size() + entries_.size());
  for (const Entry& entry : entries_) {
    Entry shifted = entry;
    shifted.offset += shift;
    frozen->entries.push_back(shifted);
  }

  // Rebuild the sealed slot table at <=0.7 load. Slot layout never
  // affects ids (ids are positional), only probe distance.
  std::size_t slot_count = kInitialSlots;
  while ((frozen->entries.size() + 1) * 10 > slot_count * 7) slot_count *= 2;
  frozen->slots.assign(slot_count, 0);
  const std::size_t mask = slot_count - 1;
  for (std::size_t i = 0; i < frozen->entries.size(); ++i) {
    std::size_t index = frozen->entries[i].hash & mask;
    while (frozen->slots[index] != 0) index = (index + 1) & mask;
    frozen->slots[index] = static_cast<std::uint32_t>(i) + 1;
  }

  // Rebase: the local extension is now part of the shared base. Every id
  // keeps its value; only the lookup route changes.
  base_ = frozen;
  base_count_ = static_cast<std::uint32_t>(frozen->entries.size());
  arena_.clear();
  entries_.clear();
  slots_.assign(kInitialSlots, 0);
  return frozen;
}

std::uint64_t PathTable::hash_span(std::span<const net::Asn> asns) noexcept {
  // FNV-1a over the 32-bit elements, finished with a full avalanche so
  // short paths spread across the table.
  std::uint64_t h = 1469598103934665603ull;
  for (const net::Asn asn : asns) {
    h ^= asn.value();
    h *= 1099511628211ull;
  }
  return net::mix64(h ^ (asns.size() << 1));
}

bool PathTable::local_slot_matches(
    std::uint32_t local_index, std::uint64_t hash,
    std::span<const net::Asn> asns) const noexcept {
  const Entry& entry = entries_[local_index];
  if (entry.hash != hash || entry.length != asns.size()) return false;
  return std::equal(asns.begin(), asns.end(), arena_.begin() + entry.offset);
}

bool PathTable::base_slot_matches(
    std::uint32_t entry_index, std::uint64_t hash,
    std::span<const net::Asn> asns) const noexcept {
  const Entry& entry = base_->entries[entry_index];
  if (entry.hash != hash || entry.length != asns.size()) return false;
  return std::equal(asns.begin(), asns.end(),
                    base_->arena.begin() + entry.offset);
}

PathId PathTable::intern(std::span<const net::Asn> asns) {
  return intern_hashed(asns, hash_span(asns));
}

PathId PathTable::intern_hashed(std::span<const net::Asn> asns,
                                std::uint64_t hash) {
  if (base_ != nullptr) {
    const std::size_t base_mask = base_->slots.size() - 1;
    std::size_t index = hash & base_mask;
    while (base_->slots[index] != 0) {
      const std::uint32_t entry_index = base_->slots[index] - 1;
      if (base_slot_matches(entry_index, hash, asns)) {
        return PathId{entry_index};
      }
      index = (index + 1) & base_mask;
    }
  }
  const std::size_t mask = slots_.size() - 1;
  std::size_t index = hash & mask;
  while (slots_[index] != 0) {
    const std::uint32_t local_index = slots_[index] - 1;
    if (local_slot_matches(local_index, hash, asns)) {
      return PathId{base_count_ + local_index};
    }
    index = (index + 1) & mask;
  }

  // Miss everywhere: append to the local arena and seat the new entry.
  Entry entry;
  entry.offset = static_cast<std::uint32_t>(arena_.size());
  entry.length = static_cast<std::uint32_t>(asns.size());
  entry.hash = hash;
  arena_.insert(arena_.end(), asns.begin(), asns.end());
  const std::uint32_t local_index = static_cast<std::uint32_t>(entries_.size());
  entries_.push_back(entry);
  slots_[index] = local_index + 1;

  // Keep local load below 0.7; ids survive the rehash untouched.
  if ((entries_.size() + 1) * 10 > slots_.size() * 7) grow_slots();
  return PathId{base_count_ + local_index};
}

void PathTable::grow_slots() {
  std::vector<std::uint32_t> grown(slots_.size() * 2, 0);
  const std::size_t mask = grown.size() - 1;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    std::size_t index = entries_[i].hash & mask;
    while (grown[index] != 0) index = (index + 1) & mask;
    grown[index] = static_cast<std::uint32_t>(i) + 1;
  }
  slots_ = std::move(grown);
}

PathId PathTable::prepended(PathId id, net::Asn asn, std::size_t copies) {
  if (copies == 0) return id;
  const auto base = span(id);
  scratch_.clear();
  scratch_.reserve(base.size() + copies);
  scratch_.insert(scratch_.end(), copies, asn);
  scratch_.insert(scratch_.end(), base.begin(), base.end());
  return intern(scratch_);
}

bool PathTable::contains(PathId id, net::Asn asn) const noexcept {
  const auto asns = span(id);
  return std::find(asns.begin(), asns.end(), asn) != asns.end();
}

std::size_t PathTable::count(PathId id, net::Asn asn) const noexcept {
  const auto asns = span(id);
  return static_cast<std::size_t>(std::count(asns.begin(), asns.end(), asn));
}

std::size_t PathTable::unique_count(PathId id) const {
  const auto asns = span(id);
  std::vector<net::Asn> sorted(asns.begin(), asns.end());
  std::sort(sorted.begin(), sorted.end());
  return static_cast<std::size_t>(
      std::unique(sorted.begin(), sorted.end()) - sorted.begin());
}

std::string PathTable::to_string(PathId id) const {
  const auto asns = span(id);
  std::string out;
  for (std::size_t i = 0; i < asns.size(); ++i) {
    if (i > 0) out.push_back(' ');
    out.append(std::to_string(asns[i].value()));
  }
  return out;
}

}  // namespace re::bgp
