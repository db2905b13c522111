#include "bgp/rib_store.h"

#include <atomic>

namespace re::bgp {

std::uint64_t RibStore::fresh_stamp() {
  // Stamps only need to be distinct; 0 is never issued, so decoded
  // columns (owner 0) belong to no store.
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

std::uint32_t RibStore::slot(const net::Prefix& prefix) {
  if (last_slot_ != kNoSlot && prefixes_[last_slot_] == prefix) {
    return last_slot_;
  }
  const auto [it, inserted] = index_.insert(
      {prefix, static_cast<std::uint32_t>(prefixes_.size())});
  if (inserted) {
    prefixes_.push_back(prefix);
    columns_.emplace_back();
  }
  last_slot_ = it->second;
  return last_slot_;
}

PrefixColumn& RibStore::write(std::uint32_t slot) {
  Handle& handle = columns_[slot];
  if (handle == nullptr) {
    auto column = std::make_shared<PrefixColumn>();
    column->prefix = prefixes_[slot];
    column->owner = stamp_;
    handle = std::move(column);
  } else if (handle->owner != stamp_) {
    auto column = std::make_shared<PrefixColumn>(*handle);
    column->owner = stamp_;
    handle = std::move(column);
  }
  // Owned under this store's stamp: created here since the last share(),
  // so no other holder has ever seen it. The object was allocated
  // non-const; the handle is const only to force writes through here.
  return const_cast<PrefixColumn&>(*handle);
}

PrefixState* RibStore::find_for_write(std::uint32_t speaker,
                                      const net::Prefix& prefix) {
  const std::uint32_t s = find_slot(prefix);
  if (s == kNoSlot || columns_[s] == nullptr ||
      columns_[s]->state(speaker) == nullptr) {
    return nullptr;
  }
  return &write(s).states[speaker];
}

PrefixState& RibStore::state_for_write(std::uint32_t speaker,
                                       const net::Prefix& prefix) {
  PrefixState& state = write(slot(prefix)).states[speaker];
  state.prefix = prefix;
  return state;
}

void RibStore::erase(std::uint32_t speaker, const net::Prefix& prefix) {
  if (find_for_write(speaker, prefix) == nullptr) return;
  write(find_slot(prefix)).states.erase(speaker);
}

void RibStore::share(std::vector<net::Prefix>& prefixes,
                     std::vector<Handle>& columns) {
  prefixes = prefixes_;
  columns = columns_;
  stamp_ = fresh_stamp();
}

void RibStore::assign(const std::vector<net::Prefix>& prefixes,
                      const std::vector<Handle>& columns) {
  prefixes_ = prefixes;
  columns_ = columns;
  index_.clear();
  index_.reserve(prefixes_.size());
  for (std::uint32_t slot = 0; slot < prefixes_.size(); ++slot) {
    index_.insert_or_assign(prefixes_[slot], slot);
  }
  stamp_ = fresh_stamp();
  last_slot_ = kNoSlot;
}

}  // namespace re::bgp
