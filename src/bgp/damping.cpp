#include "bgp/damping.h"

#include <algorithm>
#include <cmath>

namespace re::bgp {

double DampingState::penalty_at(net::SimTime now,
                                const DampingConfig& config) const {
  const net::SimTime elapsed = now - last_update_;
  if (elapsed <= 0 || penalty_ <= 0) return penalty_;
  const double halves =
      static_cast<double>(elapsed) / static_cast<double>(config.half_life);
  return penalty_ * std::exp2(-halves);
}

void DampingState::record(double penalty, net::SimTime now,
                          const DampingConfig& config) {
  penalty_ = std::min(penalty_at(now, config) + penalty, config.max_penalty);
  last_update_ = now;
  if (!suppressed_ && penalty_ >= config.suppress_threshold) {
    suppressed_ = true;
    suppressed_since_ = now;
  }
}

bool DampingState::suppressed(net::SimTime now,
                              const DampingConfig& config) const {
  if (!suppressed_) return false;
  const double current = penalty_at(now, config);
  if (current < config.reuse_threshold ||
      now - suppressed_since_ >= config.max_suppress) {
    suppressed_ = false;
    return false;
  }
  return true;
}

namespace {

template <typename Entries>
auto lower_bound_neighbor(Entries& entries, net::Asn neighbor) {
  return std::lower_bound(
      entries.begin(), entries.end(), neighbor,
      [](const DampingTable::Entry& e, net::Asn n) { return e.first < n; });
}

}  // namespace

DampingTable::DampingTable(const DampingTable& other) {
  if (other.entries_ != nullptr) {
    entries_ = std::make_unique<std::vector<Entry>>(*other.entries_);
  }
}

DampingTable& DampingTable::operator=(DampingTable other) noexcept {
  entries_ = std::move(other.entries_);
  return *this;
}

bool DampingTable::suppressed(net::Asn neighbor, net::SimTime now,
                              const DampingConfig& config) const {
  if (entries_ == nullptr) return false;
  const auto it = lower_bound_neighbor(*entries_, neighbor);
  return it != entries_->end() && it->first == neighbor &&
         it->second.suppressed(now, config);
}

DampingState& DampingTable::slot(net::Asn neighbor) {
  if (entries_ == nullptr) entries_ = std::make_unique<std::vector<Entry>>();
  const auto it = lower_bound_neighbor(*entries_, neighbor);
  if (it != entries_->end() && it->first == neighbor) return it->second;
  return entries_->insert(it, Entry{neighbor, DampingState{}})->second;
}

}  // namespace re::bgp
