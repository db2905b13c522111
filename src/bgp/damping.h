// Route flap damping (RFC 2439 / RIPE-580 style), per (prefix, session).
//
// The paper spaces prepend changes one hour apart specifically to stay
// under damping suppress times (§3.3, citing Gray et al. 2020: ~9% of ASes
// damp, rarely for more than 15 minutes, never observed above an hour).
// We model the exponential-decay penalty so that an ablation bench can
// show what happens when the experiment moves faster than RFD allows.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "netbase/asn.h"
#include "netbase/clock.h"

namespace re::bgp {

struct DampingConfig {
  bool enabled = false;
  double withdraw_penalty = 1000.0;
  double attribute_change_penalty = 500.0;
  double suppress_threshold = 2000.0;
  double reuse_threshold = 750.0;
  net::SimTime half_life = 15 * net::kMinute;
  net::SimTime max_suppress = 60 * net::kMinute;
  double max_penalty = 12000.0;
};

// Penalty state for one (prefix, session) pair.
class DampingState {
 public:
  // Decays the penalty to `now` and adds `penalty`; updates suppression.
  void record(double penalty, net::SimTime now, const DampingConfig& config);

  // True if the route is currently suppressed (after decay to `now`).
  bool suppressed(net::SimTime now, const DampingConfig& config) const;

  double penalty_at(net::SimTime now, const DampingConfig& config) const;

  // Checkpoint support: the full mutable state as plain data, so a
  // network snapshot can capture and restore damping exactly (the decay
  // math depends on last_update_, not just the current penalty).
  struct Raw {
    double penalty = 0.0;
    net::SimTime last_update = 0;
    bool suppressed = false;
    net::SimTime suppressed_since = 0;
  };
  Raw raw() const noexcept {
    return {penalty_, last_update_, suppressed_, suppressed_since_};
  }
  static DampingState from_raw(const Raw& raw) noexcept {
    DampingState state;
    state.penalty_ = raw.penalty;
    state.last_update_ = raw.last_update;
    state.suppressed_ = raw.suppressed;
    state.suppressed_since_ = raw.suppressed_since;
    return state;
  }

 private:
  double penalty_ = 0.0;
  net::SimTime last_update_ = 0;
  mutable bool suppressed_ = false;
  net::SimTime suppressed_since_ = 0;
};

// One speaker's damping history for one prefix: the penalty state of each
// neighbor whose route for the prefix flapped, ascending by neighbor. The
// entries live out of line and the table stays null until the first
// penalty, so the speakers that never damp (or never see a flap) pay one
// pointer per prefix for it. Copies are deep: a cloned prefix column owns
// its history.
class DampingTable {
 public:
  using Entry = std::pair<net::Asn, DampingState>;

  DampingTable() = default;
  DampingTable(const DampingTable& other);
  DampingTable(DampingTable&&) noexcept = default;
  // By value: copy- and move-assignment in one.
  DampingTable& operator=(DampingTable other) noexcept;

  bool empty() const noexcept { return entries_ == nullptr; }
  // Every entry, ascending by neighbor.
  std::span<const Entry> entries() const noexcept {
    return entries_ == nullptr ? std::span<const Entry>{}
                               : std::span<const Entry>{*entries_};
  }

  // Adds `penalty` to the neighbor's state (created at zero on first use).
  void record(net::Asn neighbor, double penalty, net::SimTime now,
              const DampingConfig& config) {
    slot(neighbor).record(penalty, now, config);
  }
  // True if the neighbor's route is suppressed at `now`. Like
  // DampingState::suppressed, a lapsed suppression is cleared here.
  bool suppressed(net::Asn neighbor, net::SimTime now,
                  const DampingConfig& config) const;
  // Sets the neighbor's state outright (the disk codec).
  void assign(net::Asn neighbor, const DampingState& state) {
    slot(neighbor) = state;
  }

 private:
  DampingState& slot(net::Asn neighbor);

  std::unique_ptr<std::vector<Entry>> entries_;
};

}  // namespace re::bgp
