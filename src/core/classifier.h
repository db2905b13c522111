// Prefix-level route-preference classification (§4, Table 1).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "netbase/asn.h"
#include "netbase/prefix.h"

namespace re::core {

// What a prefix's systems did in one probing round.
enum class RoundState : std::uint8_t {
  kRe,         // every responding system returned over R&E
  kCommodity,  // every responding system returned over commodity
  kMixed,      // systems split between route types within the round
  kLoss,       // no system responded
};

std::string to_string(RoundState s);

// The paper's six inference categories plus the packet-loss exclusion.
enum class Inference : std::uint8_t {
  kAlwaysRe,
  kAlwaysCommodity,
  kSwitchToRe,
  kSwitchToCommodity,
  kMixed,
  kOscillating,
  kExcludedLoss,  // at least one round with no response (excluded from Table 1)
};

std::string to_string(Inference inference);

struct PrefixInference {
  net::Prefix prefix;
  net::Asn origin;
  topo::ReSide side = topo::ReSide::kParticipant;
  Inference inference = Inference::kExcludedLoss;
  std::vector<RoundState> rounds;

  // For switching prefixes: index of the first round whose responses came
  // back over R&E (drives Figure 8's CDF).
  std::optional<int> first_re_round;
};

// Collapses one round's per-system outcome codes, given the experiment's
// R&E VLAN id.
RoundState round_state(const probing::PrefixRoundResult& round, int re_vlan);

// Classifies one prefix's full timeline per the §4 rules:
//   * any no-response round          -> excluded (packet loss);
//   * any round with split VLANs     -> Mixed;
//   * all R&E                        -> Always R&E;
//   * all commodity                  -> Always commodity;
//   * one commodity->R&E transition  -> Switch to R&E (the equal-localpref
//                                       signature given the prepend order);
//   * one R&E->commodity transition  -> Switch to commodity (outages);
//   * anything else                  -> Oscillating.
PrefixInference classify_prefix(const PrefixObservation& observation,
                                int re_vlan);

// Classifies every observed prefix of an experiment.
std::vector<PrefixInference> classify_experiment(const ExperimentResult& result);

// Table 1: counts by category, at prefix and origin-AS granularity. An AS
// is counted in every category one of its prefixes lands in, so the AS
// percentages can sum to more than 100% (as in the paper).
struct Table1 {
  struct Cell {
    std::size_t prefixes = 0;
    std::size_t ases = 0;
  };
  std::map<Inference, Cell> cells;
  std::size_t total_prefixes = 0;  // characterized (non-excluded) prefixes
  std::size_t total_ases = 0;
  std::size_t excluded_loss = 0;

  double prefix_share(Inference i) const;
};

Table1 summarize_table1(const std::vector<PrefixInference>& inferences);

}  // namespace re::core
