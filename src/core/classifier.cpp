#include "core/classifier.h"

#include <unordered_set>

namespace re::core {

std::string to_string(RoundState s) {
  switch (s) {
    case RoundState::kRe: return "R&E";
    case RoundState::kCommodity: return "commodity";
    case RoundState::kMixed: return "mixed";
    case RoundState::kLoss: return "loss";
  }
  return "?";
}

std::string to_string(Inference inference) {
  switch (inference) {
    case Inference::kAlwaysRe: return "Always R&E";
    case Inference::kAlwaysCommodity: return "Always commodity";
    case Inference::kSwitchToRe: return "Switch to R&E";
    case Inference::kSwitchToCommodity: return "Switch to commodity";
    case Inference::kMixed: return "Mixed R&E + commodity";
    case Inference::kOscillating: return "Oscillating";
    case Inference::kExcludedLoss: return "Packet loss";
  }
  return "?";
}

RoundState round_state(const probing::PrefixRoundResult& round, int re_vlan) {
  bool saw_re = false, saw_commodity = false;
  for (const probing::OutcomeCode code : round.outcomes.codes()) {
    if (code == probing::kNoResponse) continue;
    (round.outcomes.vlan_of(code) == re_vlan ? saw_re : saw_commodity) = true;
  }
  if (saw_re && saw_commodity) return RoundState::kMixed;
  if (saw_re) return RoundState::kRe;
  if (saw_commodity) return RoundState::kCommodity;
  return RoundState::kLoss;
}

PrefixInference classify_prefix(const PrefixObservation& observation,
                                int re_vlan) {
  PrefixInference out;
  out.prefix = observation.prefix;
  out.origin = observation.origin;
  out.side = observation.side;
  out.rounds.reserve(observation.rounds.size());

  // A prefix with zero probing rounds carries no signal at all; treat it
  // like an all-loss prefix instead of reading front()/back() of an empty
  // vector below.
  if (observation.rounds.empty()) {
    out.inference = Inference::kExcludedLoss;
    return out;
  }

  bool any_loss = false, any_mixed = false;
  for (const probing::PrefixRoundResult& round : observation.rounds) {
    const RoundState state = round_state(round, re_vlan);
    any_loss |= state == RoundState::kLoss;
    any_mixed |= state == RoundState::kMixed;
    out.rounds.push_back(state);
  }

  for (std::size_t i = 0; i < out.rounds.size(); ++i) {
    if (out.rounds[i] == RoundState::kRe) {
      out.first_re_round = static_cast<int>(i);
      break;
    }
  }

  if (any_loss) {
    out.inference = Inference::kExcludedLoss;
    return out;
  }
  if (any_mixed) {
    out.inference = Inference::kMixed;
    return out;
  }

  // Pure R&E/commodity sequence: count transitions.
  int transitions = 0;
  for (std::size_t i = 1; i < out.rounds.size(); ++i) {
    if (out.rounds[i] != out.rounds[i - 1]) ++transitions;
  }
  const RoundState first = out.rounds.front();
  const RoundState last = out.rounds.back();

  if (transitions == 0) {
    out.inference = first == RoundState::kRe ? Inference::kAlwaysRe
                                             : Inference::kAlwaysCommodity;
  } else if (transitions == 1 && first == RoundState::kCommodity &&
             last == RoundState::kRe) {
    out.inference = Inference::kSwitchToRe;
  } else if (transitions == 1 && first == RoundState::kRe &&
             last == RoundState::kCommodity) {
    out.inference = Inference::kSwitchToCommodity;
  } else {
    out.inference = Inference::kOscillating;
  }
  return out;
}

std::vector<PrefixInference> classify_experiment(
    const ExperimentResult& result) {
  std::vector<PrefixInference> out;
  out.reserve(result.observations.size());
  for (const PrefixObservation& obs : result.observations) {
    out.push_back(classify_prefix(obs, result.re_vlan));
  }
  return out;
}

double Table1::prefix_share(Inference i) const {
  const auto it = cells.find(i);
  if (it == cells.end() || total_prefixes == 0) return 0.0;
  return static_cast<double>(it->second.prefixes) /
         static_cast<double>(total_prefixes);
}

Table1 summarize_table1(const std::vector<PrefixInference>& inferences) {
  Table1 table;
  std::map<Inference, std::unordered_set<net::Asn>> ases;
  std::unordered_set<net::Asn> total_ases;
  for (const PrefixInference& p : inferences) {
    if (p.inference == Inference::kExcludedLoss) {
      ++table.excluded_loss;
      continue;
    }
    ++table.cells[p.inference].prefixes;
    ases[p.inference].insert(p.origin);
    total_ases.insert(p.origin);
    ++table.total_prefixes;
  }
  for (auto& [inference, members] : ases) {
    table.cells[inference].ases = members.size();
  }
  table.total_ases = total_ases.size();
  return table;
}

}  // namespace re::core
