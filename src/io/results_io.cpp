#include "io/results_io.h"


#include "io/json.h"

namespace re::io {

// ----------------------------------------------------------------- tokens

std::string round_state_token(core::RoundState state) {
  switch (state) {
    case core::RoundState::kRe: return "re";
    case core::RoundState::kCommodity: return "commodity";
    case core::RoundState::kMixed: return "mixed";
    case core::RoundState::kLoss: return "loss";
  }
  return "?";
}

std::optional<core::RoundState> round_state_from_token(std::string_view token) {
  if (token == "re") return core::RoundState::kRe;
  if (token == "commodity") return core::RoundState::kCommodity;
  if (token == "mixed") return core::RoundState::kMixed;
  if (token == "loss") return core::RoundState::kLoss;
  return std::nullopt;
}

std::string inference_token(core::Inference inference) {
  switch (inference) {
    case core::Inference::kAlwaysRe: return "always-re";
    case core::Inference::kAlwaysCommodity: return "always-commodity";
    case core::Inference::kSwitchToRe: return "switch-to-re";
    case core::Inference::kSwitchToCommodity: return "switch-to-commodity";
    case core::Inference::kMixed: return "mixed";
    case core::Inference::kOscillating: return "oscillating";
    case core::Inference::kExcludedLoss: return "packet-loss";
  }
  return "?";
}

std::optional<core::Inference> inference_from_token(std::string_view token) {
  if (token == "always-re") return core::Inference::kAlwaysRe;
  if (token == "always-commodity") return core::Inference::kAlwaysCommodity;
  if (token == "switch-to-re") return core::Inference::kSwitchToRe;
  if (token == "switch-to-commodity") return core::Inference::kSwitchToCommodity;
  if (token == "mixed") return core::Inference::kMixed;
  if (token == "oscillating") return core::Inference::kOscillating;
  if (token == "packet-loss") return core::Inference::kExcludedLoss;
  return std::nullopt;
}

std::string side_token(topo::ReSide side) {
  return side == topo::ReSide::kParticipant ? "participant" : "peer-nren";
}

std::optional<topo::ReSide> side_from_token(std::string_view token) {
  if (token == "participant") return topo::ReSide::kParticipant;
  if (token == "peer-nren") return topo::ReSide::kPeerNren;
  return std::nullopt;
}

// ------------------------------------------------------------- JSON lines

std::string to_json_line(const core::PrefixInference& inference) {
  JsonWriter writer;
  writer.begin_object()
      .field("prefix", inference.prefix.to_string())
      .field("origin", inference.origin.value())
      .field("side", side_token(inference.side));
  writer.key("rounds").begin_array();
  for (const core::RoundState state : inference.rounds) {
    writer.value(round_state_token(state));
  }
  writer.end_array();
  writer.field("inference", inference_token(inference.inference));
  if (inference.first_re_round.has_value()) {
    writer.field("first_re_round",
                 static_cast<std::int64_t>(*inference.first_re_round));
  }
  writer.end_object();
  return writer.take();
}

std::optional<core::PrefixInference> from_json_line(std::string_view line) {
  const auto parsed = parse_json(line);
  if (!parsed || !parsed->is_object()) return std::nullopt;

  core::PrefixInference out;
  const JsonValue* prefix = parsed->find("prefix");
  if (prefix == nullptr || !prefix->is_string()) return std::nullopt;
  const auto p = net::Prefix::parse(prefix->as_string());
  if (!p) return std::nullopt;
  out.prefix = *p;

  const JsonValue* origin = parsed->find("origin");
  if (origin == nullptr || !origin->is_number()) return std::nullopt;
  out.origin = net::Asn{static_cast<std::uint32_t>(origin->as_number())};

  if (const JsonValue* side = parsed->find("side");
      side != nullptr && side->is_string()) {
    const auto s = side_from_token(side->as_string());
    if (!s) return std::nullopt;
    out.side = *s;
  }

  const JsonValue* rounds = parsed->find("rounds");
  if (rounds == nullptr || !rounds->is_array()) return std::nullopt;
  for (const JsonValue& entry : rounds->as_array()) {
    if (!entry.is_string()) return std::nullopt;
    const auto state = round_state_from_token(entry.as_string());
    if (!state) return std::nullopt;
    out.rounds.push_back(*state);
  }

  const JsonValue* inference = parsed->find("inference");
  if (inference == nullptr || !inference->is_string()) return std::nullopt;
  const auto i = inference_from_token(inference->as_string());
  if (!i) return std::nullopt;
  out.inference = *i;

  if (const JsonValue* first = parsed->find("first_re_round");
      first != nullptr && first->is_number()) {
    out.first_re_round = static_cast<int>(first->as_number());
  }
  return out;
}

std::string to_json_lines(
    const std::vector<core::PrefixInference>& inferences) {
  std::string out;
  for (const core::PrefixInference& inference : inferences) {
    out += to_json_line(inference);
    out += '\n';
  }
  return out;
}

std::optional<std::vector<core::PrefixInference>> from_json_lines(
    std::string_view text) {
  std::vector<core::PrefixInference> out;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty()) continue;
    auto parsed = from_json_line(line);
    if (!parsed) return std::nullopt;
    out.push_back(std::move(*parsed));
  }
  return out;
}

}  // namespace re::io
