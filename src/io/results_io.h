// Measurement-result serialization: JSON-lines encoding of per-prefix
// inferences (the format of the paper's released dataset).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/classifier.h"

namespace re::io {

// ----------------------------------------------------- JSON result lines

// Serializes one prefix inference as a single JSON line:
// {"prefix":"...","origin":N,"side":"...","rounds":[...],"inference":"..."}
std::string to_json_line(const core::PrefixInference& inference);

// Parses one JSON line back; nullopt on malformed input.
std::optional<core::PrefixInference> from_json_line(std::string_view line);

// Whole-file helpers (one line per prefix).
std::string to_json_lines(const std::vector<core::PrefixInference>& inferences);
std::optional<std::vector<core::PrefixInference>> from_json_lines(
    std::string_view text);

// Round-trippable token names.
std::string round_state_token(core::RoundState state);
std::optional<core::RoundState> round_state_from_token(std::string_view token);
std::string inference_token(core::Inference inference);
std::optional<core::Inference> inference_from_token(std::string_view token);
std::string side_token(topo::ReSide side);
std::optional<topo::ReSide> side_from_token(std::string_view token);

}  // namespace re::io
