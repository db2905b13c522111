// Validated environment-variable parsing for the RE_* runtime knobs.
//
// The bare std::atol/std::atof parsers previously scattered across the
// benches accepted anything: RE_TRIALS=abc silently fell back to the
// default and RE_TRIALS=8garbage silently became 8, so a typo'd sweep ran
// the wrong configuration without a word. These parsers are strict — the
// whole string must be a number in range — and the env_* entry points
// reject malformed values loudly (stderr + exit) instead of guessing,
// because a multi-hour sweep run under the wrong knob is worse than no
// sweep at all.
//
// The knobs read through here: RE_THREADS (pool width), RE_SCALE (bench
// world size), RE_TRIALS and RE_WARM_TRIALS (bench_seeds sweeps),
// RE_CHECK_SECONDS (re_check's seed-loop budget) and RE_TRACE
// (re_survey/re_check span trace path).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace re::runtime {

// Strict parse of a positive integer: the full string (surrounding
// whitespace excepted) must be digits, the value must be > 0 and fit.
// nullopt on any violation.
std::optional<std::size_t> parse_positive_size(std::string_view text) noexcept;

// Strict parse of a finite positive double (full-string, > 0).
std::optional<double> parse_positive_double(std::string_view text) noexcept;

// Strict parse of a thread-count knob: either a positive integer (taken
// as-is — explicit oversubscription is allowed, benches measure it
// deliberately) or the word "auto" (case-sensitive), which resolves to
// `hardware` — pass std::thread::hardware_concurrency(); a 0 report
// clamps to 1. nullopt on anything else.
std::optional<std::size_t> parse_thread_count(std::string_view text,
                                              std::size_t hardware) noexcept;

// Reads env var `name` as a positive integer. Unset or empty -> fallback;
// set but malformed -> diagnostic on stderr and exit(2).
std::size_t env_positive_size(const char* name, std::size_t fallback);

// Reads env var `name` as a thread count ("auto" or a positive integer —
// see parse_thread_count). Unset or empty -> fallback; set but malformed
// -> diagnostic on stderr and exit(2). "auto" never oversubscribes: the
// automatic choice is capped at the hardware thread count.
std::size_t env_thread_count(const char* name, std::size_t fallback);

// Reads env var `name` as a finite positive double. Unset or empty ->
// fallback; set but malformed -> diagnostic on stderr and exit(2).
double env_positive_double(const char* name, double fallback);

// Strict parse of a free-form string knob (a path, a name): surrounding
// whitespace is trimmed, and a value that trims to nothing is rejected.
// nullopt on empty — a knob set to "" is a typo'd export, not a request.
std::optional<std::string> parse_env_string(std::string_view text);

// Reads env var `name` as a non-empty string (see parse_env_string).
// Unset -> fallback; set but blank -> diagnostic on stderr and exit(2).
// Note the asymmetry with the numeric env_* readers, which treat
// set-but-empty as unset: for value knobs an empty string has an obvious
// meaning (use the default), but for RE_TRACE="" the user plainly asked
// for a trace and named no file, so guessing would lose the trace.
std::string env_string(const char* name, std::string_view fallback);

}  // namespace re::runtime
