#include "runtime/env.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <thread>

namespace re::runtime {

namespace {

std::string_view trimmed(std::string_view text) noexcept {
  while (!text.empty() &&
         std::isspace(static_cast<unsigned char>(text.front()))) {
    text.remove_prefix(1);
  }
  while (!text.empty() && std::isspace(static_cast<unsigned char>(text.back()))) {
    text.remove_suffix(1);
  }
  return text;
}

[[noreturn]] void die(const char* name, const char* value, const char* want) {
  std::fprintf(stderr,
               "error: %s=\"%s\" is not %s; refusing to guess "
               "(unset it to use the default)\n",
               name, value, want);
  std::exit(2);
}

}  // namespace

std::optional<std::size_t> parse_positive_size(std::string_view text) noexcept {
  text = trimmed(text);
  if (text.empty()) return std::nullopt;
  std::size_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    const std::size_t digit = static_cast<std::size_t>(c - '0');
    if (value > (std::numeric_limits<std::size_t>::max() - digit) / 10) {
      return std::nullopt;  // overflow
    }
    value = value * 10 + digit;
  }
  if (value == 0) return std::nullopt;
  return value;
}

std::optional<double> parse_positive_double(std::string_view text) noexcept {
  text = trimmed(text);
  if (text.empty()) return std::nullopt;
  const std::string owned(text);  // strtod needs a terminator
  char* end = nullptr;
  const double value = std::strtod(owned.c_str(), &end);
  if (end != owned.c_str() + owned.size()) return std::nullopt;
  if (!std::isfinite(value) || value <= 0.0) return std::nullopt;
  return value;
}

std::optional<std::size_t> parse_thread_count(std::string_view text,
                                              std::size_t hardware) noexcept {
  text = trimmed(text);
  if (text == "auto") return hardware == 0 ? 1 : hardware;
  return parse_positive_size(text);
}

std::size_t env_positive_size(const char* name, std::size_t fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  const auto parsed = parse_positive_size(env);
  if (!parsed) die(name, env, "a positive integer");
  return *parsed;
}

std::size_t env_thread_count(const char* name, std::size_t fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  const auto parsed =
      parse_thread_count(env, std::thread::hardware_concurrency());
  if (!parsed) die(name, env, "a positive integer or \"auto\"");
  return *parsed;
}

std::optional<std::string> parse_env_string(std::string_view text) {
  text = trimmed(text);
  if (text.empty()) return std::nullopt;
  return std::string(text);
}

std::string env_string(const char* name, std::string_view fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr) return std::string(fallback);
  const auto parsed = parse_env_string(env);
  if (!parsed) die(name, env, "a non-empty value");
  return *parsed;
}

double env_positive_double(const char* name, double fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  const auto parsed = parse_positive_double(env);
  if (!parsed) die(name, env, "a positive number");
  return *parsed;
}

}  // namespace re::runtime
