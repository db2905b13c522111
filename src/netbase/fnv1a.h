// Streaming FNV-1a over bytes: the one byte hash behind every digest and
// on-disk checksum.
//
// FNV-1a over a stream equals FNV-1a over the stream's concatenation, so a
// caller can hash a large encoding record by record (add, then clear its
// BinaryWriter) and never hold the whole encoding.
#pragma once

#include <cstdint>
#include <span>

#include "netbase/flat_map.h"  // net::mix64

namespace re::net {

class Fnv1a {
 public:
  // Not the standard FNV-1a offset basis (14695981039346656037, one digit
  // longer): a digit was dropped long ago, and every digest, pinned value
  // and on-disk checksum depends on the basis in use, so it stays.
  static constexpr std::uint64_t kBasis = 1469598103934665603ull;
  static constexpr std::uint64_t kPrime = 1099511628211ull;

  Fnv1a& add(std::span<const std::uint8_t> bytes) noexcept {
    for (const std::uint8_t byte : bytes) {
      h_ ^= byte;
      h_ *= kPrime;
    }
    return *this;
  }

  // The plain FNV-1a value.
  std::uint64_t raw() const noexcept { return h_; }
  // The value finished with a full avalanche: what the digests return.
  std::uint64_t finish() const noexcept { return mix64(h_); }

 private:
  std::uint64_t h_ = kBasis;
};

}  // namespace re::net
