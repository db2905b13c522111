// RPKI Route Origin Authorization table and Route Origin Validation.
//
// §3.3: the measurement announcements "were covered by RPKI ROAs and IRR
// route objects". §2.3 discusses the data-plane ROV studies whose passive
// VP methodology this paper adapts. This module provides the ROA table,
// the RFC 6811 validation outcomes, and an optional import-time ROV drop
// so the simulator can also reproduce ROV-style experiments. IRR route
// objects are not modelled: no simulated AS filters on them.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bgp/as_path.h"
#include "netbase/asn.h"
#include "netbase/prefix.h"
#include "netbase/prefix_trie.h"

namespace re::bgp {

// One ROA: an origin AS authorized to announce prefixes within `prefix`
// up to `max_length`.
struct Roa {
  net::Prefix prefix;
  std::uint8_t max_length = 24;
  net::Asn origin;
};

// RFC 6811 validation states.
enum class RovState : std::uint8_t { kNotFound, kValid, kInvalid };

std::string to_string(RovState s);

// The validated ROA payload set, indexed for longest-prefix matching.
class RoaTable {
 public:
  void add(Roa roa);
  std::size_t size() const noexcept { return count_; }

  // RFC 6811: a route is
  //   * NotFound when no ROA covers the prefix;
  //   * Valid when some covering ROA matches origin and maxLength;
  //   * Invalid when ROAs cover the prefix but none matches.
  RovState validate(const net::Prefix& prefix, net::Asn origin) const;

  // Convenience: validate a received route by its AS-path origin.
  RovState validate_route(const net::Prefix& prefix, const AsPath& path) const {
    return validate(prefix, path.origin());
  }

 private:
  // ROAs bucketed by their ROA prefix; lookup walks every less-specific
  // position via the trie.
  net::PrefixTrie<std::vector<Roa>> trie_;
  std::size_t count_ = 0;
};

}  // namespace re::bgp
