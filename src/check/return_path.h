// Reference return-path walker: the oracle for the compiled catchment
// FIB (dataplane/fib.h).
//
// Walks from a source AS toward the measurement prefix one RIB lookup at
// a time: each AS forwards toward its own best route, falling back to its
// default-route session when it has no route (§4.2's hidden upstream).
// The walk ends at an announcement terminal or fails on a loop, a
// route-less AS or the 64-hop budget. Every query re-resolves from
// scratch (O(path length) RIB lookups), so the probing plane never uses
// it; fib_test, the re_check fib-agreement invariant and the dataplane
// tests compare CatchmentFib against it. The hot loop is allocation-free
// apart from the returned hops vector, and the reuse overload recycles
// even that.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>
#include <vector>

#include "bgp/network.h"
#include "dataplane/fib.h"
#include "netbase/asn.h"
#include "netbase/prefix.h"

namespace re::check {

using dataplane::ReturnPath;

class ReturnPathResolver {
 public:
  // `terminals` are the ASes that deliver traffic for `prefix` to the
  // measurement host (the announcement endpoints). The span is copied
  // into a small owned vector (two entries in every experiment), so the
  // caller's storage need not outlive the resolver.
  ReturnPathResolver(const bgp::BgpNetwork& network, net::Prefix prefix,
                     std::span<const net::Asn> terminals)
      : network_(network),
        prefix_(prefix),
        terminals_(terminals.begin(), terminals.end()) {}

  ReturnPathResolver(const bgp::BgpNetwork& network, net::Prefix prefix,
                     std::initializer_list<net::Asn> terminals)
      : ReturnPathResolver(network, prefix,
                           std::span<const net::Asn>(terminals)) {}

  // Walks from `source` toward the measurement prefix.
  ReturnPath resolve(net::Asn source) const;

  // Reuse flavor: clears and refills `out` (recycling its hops capacity)
  // instead of allocating a fresh result per call. Thread-safe — all
  // other scratch lives on the stack, so concurrent calls with distinct
  // `out` objects never share mutable state.
  void resolve(net::Asn source, ReturnPath& out) const;

  // §3.4 per-prefix policy granularity: resolves as if `source` applied
  // `stance` (instead of its session defaults) when choosing the egress
  // for this traffic — the first hop is re-selected under the overridden
  // localpref assignment, then forwarding proceeds normally.
  ReturnPath resolve_with_stance(net::Asn source, bgp::ReStance stance) const;

  bool is_terminal(net::Asn asn) const {
    for (const net::Asn terminal : terminals_) {
      if (terminal == asn) return true;
    }
    return false;
  }

  std::span<const net::Asn> terminals() const noexcept { return terminals_; }

 private:
  const bgp::BgpNetwork& network_;
  net::Prefix prefix_;
  // Linear scan beats a hash set at experiment cardinality (two
  // terminals) and keeps the resolver trivially copyable around.
  std::vector<net::Asn> terminals_;
};

}  // namespace re::check
