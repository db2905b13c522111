// Compiled catchment FIB: memoized, epoch-invalidated return-path
// resolution for the probing plane.
//
// Responses are forwarded hop-by-hop: each AS forwards toward its *own*
// best route for the measurement prefix, falling back to its default-route
// session when it has no route at all (the hidden-upstream behaviour of
// §4.2). A return path ends at an announcement terminal, which maps to a
// host VLAN, or fails on a loop / route-less AS.
//
// Per prefix, forwarding in this model is a *functional graph*: every AS
// has exactly one next hop (its best route's learned_from, or its
// default-route session when it has no route), so all return paths for
// one prefix form a forest rooted at the announcement terminals, plus
// possibly a few cycles (forwarding loops) and dead ends (black holes).
// A CatchmentFib snapshots that graph once per converged round into
// dense arrays indexed by BgpNetwork's dense speaker index, resolves
// terminal attribution for *all* ASes in one O(N) iterative pass
// (pointer-jumping with an explicit stack + path compression: every node
// is classified exactly once), and then answers each query in O(1):
// {terminal T, via/without default route}, forwarding loop, or black
// hole. Full `hops` vectors are reconstructed lazily, only for callers
// that need them (the fib-agreement check, diagnostics), by walking the
// compiled next-hop array — O(path length) array reads, zero RIB lookups.
//
// Staleness is handled by epochs, not by discipline: BgpNetwork bumps a
// per-prefix mutation counter wherever the dirty set is seeded and on
// every delivery tick, so refresh() is a cheap no-op while the prefix is
// quiet and a single recompile after any mutation — there is no
// stale-cache correctness cliff. Queries against a refreshed FIB are
// read-only and therefore embarrassingly parallel (the prober pool calls
// attribution() concurrently); refresh() itself must be called from one
// thread, between query batches.
//
// The compiled classification is bit-identical to an AS-by-AS walk of the
// RIBs — including its 64-hop limit and the exact `used_default_route`
// accumulation on failure paths. That walk is src/check's reference
// walker, the oracle: fib_test.cpp enforces the equivalence across random
// worlds and re_check's fib-agreement invariant after every convergence
// op.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "bgp/network.h"
#include "netbase/asn.h"
#include "netbase/prefix.h"

namespace re::dataplane {

// One resolved return path: the announcement endpoint reached (and hence
// the measurement-host VLAN), the AS-level forwarding path, and whether a
// default route carried it anywhere along the way.
struct ReturnPath {
  bool reachable = false;
  net::Asn terminal;            // announcement endpoint reached
  std::vector<net::Asn> hops;   // AS-level forwarding path, source first
  bool used_default_route = false;
};

class CatchmentFib {
 public:
  // Which next-hop rule to compile. kReturnPath is the probing plane's
  // (a non-terminal originator black-holes); kTraceroute mirrors
  // Tracer::trace (it falls through to the default route instead).
  enum class NextHopRule : std::uint8_t { kReturnPath, kTraceroute };

  CatchmentFib(const bgp::BgpNetwork& network, net::Prefix prefix,
               std::span<const net::Asn> terminals,
               NextHopRule rule = NextHopRule::kReturnPath)
      : network_(network),
        prefix_(prefix),
        rule_(rule),
        terminals_(terminals.begin(), terminals.end()) {}

  CatchmentFib(const bgp::BgpNetwork& network, net::Prefix prefix,
               std::initializer_list<net::Asn> terminals,
               NextHopRule rule = NextHopRule::kReturnPath)
      : CatchmentFib(network, prefix, std::span<const net::Asn>(terminals),
                     rule) {}

  // Recompiles the table iff the prefix's mutation epoch moved (or the
  // network grew) since the last compile; otherwise a no-op. Returns
  // true when a recompile happened. Must not race queries.
  bool refresh();

  // Drops the compiled table so the next refresh() recompiles
  // unconditionally (bench cold-path knob; never needed for correctness).
  void invalidate() noexcept { compiled_ = false; }

  // O(1) terminal attribution — the (reachable, terminal,
  // used_default_route) triple of resolve(), without hops.
  struct Attribution {
    bool reachable = false;
    net::Asn terminal;
    bool used_default_route = false;
  };
  Attribution attribution(net::Asn source) const;
  // The same by dense speaker index (BgpNetwork::speaker_index), skipping
  // the ASN hash: the experiment's probe plan resolves each target's
  // source index once and reads the table here every round. `idx` must be
  // below the speaker count of the last compile.
  Attribution attribution_at(std::uint32_t idx) const;

  // §3.4 stance override: re-selects only the first hop under the
  // overridden localpref assignment, then answers from the compiled
  // table — the override never changes any *other* AS's forwarding.
  Attribution attribution_with_stance(net::Asn source,
                                      bgp::ReStance stance) const;

  // Full results with hops, reconstructed lazily from the compiled
  // next-hop array. Bit-identical to src/check's reference walker.
  ReturnPath resolve(net::Asn source) const;
  void resolve(net::Asn source, ReturnPath& out) const;

  // Raw compiled next hop of `asn` (nullopt: none, or unknown AS). The
  // tracer drives its TTL walk off this instead of per-hop RIB lookups.
  std::optional<net::Asn> next_hop(net::Asn asn) const;

  bool is_terminal(net::Asn asn) const {
    for (const net::Asn terminal : terminals_) {
      if (terminal == asn) return true;
    }
    return false;
  }

  const net::Prefix& prefix() const noexcept { return prefix_; }
  std::span<const net::Asn> terminals() const noexcept { return terminals_; }
  bool compiled() const noexcept { return compiled_; }

  // Table compiles and refreshes that found a moved epoch. Compiles also
  // add to the process-wide "fib.compiles" registry counter.
  std::uint64_t compiles() const noexcept { return compiles_; }
  std::uint64_t invalidations() const noexcept { return invalidations_; }

 private:
  static constexpr std::uint32_t kNoNext = 0xFFFFFFFFu;
  static constexpr std::uint32_t kExternalNext = 0xFFFFFFFEu;
  static constexpr std::uint32_t kNoTerminal = 0xFFFFFFFFu;
  static constexpr int kMaxHops = 64;  // the return-path hop budget

  // Terminal-attribution class of one AS for one prefix.
  enum class CatchmentClass : std::uint8_t {
    kTerminal,   // reaches an announcement terminal (check
                 // used_default_route for the via-default flavour)
    kLoop,       // forwarding loop
    kBlackHole,  // no route + no default somewhere downstream, or a
                 // non-terminal originator
  };

  void compile();
  std::size_t dense_index(net::Asn asn) const {
    const std::size_t idx = network_.speaker_index(asn);
    return idx < next_.size() ? idx : static_cast<std::size_t>(-1);
  }
  net::Asn external_of(std::uint32_t idx) const;
  // Exact hop-by-hop walk over the compiled arrays, for the rare
  // nodes whose walk would overrun the hop budget (depth >= kMaxHops) and
  // for unknown sources. Read-only; still no RIB lookups.
  Attribution walk_attribution(std::uint32_t idx) const;

  const bgp::BgpNetwork& network_;
  net::Prefix prefix_;
  NextHopRule rule_;
  std::vector<net::Asn> terminals_;

  // Compiled snapshot, all indexed by the network's dense speaker index.
  std::vector<std::uint32_t> next_;        // kNoNext / kExternalNext sentinels
  std::vector<net::Asn> asn_;              // dense index -> ASN
  std::vector<std::uint8_t> via_default_;  // this node's own edge is the
                                           // default-route fallback
  std::vector<std::uint8_t> is_terminal_;  // dense terminal membership
  std::vector<CatchmentClass> class_;
  std::vector<std::uint32_t> terminal_of_;  // index into terminals_
  std::vector<std::uint32_t> depth_;  // hops a walk takes past the source
                                      // before it returns
  std::vector<std::uint8_t> flag_;    // aggregated used_default_route
  // The rare next hops that exist as ASNs but not as speakers (linear
  // scan: approximately always empty).
  std::vector<std::pair<std::uint32_t, net::Asn>> external_;
  std::vector<std::uint32_t> stack_;  // compile scratch

  bool compiled_ = false;
  std::uint64_t epoch_ = 0;
  std::uint64_t compiles_ = 0;
  std::uint64_t invalidations_ = 0;
};

}  // namespace re::dataplane
