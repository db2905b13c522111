#include "dataplane/fib.h"

#include <array>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace re::dataplane {

namespace {
constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);
}  // namespace

net::Asn CatchmentFib::external_of(std::uint32_t idx) const {
  for (const auto& [node, asn] : external_) {
    if (node == idx) return asn;
  }
  return net::Asn{};  // unreachable by construction
}

bool CatchmentFib::refresh() {
  const std::uint64_t epoch = network_.prefix_epoch(prefix_);
  if (compiled_ && epoch == epoch_ &&
      next_.size() == network_.speaker_count()) {
    return false;
  }
  if (compiled_) ++invalidations_;
  compile();
  epoch_ = epoch;
  compiled_ = true;
  ++compiles_;
  static auto& compiles = obs::registry().counter("fib.compiles");
  compiles.add();
  return true;
}

void CatchmentFib::compile() {
  RE_SPAN_ARG("fib.compile", "speakers", network_.speaker_count());
  const std::size_t n = network_.speaker_count();
  next_.assign(n, kNoNext);
  asn_.resize(n);
  via_default_.assign(n, 0);
  is_terminal_.assign(n, 0);
  class_.assign(n, CatchmentClass::kBlackHole);
  terminal_of_.assign(n, kNoTerminal);
  depth_.assign(n, 0);
  flag_.assign(n, 0);
  external_.clear();

  const auto terminal_index = [&](net::Asn asn) -> std::uint32_t {
    for (std::uint32_t t = 0; t < terminals_.size(); ++t) {
      if (terminals_[t] == asn) return t;
    }
    return kNoTerminal;
  };

  // Pass 1: snapshot every AS's single next hop for this prefix. Nodes
  // whose outcome is already final — terminals, black-hole sinks, and
  // hops leaving the modelled network — are classified here.
  for (std::size_t i = 0; i < n; ++i) {
    const bgp::Speaker& s = network_.speaker_at(i);
    asn_[i] = s.asn();
    if (is_terminal(asn_[i])) {
      is_terminal_[i] = 1;
      class_[i] = CatchmentClass::kTerminal;
      terminal_of_[i] = terminal_index(asn_[i]);
      continue;  // a root: depth 0, no flag, no next
    }

    net::Asn target;
    bool via_default = false;
    const bgp::Route* best = s.best(prefix_);
    if (best != nullptr && best->learned_from.valid()) {
      target = best->learned_from;
    } else if (best != nullptr && rule_ == NextHopRule::kReturnPath) {
      // Non-terminal originator: the return-path walker black-holes here
      // (the tracer rule falls through to the default route instead).
      continue;
    } else if (const bgp::Session* fallback = s.default_route_session();
               fallback != nullptr) {
      target = fallback->neighbor;
      via_default = true;
    } else {
      continue;  // no route, no default: a black-hole sink (depth 0)
    }

    via_default_[i] = via_default ? 1 : 0;
    const std::size_t target_idx = network_.speaker_index(target);
    if (target_idx == bgp::BgpNetwork::kNoSpeakerIndex) {
      // The hop exists as an ASN but not as a speaker. The walker pushes
      // it and then stops (terminal check first), so the node resolves
      // one hop deep either way.
      next_[i] = kExternalNext;
      external_.emplace_back(static_cast<std::uint32_t>(i), target);
      depth_[i] = 1;
      flag_[i] = via_default_[i];
      if (const std::uint32_t t = terminal_index(target); t != kNoTerminal) {
        class_[i] = CatchmentClass::kTerminal;
        terminal_of_[i] = t;
      }
      continue;
    }
    next_[i] = static_cast<std::uint32_t>(target_idx);
  }

  // Pass 2: resolve terminal attribution for all remaining nodes in one
  // iterative pass. Follow next-hop pointers with an explicit stack until
  // hitting a resolved node (unwind the chain against it — path
  // compression: every node is visited exactly once) or a node already on
  // the current chain (a cycle: classify the whole cycle as a forwarding
  // loop, then unwind the tail against it). depth_ records how many hops
  // a hop-by-hop walk takes past the source, so queries know when the
  // 64-hop budget would truncate the walk; flag_ accumulates
  // used_default_route exactly as the walk does.
  //
  // state: 0 = unresolved, 1 = on the current chain, 2 = done.
  std::vector<std::uint8_t> state(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (next_[i] == kNoNext || next_[i] == kExternalNext) state[i] = 2;
  }

  for (std::size_t i = 0; i < n; ++i) {
    if (state[i] != 0) continue;
    stack_.clear();
    std::uint32_t cur = static_cast<std::uint32_t>(i);
    while (state[cur] == 0) {
      state[cur] = 1;
      stack_.push_back(cur);
      cur = next_[cur];  // unresolved nodes always have an internal next
    }

    std::uint32_t succ = cur;
    if (state[cur] == 1) {
      // The chain bit its own tail: stack_[pos..] is a cycle.
      std::size_t pos = stack_.size() - 1;
      while (stack_[pos] != cur) --pos;
      const auto cycle_len = static_cast<std::uint32_t>(stack_.size() - pos);
      std::uint8_t cycle_flag = 0;
      for (std::size_t j = pos; j < stack_.size(); ++j) {
        cycle_flag |= via_default_[stack_[j]];
      }
      for (std::size_t j = pos; j < stack_.size(); ++j) {
        const std::uint32_t node = stack_[j];
        class_[node] = CatchmentClass::kLoop;
        depth_[node] = cycle_len;  // the walk revisits after cycle_len hops
        flag_[node] = cycle_flag;
        state[node] = 2;
      }
      succ = stack_[pos];
      stack_.resize(pos);  // the non-cycle tail unwinds below
    }

    for (std::size_t j = stack_.size(); j-- > 0;) {
      const std::uint32_t node = stack_[j];
      class_[node] = class_[succ];
      terminal_of_[node] = terminal_of_[succ];
      depth_[node] = depth_[succ] + 1;
      flag_[node] = via_default_[node] | flag_[succ];
      state[node] = 2;
      succ = node;
    }
  }
}

CatchmentFib::Attribution CatchmentFib::attribution(net::Asn source) const {
  const std::size_t idx = dense_index(source);
  if (idx == kNoIndex) {
    // No speaker: the walker still terminal-checks the source itself.
    Attribution out;
    if (is_terminal(source)) {
      out.reachable = true;
      out.terminal = source;
    }
    return out;
  }
  return attribution_at(static_cast<std::uint32_t>(idx));
}

CatchmentFib::Attribution CatchmentFib::attribution_at(
    std::uint32_t idx) const {
  // depth_ counts hops past the source; depth >= kMaxHops means the
  // hop-by-hop walk runs out of budget before finishing, truncating both the
  // outcome and the flag accumulation — replay it exactly instead.
  if (depth_[idx] >= static_cast<std::uint32_t>(kMaxHops)) {
    return walk_attribution(idx);
  }
  Attribution out;
  out.used_default_route = flag_[idx] != 0;
  if (class_[idx] == CatchmentClass::kTerminal) {
    out.reachable = true;
    out.terminal = terminals_[terminal_of_[idx]];
  }
  return out;
}

CatchmentFib::Attribution CatchmentFib::walk_attribution(
    std::uint32_t start) const {
  // The hop-by-hop walk replayed over the compiled arrays: same hop budget,
  // same visited semantics, same flag accumulation order — just array
  // reads instead of RIB lookups. Only reached for walks the budget
  // truncates, so the O(hops^2) visited scan is bounded and rare.
  Attribution out;
  bool flag = false;
  std::array<std::uint32_t, kMaxHops> visited;
  int visited_count = 0;
  std::uint32_t cur = start;
  bool external = false;
  net::Asn external_asn;
  for (int hop = 0; hop < kMaxHops; ++hop) {
    if (external) {
      if (is_terminal(external_asn)) {
        out.reachable = true;
        out.terminal = external_asn;
      }
      out.used_default_route = flag;
      return out;
    }
    if (is_terminal_[cur] != 0) {
      out.reachable = true;
      out.terminal = asn_[cur];
      out.used_default_route = flag;
      return out;
    }
    bool seen = false;
    for (int v = 0; v < visited_count; ++v) {
      if (visited[v] == cur) {
        seen = true;
        break;
      }
    }
    if (seen) break;  // forwarding loop
    visited[visited_count++] = cur;
    const std::uint32_t nxt = next_[cur];
    if (nxt == kNoNext) break;  // black hole
    flag |= via_default_[cur] != 0;
    if (nxt == kExternalNext) {
      external = true;
      external_asn = external_of(cur);
    } else {
      cur = nxt;
    }
  }
  out.used_default_route = flag;
  return out;
}

CatchmentFib::Attribution CatchmentFib::attribution_with_stance(
    net::Asn source, bgp::ReStance stance) const {
  if (is_terminal(source)) return attribution(source);
  const bgp::Speaker* speaker = network_.speaker(source);
  if (speaker == nullptr) return Attribution{};

  std::vector<bgp::Route> candidates = speaker->candidates(prefix_);
  if (candidates.empty()) return attribution(source);  // default-route path
  bgp::ImportPolicy policy = speaker->import_policy();
  policy.re_stance = stance;
  for (bgp::Route& candidate : candidates) {
    if (!candidate.learned_from.valid()) continue;
    if (const bgp::Session* session =
            speaker->session_to(candidate.learned_from)) {
      candidate.local_pref = policy.local_pref_for(*session);
    }
  }
  const bgp::DecisionResult chosen =
      bgp::select_best(candidates, speaker->decision());
  const bgp::Route& best = candidates[chosen.best_index];
  if (!best.learned_from.valid()) return Attribution{};
  // The override only re-selects this AS's own egress; everything past
  // the first hop forwards normally — one O(1) table lookup.
  return attribution(best.learned_from);
}

ReturnPath CatchmentFib::resolve(net::Asn source) const {
  ReturnPath out;
  resolve(source, out);
  return out;
}

void CatchmentFib::resolve(net::Asn source, ReturnPath& out) const {
  out.reachable = false;
  out.terminal = net::Asn{};
  out.used_default_route = false;
  out.hops.clear();

  std::array<std::uint32_t, kMaxHops> visited;
  int visited_count = 0;
  std::size_t idx = dense_index(source);
  net::Asn cur_asn = source;
  bool external = idx == kNoIndex;
  for (int hop = 0; hop < kMaxHops; ++hop) {
    out.hops.push_back(cur_asn);
    if (is_terminal(cur_asn)) {
      out.reachable = true;
      out.terminal = cur_asn;
      return;
    }
    if (external) return;  // no speaker behind this ASN
    const auto cur = static_cast<std::uint32_t>(idx);
    for (int v = 0; v < visited_count; ++v) {
      if (visited[v] == cur) return;  // forwarding loop
    }
    visited[visited_count++] = cur;
    const std::uint32_t nxt = next_[cur];
    if (nxt == kNoNext) return;  // black hole (or non-terminal originator)
    if (via_default_[cur] != 0) out.used_default_route = true;
    if (nxt == kExternalNext) {
      external = true;
      cur_asn = external_of(cur);
    } else {
      idx = nxt;
      cur_asn = asn_[nxt];
    }
  }
  // Hop limit exceeded.
}

std::optional<net::Asn> CatchmentFib::next_hop(net::Asn asn) const {
  const std::size_t idx = dense_index(asn);
  if (idx == kNoIndex) return std::nullopt;
  const std::uint32_t nxt = next_[idx];
  if (nxt == kNoNext) return std::nullopt;
  if (nxt == kExternalNext) {
    return external_of(static_cast<std::uint32_t>(idx));
  }
  return asn_[nxt];
}

}  // namespace re::dataplane
