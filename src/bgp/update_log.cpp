#include "bgp/update_log.h"

#include "netbase/binio.h"

namespace re::bgp {

std::unordered_map<net::Asn, AsPath> UpdateLog::rib_at(
    const net::Prefix& prefix, net::SimTime at) const {
  std::unordered_map<net::Asn, AsPath> rib;
  for (const auto& u : updates_) {
    if (u.prefix != prefix || u.time > at) continue;
    if (u.withdraw) {
      rib.erase(u.peer);
    } else {
      rib[u.peer] = paths_.path(u.path);
    }
  }
  return rib;
}

void UpdateLog::encode(net::BinaryWriter& w) const {
  // Table first, in id order (id 0 — the empty path — is implicit).
  w.u64(paths_.size());
  for (std::uint32_t id = 1; id < paths_.size(); ++id) {
    const auto span = paths_.span(PathId{id});
    w.u64(span.size());
    for (const net::Asn asn : span) w.u32(asn.value());
  }
  w.u64(updates_.size());
  for (const CollectorUpdate& u : updates_) {
    w.i64(u.time);
    w.u32(u.peer.value());
    w.u32(u.prefix.network().value());
    w.u8(u.prefix.length());
    w.boolean(u.withdraw);
    w.u32(u.path.value());
  }
}

UpdateLog UpdateLog::decode(net::BinaryReader& r) {
  UpdateLog log;
  const std::uint64_t path_count = r.length(std::uint64_t{1} << 32);
  std::vector<net::Asn> scratch;
  for (std::uint64_t id = 1; id < path_count; ++id) {
    const std::uint64_t len = r.length(1u << 20);
    scratch.clear();
    scratch.reserve(len);
    for (std::uint64_t i = 0; i < len; ++i) scratch.push_back(net::Asn{r.u32()});
    log.paths_.intern(scratch);  // re-interning in id order reproduces ids
  }
  const std::uint64_t update_count = r.length(std::uint64_t{1} << 32);
  log.updates_.reserve(update_count);
  for (std::uint64_t i = 0; i < update_count; ++i) {
    CollectorUpdate u;
    u.time = r.i64();
    u.peer = net::Asn{r.u32()};
    const std::uint32_t network = r.u32();
    u.prefix = net::Prefix(net::IPv4Address(network), r.u8());
    u.withdraw = r.boolean();
    u.path = PathId{r.u32()};
    log.updates_.push_back(u);
  }
  return log;
}

}  // namespace re::bgp
