#include "topology/as_graph.h"

#include <algorithm>

namespace re::topo {

std::string to_string(AsClass c) {
  switch (c) {
    case AsClass::kTier1: return "tier1";
    case AsClass::kTransit: return "transit";
    case AsClass::kReBackbone: return "re-backbone";
    case AsClass::kNren: return "nren";
    case AsClass::kRegional: return "regional";
    case AsClass::kMember: return "member";
    case AsClass::kOther: return "other";
  }
  return "?";
}

std::string to_string(ReSide s) {
  return s == ReSide::kParticipant ? "participant" : "peer-nren";
}

AsRecord& AsDirectory::add(AsRecord record) {
  const auto it = by_asn_.find(record.asn);
  if (it != by_asn_.end()) {
    records_[it->second] = std::move(record);
    return records_[it->second];
  }
  by_asn_[record.asn] = records_.size();
  records_.push_back(std::move(record));
  return records_.back();
}

bool AsDirectory::erase(net::Asn asn) {
  const auto it = by_asn_.find(asn);
  if (it == by_asn_.end()) return false;
  const std::size_t index = it->second;
  by_asn_.erase(it);
  if (index + 1 != records_.size()) {
    records_[index] = std::move(records_.back());
    by_asn_[records_[index].asn] = index;
  }
  records_.pop_back();
  return true;
}

const AsRecord* AsDirectory::find(net::Asn asn) const {
  const auto it = by_asn_.find(asn);
  return it == by_asn_.end() ? nullptr : &records_[it->second];
}

AsRecord* AsDirectory::find(net::Asn asn) {
  const auto it = by_asn_.find(asn);
  return it == by_asn_.end() ? nullptr : &records_[it->second];
}

std::vector<net::Asn> AsDirectory::all() const {
  std::vector<net::Asn> out;
  out.reserve(records_.size());
  for (const AsRecord& r : records_) out.push_back(r.asn);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace re::topo
