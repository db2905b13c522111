#include "bgp/rpki.h"

namespace re::bgp {

std::string to_string(RovState s) {
  switch (s) {
    case RovState::kNotFound: return "not-found";
    case RovState::kValid: return "valid";
    case RovState::kInvalid: return "invalid";
  }
  return "?";
}

void RoaTable::add(Roa roa) {
  if (std::vector<Roa>* bucket = trie_.find(roa.prefix)) {
    bucket->push_back(roa);
  } else {
    trie_.insert(roa.prefix, {roa});
  }
  ++count_;
}

RovState RoaTable::validate(const net::Prefix& prefix, net::Asn origin) const {
  bool covered = false;
  // Walk all covering ROA prefixes (the announced prefix itself and every
  // less-specific position).
  for (std::uint8_t len = 0; len <= prefix.length(); ++len) {
    const net::Prefix candidate(prefix.network(), len);
    const std::vector<Roa>* bucket = trie_.find(candidate);
    if (bucket == nullptr) continue;
    for (const Roa& roa : *bucket) {
      if (!roa.prefix.covers(prefix)) continue;
      covered = true;
      if (roa.origin == origin && prefix.length() <= roa.max_length) {
        return RovState::kValid;
      }
    }
  }
  return covered ? RovState::kInvalid : RovState::kNotFound;
}

}  // namespace re::bgp
