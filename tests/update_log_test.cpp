// Tests for the collector update log (RIB reconstruction, clearing).
#include <gtest/gtest.h>

#include "bgp/update_log.h"

namespace re::bgp {
namespace {

using net::Asn;
using net::Prefix;

const Prefix kPrefix = *Prefix::parse("163.253.63.0/24");

// record() interns the path into the log's own table.
void record(UpdateLog& log, net::SimTime t, Asn peer, bool withdraw,
            const AsPath& path = AsPath{}) {
  log.record(t, peer, kPrefix, withdraw, path);
}

TEST(UpdateLog, RibAtReconstructsLatestState) {
  UpdateLog log;
  record(log, 10, Asn{1}, false, AsPath{Asn{1}, Asn{9}});
  record(log, 20, Asn{2}, false, AsPath{Asn{2}, Asn{9}});
  record(log, 30, Asn{1}, false, AsPath{Asn{1}, Asn{8}, Asn{9}});
  record(log, 40, Asn{2}, true);

  const auto at25 = log.rib_at(kPrefix, 25);
  ASSERT_EQ(at25.size(), 2u);
  EXPECT_EQ(at25.at(Asn{1}).length(), 2u);

  const auto at35 = log.rib_at(kPrefix, 35);
  EXPECT_EQ(at35.at(Asn{1}).length(), 3u);  // replaced by the newer path
  EXPECT_TRUE(at35.count(Asn{2}));

  const auto at45 = log.rib_at(kPrefix, 45);
  EXPECT_FALSE(at45.count(Asn{2}));  // withdrawn
  EXPECT_TRUE(at45.count(Asn{1}));
}

TEST(UpdateLog, RibAtBoundaryIsInclusive) {
  UpdateLog log;
  record(log, 10, Asn{1}, false, AsPath{Asn{1}, Asn{9}});
  EXPECT_TRUE(log.rib_at(kPrefix, 10).count(Asn{1}));
  EXPECT_FALSE(log.rib_at(kPrefix, 9).count(Asn{1}));
}

TEST(UpdateLog, ClearEmptiesLog) {
  UpdateLog log;
  record(log, 10, Asn{1}, false);
  log.clear();
  EXPECT_EQ(log.size(), 0u);
  EXPECT_TRUE(log.updates().empty());
}

}  // namespace
}  // namespace re::bgp
