// Tests for the RPKI/ROA table and speaker ROV enforcement.
#include <gtest/gtest.h>

#include "bgp/rpki.h"
#include "bgp/speaker.h"

namespace re::bgp {
namespace {

using net::Asn;
using net::Prefix;

TEST(RoaTable, NotFoundWithoutCoveringRoa) {
  RoaTable table;
  EXPECT_EQ(table.validate(*Prefix::parse("10.0.0.0/24"), Asn{1}),
            RovState::kNotFound);
}

TEST(RoaTable, ExactMatchValid) {
  RoaTable table;
  table.add({*Prefix::parse("163.253.0.0/16"), 24, Asn{11537}});
  EXPECT_EQ(table.validate(*Prefix::parse("163.253.63.0/24"), Asn{11537}),
            RovState::kValid);
}

TEST(RoaTable, WrongOriginInvalid) {
  RoaTable table;
  table.add({*Prefix::parse("163.253.0.0/16"), 24, Asn{11537}});
  EXPECT_EQ(table.validate(*Prefix::parse("163.253.63.0/24"), Asn{666}),
            RovState::kInvalid);
}

TEST(RoaTable, MaxLengthEnforced) {
  RoaTable table;
  table.add({*Prefix::parse("10.0.0.0/16"), 20, Asn{1}});
  EXPECT_EQ(table.validate(*Prefix::parse("10.0.0.0/20"), Asn{1}),
            RovState::kValid);
  // A /24 is more specific than maxLength 20: invalid even from the
  // authorized origin.
  EXPECT_EQ(table.validate(*Prefix::parse("10.0.1.0/24"), Asn{1}),
            RovState::kInvalid);
}

TEST(RoaTable, AnyMatchingRoaValidates) {
  // Two ROAs for the same space: one for each origin (e.g. the paper's
  // dual-origin measurement prefix).
  RoaTable table;
  table.add({*Prefix::parse("163.253.63.0/24"), 24, Asn{11537}});
  table.add({*Prefix::parse("163.253.63.0/24"), 24, Asn{396955}});
  EXPECT_EQ(table.validate(*Prefix::parse("163.253.63.0/24"), Asn{11537}),
            RovState::kValid);
  EXPECT_EQ(table.validate(*Prefix::parse("163.253.63.0/24"), Asn{396955}),
            RovState::kValid);
  EXPECT_EQ(table.validate(*Prefix::parse("163.253.63.0/24"), Asn{1125}),
            RovState::kInvalid);
}

TEST(RoaTable, LessSpecificRoaCoversAnnouncement) {
  RoaTable table;
  table.add({*Prefix::parse("10.0.0.0/8"), 24, Asn{5}});
  EXPECT_EQ(table.validate(*Prefix::parse("10.99.3.0/24"), Asn{5}),
            RovState::kValid);
  EXPECT_EQ(table.validate(*Prefix::parse("10.99.3.0/24"), Asn{6}),
            RovState::kInvalid);
}

TEST(RoaTable, ValidateRouteUsesPathOrigin) {
  RoaTable table;
  table.add({*Prefix::parse("163.253.63.0/24"), 24, Asn{11537}});
  const AsPath path{Asn{3754}, Asn{11537}};
  EXPECT_EQ(table.validate_route(*Prefix::parse("163.253.63.0/24"), path),
            RovState::kValid);
}

// ------------------------------------------------ speaker ROV enforcement

TEST(SpeakerRov, DropsInvalidKeepsValidAndNotFound) {
  RoaTable roas;
  roas.add({*Prefix::parse("10.0.0.0/16"), 24, Asn{9}});

  Speaker s(Asn{42});
  Session session;
  session.neighbor = Asn{1};
  session.relationship = Relationship::kProvider;
  s.add_session(session);
  s.enable_rov(&roas);

  // Valid: authorized origin.
  UpdateMessage valid;
  valid.prefix = *Prefix::parse("10.0.1.0/24");
  valid.path = s.paths().intern(AsPath{Asn{1}, Asn{9}});
  EXPECT_TRUE(s.receive(Asn{1}, valid, 0));
  EXPECT_NE(s.best(valid.prefix), nullptr);

  // Invalid: wrong origin under a covering ROA — dropped.
  UpdateMessage hijack;
  hijack.prefix = *Prefix::parse("10.0.2.0/24");
  hijack.path = s.paths().intern(AsPath{Asn{1}, Asn{666}});
  EXPECT_FALSE(s.receive(Asn{1}, hijack, 0));
  EXPECT_EQ(s.best(hijack.prefix), nullptr);

  // NotFound: no covering ROA — accepted.
  UpdateMessage elsewhere;
  elsewhere.prefix = *Prefix::parse("172.16.0.0/24");
  elsewhere.path = s.paths().intern(AsPath{Asn{1}, Asn{666}});
  EXPECT_TRUE(s.receive(Asn{1}, elsewhere, 0));
  EXPECT_NE(s.best(elsewhere.prefix), nullptr);
}

TEST(SpeakerRov, InvalidUpdateImplicitlyWithdrawsPrior) {
  // A previously-valid route replaced by an invalid one disappears (the
  // update replaces the old route even though it is itself dropped).
  RoaTable roas;
  roas.add({*Prefix::parse("10.0.0.0/16"), 24, Asn{9}});
  Speaker s(Asn{42});
  Session session;
  session.neighbor = Asn{1};
  session.relationship = Relationship::kProvider;
  s.add_session(session);
  s.enable_rov(&roas);

  UpdateMessage valid;
  valid.prefix = *Prefix::parse("10.0.1.0/24");
  valid.path = s.paths().intern(AsPath{Asn{1}, Asn{9}});
  s.receive(Asn{1}, valid, 0);
  ASSERT_NE(s.best(valid.prefix), nullptr);

  UpdateMessage reorigin;  // same prefix, now from an unauthorized origin
  reorigin.prefix = valid.prefix;
  reorigin.path = s.paths().intern(AsPath{Asn{1}, Asn{666}});
  EXPECT_TRUE(s.receive(Asn{1}, reorigin, 1));
  EXPECT_EQ(s.best(valid.prefix), nullptr);
}

TEST(RovStateStrings, HumanReadable) {
  EXPECT_EQ(to_string(RovState::kNotFound), "not-found");
  EXPECT_EQ(to_string(RovState::kValid), "valid");
  EXPECT_EQ(to_string(RovState::kInvalid), "invalid");
}

}  // namespace
}  // namespace re::bgp
