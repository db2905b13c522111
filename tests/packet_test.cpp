// Tests for the probe-packet codec: checksums, header round-trips, probe
// construction, response matching, and corruption rejection.
#include <gtest/gtest.h>

#include <string>

#include "probing/packet.h"
#include "probing/seeds.h"
#include "topology/ecosystem.h"

namespace re::probing {
namespace {

const net::IPv4Address kSource = *net::IPv4Address::parse("163.253.63.63");
const net::IPv4Address kTarget = *net::IPv4Address::parse("128.9.1.1");

TEST(Checksum, KnownVector) {
  // RFC 1071 example: 0001 f203 f4f5 f6f7 -> checksum 0x220d.
  const std::uint8_t data[] = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(internet_checksum(data), 0x220d);
}

TEST(Checksum, OddLengthPadsWithZero) {
  const std::uint8_t even[] = {0xab, 0xcd, 0x12, 0x00};
  const std::uint8_t odd[] = {0xab, 0xcd, 0x12};
  EXPECT_EQ(internet_checksum(even), internet_checksum(odd));
}

TEST(Checksum, SelfVerifies) {
  // A block with its own checksum embedded sums to zero.
  std::uint8_t data[] = {0x45, 0x00, 0x00, 0x1c, 0x12, 0x34, 0x00, 0x00,
                         0x40, 0x01, 0x00, 0x00, 0x0a, 0x00, 0x00, 0x01,
                         0x0a, 0x00, 0x00, 0x02};
  const std::uint16_t checksum = internet_checksum(data);
  data[10] = static_cast<std::uint8_t>(checksum >> 8);
  data[11] = static_cast<std::uint8_t>(checksum);
  EXPECT_EQ(internet_checksum(data), 0);
}

TEST(Ipv4Header, EncodeDecodeRoundTrip) {
  Ipv4Header header;
  header.ttl = 63;
  header.protocol = 6;
  header.source = kSource;
  header.destination = kTarget;
  header.identification = 4242;
  header.total_length = 40;
  const auto bytes = header.encode();
  const auto decoded = Ipv4Header::decode(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->ttl, 63);
  EXPECT_EQ(decoded->protocol, 6);
  EXPECT_EQ(decoded->source, kSource);
  EXPECT_EQ(decoded->destination, kTarget);
  EXPECT_EQ(decoded->identification, 4242);
  EXPECT_EQ(decoded->total_length, 40);
}

TEST(Ipv4Header, RejectsCorruption) {
  Ipv4Header header;
  header.source = kSource;
  header.destination = kTarget;
  auto bytes = header.encode();
  bytes[15] ^= 0xff;  // flip a source-address byte
  EXPECT_FALSE(Ipv4Header::decode(bytes).has_value());
}

TEST(Ipv4Header, RejectsTruncationAndWrongVersion) {
  Ipv4Header header;
  auto bytes = header.encode();
  EXPECT_FALSE(
      Ipv4Header::decode(std::span(bytes).subspan(0, 10)).has_value());
  bytes[0] = 0x55;  // version 5
  EXPECT_FALSE(Ipv4Header::decode(bytes).has_value());
}

TEST(IcmpMessage, EchoRoundTrip) {
  IcmpMessage echo;
  echo.type = IcmpType::kEchoRequest;
  echo.identifier = 77;
  echo.sequence = 1234;
  const auto bytes = echo.encode();
  const auto decoded = IcmpMessage::decode(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->type, IcmpType::kEchoRequest);
  EXPECT_EQ(decoded->identifier, 77);
  EXPECT_EQ(decoded->sequence, 1234);
}

TEST(IcmpMessage, RejectsBadChecksum) {
  IcmpMessage echo;
  auto bytes = echo.encode();
  bytes[5] ^= 0x01;
  EXPECT_FALSE(IcmpMessage::decode(bytes).has_value());
}

TEST(TcpHeader, SynRoundTrip) {
  TcpHeader tcp;
  tcp.source_port = 33000;
  tcp.destination_port = 443;
  tcp.sequence = 0xdeadbeef;
  tcp.syn = true;
  const auto bytes = tcp.encode();
  const auto decoded = TcpHeader::decode(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->source_port, 33000);
  EXPECT_EQ(decoded->destination_port, 443);
  EXPECT_EQ(decoded->sequence, 0xdeadbeefu);
  EXPECT_TRUE(decoded->syn);
  EXPECT_FALSE(decoded->ack);
  EXPECT_FALSE(decoded->rst);
}

TEST(TcpHeader, FlagsEncodeIndependently) {
  TcpHeader tcp;
  tcp.syn = tcp.ack = true;
  const auto decoded = TcpHeader::decode(tcp.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->syn);
  EXPECT_TRUE(decoded->ack);
  EXPECT_FALSE(decoded->fin);
}

TEST(UdpHeader, RoundTrip) {
  UdpHeader udp;
  udp.source_port = 33001;
  udp.destination_port = 53;
  udp.length = 8;
  const auto decoded = UdpHeader::decode(udp.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->source_port, 33001);
  EXPECT_EQ(decoded->destination_port, 53);
}

// ------------------------------------------------------------- factory

class PacketFactoryTest : public ::testing::Test {
 protected:
  PacketFactory factory_{kSource, 0x4a17};
};

TEST_F(PacketFactoryTest, IcmpProbeResponseMatches) {
  const ProbePacket probe =
      factory_.make_probe({kTarget, ProbeMethod::kIcmpEcho, 0, {}});
  EXPECT_EQ(probe.bytes.size(), Ipv4Header::kSize + IcmpMessage::kSize);
  const auto response = factory_.make_response(probe);
  EXPECT_TRUE(factory_.matches(probe, response));
}

TEST_F(PacketFactoryTest, TcpProbeResponseMatches) {
  const ProbePacket probe =
      factory_.make_probe({kTarget, ProbeMethod::kTcpSyn, 443, {}});
  const auto tcp =
      TcpHeader::decode(std::span(probe.bytes).subspan(Ipv4Header::kSize));
  ASSERT_TRUE(tcp.has_value());
  EXPECT_TRUE(tcp->syn);
  EXPECT_EQ(tcp->destination_port, 443);
  const auto response = factory_.make_response(probe);
  EXPECT_TRUE(factory_.matches(probe, response));
  // The response is a SYN-ACK acknowledging our sequence + 1.
  const auto rtcp =
      TcpHeader::decode(std::span(response).subspan(Ipv4Header::kSize));
  ASSERT_TRUE(rtcp.has_value());
  EXPECT_EQ(rtcp->acknowledgment, tcp->sequence + 1);
}

TEST_F(PacketFactoryTest, UdpProbeUnreachableMatches) {
  const ProbePacket probe =
      factory_.make_probe({kTarget, ProbeMethod::kUdp, 53, {}});
  const auto response = factory_.make_response(probe);
  // ICMP port unreachable quoting the probe.
  const auto ip = Ipv4Header::decode(response);
  ASSERT_TRUE(ip.has_value());
  EXPECT_EQ(ip->protocol, 1);
  EXPECT_TRUE(factory_.matches(probe, response));
}

TEST_F(PacketFactoryTest, ResponsesToOtherProbesDoNotMatch) {
  const ProbePacket a =
      factory_.make_probe({kTarget, ProbeMethod::kIcmpEcho, 0, {}});
  const ProbePacket b =
      factory_.make_probe({kTarget, ProbeMethod::kIcmpEcho, 0, {}});
  const auto response_b = factory_.make_response(b);
  EXPECT_FALSE(factory_.matches(a, response_b));  // wrong sequence
  EXPECT_TRUE(factory_.matches(b, response_b));
}

TEST_F(PacketFactoryTest, CrossMethodResponsesRejected) {
  const ProbePacket icmp =
      factory_.make_probe({kTarget, ProbeMethod::kIcmpEcho, 0, {}});
  const ProbePacket tcp =
      factory_.make_probe({kTarget, ProbeMethod::kTcpSyn, 80, {}});
  EXPECT_FALSE(factory_.matches(icmp, factory_.make_response(tcp)));
  EXPECT_FALSE(factory_.matches(tcp, factory_.make_response(icmp)));
}

TEST_F(PacketFactoryTest, ResponseToDifferentHostRejected) {
  PacketFactory other(*net::IPv4Address::parse("192.0.2.1"), 0x4a17);
  const ProbePacket probe =
      factory_.make_probe({kTarget, ProbeMethod::kIcmpEcho, 0, {}});
  const auto response = factory_.make_response(probe);
  EXPECT_FALSE(other.matches(probe, response));  // not our address
}

TEST_F(PacketFactoryTest, SequenceNumbersAdvance) {
  const ProbePacket a =
      factory_.make_probe({kTarget, ProbeMethod::kIcmpEcho, 0, {}});
  const ProbePacket b =
      factory_.make_probe({kTarget, ProbeMethod::kIcmpEcho, 0, {}});
  EXPECT_NE(a.match_seq, b.match_seq);
}

TEST_F(PacketFactoryTest, ProbeSourceIsMeasurementAddress) {
  const ProbePacket probe =
      factory_.make_probe({kTarget, ProbeMethod::kUdp, 123, {}});
  const auto ip = Ipv4Header::decode(probe.bytes);
  ASSERT_TRUE(ip.has_value());
  EXPECT_EQ(ip->source, kSource);
  EXPECT_EQ(ip->destination, kTarget);
}

// The prober records routing outcomes without building packets, so the
// codec's agreement with the probe plan is checked here instead: every
// target re_survey --scale 0.05 selects (the SurveyDigestPin world) must
// encode, be answered, and match back, and an answer must not match the
// factory's next probe.
TEST_F(PacketFactoryTest, EverySelectedSeedTargetRoundTrips) {
  topo::EcosystemParams params = topo::EcosystemParams{}.scaled(0.05);
  params.seed = 20250529;
  const topo::Ecosystem ecosystem = topo::Ecosystem::generate(params);
  const SeedDatabase db =
      SeedDatabase::generate(ecosystem, SeedGenParams{});
  const SelectionResult selection = select_probe_seeds(ecosystem, db, 11);
  ASSERT_FALSE(selection.seeds.empty());

  std::size_t unmatched = 0, cross_matched = 0;
  std::size_t by_method[3] = {0, 0, 0};
  std::string first_failure;
  for (const PrefixSeeds& prefix : selection.seeds) {
    for (const ProbeTarget& target : prefix.targets) {
      ++by_method[static_cast<std::size_t>(target.method)];
      const ProbePacket probe = factory_.make_probe(target);
      const auto response = factory_.make_response(probe);
      const bool matched = factory_.matches(probe, response);
      const bool next_matched =
          factory_.matches(factory_.make_probe(target), response);
      unmatched += matched ? 0 : 1;
      cross_matched += next_matched ? 1 : 0;
      if ((!matched || next_matched) && first_failure.empty()) {
        first_failure = target.address.to_string();
      }
    }
  }
  EXPECT_EQ(unmatched, 0u) << "first failing target " << first_failure;
  EXPECT_EQ(cross_matched, 0u) << "first failing target " << first_failure;
  EXPECT_GT(by_method[static_cast<std::size_t>(ProbeMethod::kIcmpEcho)], 0u);
  EXPECT_GT(by_method[static_cast<std::size_t>(ProbeMethod::kTcpSyn)], 0u);
  EXPECT_GT(by_method[static_cast<std::size_t>(ProbeMethod::kUdp)], 0u);
}

}  // namespace
}  // namespace re::probing
