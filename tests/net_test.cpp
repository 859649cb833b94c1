// Unit tests for the net substrate: addressing, links, queues, routing,
// TTL/ICMP, netem, capture taps.

#include <gtest/gtest.h>

#include "net/netem.hpp"
#include "net/node.hpp"
#include "net/packet.hpp"

namespace msim {
namespace {

Packet makeUdpPacket(Ipv4Address src, Ipv4Address dst, std::int64_t bytes) {
  Packet p;
  p.uid = nextPacketUid();
  p.src = src;
  p.dst = dst;
  p.proto = IpProto::Udp;
  p.overheadBytes = wire::kEthIpUdp;
  p.payloadBytes = ByteSize::bytes(bytes);
  return p;
}

// ------------------------------------------------------------------ Address

TEST(AddressTest, DottedQuadFormat) {
  EXPECT_EQ(Ipv4Address(10, 1, 2, 3).toString(), "10.1.2.3");
  EXPECT_EQ(Ipv4Address{}.toString(), "0.0.0.0");
  EXPECT_TRUE(Ipv4Address{}.isUnspecified());
}

TEST(AddressTest, PrefixMatching) {
  const Ipv4Address addr{10, 1, 2, 3};
  EXPECT_TRUE(addr.inPrefix(Ipv4Address(10, 1, 0, 0), 16));
  EXPECT_TRUE(addr.inPrefix(Ipv4Address(10, 1, 2, 3), 32));
  EXPECT_FALSE(addr.inPrefix(Ipv4Address(10, 2, 0, 0), 16));
  EXPECT_TRUE(addr.inPrefix(Ipv4Address{}, 0));  // default route matches all
}

TEST(AddressTest, EndpointEqualityAndHash) {
  const Endpoint a{Ipv4Address(1, 2, 3, 4), 80};
  const Endpoint b{Ipv4Address(1, 2, 3, 4), 80};
  const Endpoint c{Ipv4Address(1, 2, 3, 4), 81};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.toString(), "1.2.3.4:80");
}

// ------------------------------------------------------------------- Packet

TEST(PacketTest, WireSizeIncludesOverhead) {
  const auto p = makeUdpPacket(Ipv4Address(1, 0, 0, 1), Ipv4Address(1, 0, 0, 2), 100);
  EXPECT_EQ(p.wireSize().toBytes(), 100 + wire::kEthIpUdp);
}

TEST(PacketTest, HeaderVariantAccess) {
  Packet p;
  EXPECT_EQ(p.tcp(), nullptr);
  EXPECT_EQ(p.icmp(), nullptr);
  p.l4 = TcpHeader{};
  EXPECT_NE(p.tcp(), nullptr);
  p.l4 = IcmpHeader{};
  EXPECT_NE(p.icmp(), nullptr);
}

// ----------------------------------------------------------- link transport

class TwoNodeFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    a = &net.addNode("a");
    b = &net.addNode("b");
    a->addAddress(Ipv4Address(10, 0, 0, 1));
    b->addAddress(Ipv4Address(10, 0, 0, 2));
    LinkConfig cfg;
    cfg.rate = DataRate::mbps(8);           // 1 byte per microsecond
    cfg.delay = Duration::millis(1);
    auto [devA, devB] = Link::connect(*a, *b, cfg);
    a->setDefaultRoute(devA);
    b->setDefaultRoute(devB);
    this->devA = &devA;
    this->devB = &devB;
  }

  Simulator sim{1};
  Network net{sim};
  Node* a{};
  Node* b{};
  NetDevice* devA{};
  NetDevice* devB{};
};

TEST_F(TwoNodeFixture, DeliversWithSerializationPlusPropagation) {
  TimePoint arrival;
  b->setLocalHandler([&](const Packet&) { arrival = sim.now(); });
  // 1000 B payload + 42 B overhead = 1042 B -> 1.042 ms at 8 Mbps, + 1 ms prop.
  a->sendFromLocal(makeUdpPacket(a->primaryAddress(), b->primaryAddress(), 1000));
  sim.run();
  EXPECT_NEAR(arrival.toMillis(), 1.042 + 1.0, 1e-6);
}

TEST_F(TwoNodeFixture, BackToBackPacketsSerialize) {
  std::vector<double> arrivals;
  b->setLocalHandler([&](const Packet&) { arrivals.push_back(sim.now().toMillis()); });
  for (int i = 0; i < 3; ++i) {
    a->sendFromLocal(makeUdpPacket(a->primaryAddress(), b->primaryAddress(), 958));
  }
  sim.run();
  ASSERT_EQ(arrivals.size(), 3u);
  // 1000 B wire each -> 1 ms serialization; arrivals 1 ms apart.
  EXPECT_NEAR(arrivals[1] - arrivals[0], 1.0, 1e-6);
  EXPECT_NEAR(arrivals[2] - arrivals[1], 1.0, 1e-6);
}

TEST_F(TwoNodeFixture, QueueOverflowDropsTail) {
  // Shrink the queue: reconnect with a tiny limit.
  LinkConfig cfg;
  cfg.rate = DataRate::kbps(80);  // slow: 100 ms per 1000 B packet
  cfg.delay = Duration::millis(1);
  cfg.queueLimit = ByteSize::bytes(2100);  // about two packets
  auto [devA2, devB2] = Link::connect(*a, *b, cfg);
  a->setDefaultRoute(devA2);
  int received = 0;
  b->setLocalHandler([&](const Packet&) { ++received; });
  for (int i = 0; i < 10; ++i) {
    a->sendFromLocal(makeUdpPacket(a->primaryAddress(), b->primaryAddress(), 958));
  }
  sim.run();
  EXPECT_LT(received, 10);
  EXPECT_GT(devA2.queueDrops(), 0u);
  EXPECT_EQ(received + static_cast<int>(devA2.queueDrops()), 10);
}

TEST_F(TwoNodeFixture, LoopbackDeliversLocally) {
  int received = 0;
  a->setLocalHandler([&](const Packet&) { ++received; });
  a->sendFromLocal(makeUdpPacket(a->primaryAddress(), a->primaryAddress(), 10));
  sim.run();
  EXPECT_EQ(received, 1);
}

TEST_F(TwoNodeFixture, UnroutableCountsDrop) {
  Node& c = net.addNode("c");
  c.addAddress(Ipv4Address(10, 0, 0, 3));
  c.sendFromLocal(makeUdpPacket(c.primaryAddress(), a->primaryAddress(), 10));
  sim.run();
  EXPECT_EQ(c.unroutableDrops(), 1u);
}

TEST_F(TwoNodeFixture, TapsSeeBothDirections) {
  int egress = 0;
  int ingress = 0;
  devA->addTap([&](const Packet&, TapDir dir) {
    (dir == TapDir::Egress ? egress : ingress) += 1;
  });
  b->setLocalHandler([](const Packet&) {});
  a->sendFromLocal(makeUdpPacket(a->primaryAddress(), b->primaryAddress(), 100));
  sim.run();
  EXPECT_EQ(egress, 1);
  EXPECT_EQ(ingress, 0);  // no reply yet
  b->sendFromLocal(makeUdpPacket(b->primaryAddress(), a->primaryAddress(), 100));
  a->setLocalHandler([](const Packet&) {});
  sim.run();
  EXPECT_EQ(ingress, 1);
}

// --------------------------------------------------------- link event model
//
// The device schedules each packet's arrival when its transmission starts;
// a wake at the end of the current transmission exists only while packets
// wait in the drop-tail queue.

TEST_F(TwoNodeFixture, UncontendedHopIsOneEvent) {
  TimePoint arrival;
  b->setLocalHandler([&](const Packet&) { arrival = sim.now(); });
  a->sendFromLocal(makeUdpPacket(a->primaryAddress(), b->primaryAddress(), 958));
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(sim.executedEvents(), 1u);
  EXPECT_NEAR(arrival.toMillis(), 1.0 + 1.0, 1e-6);
}

TEST_F(TwoNodeFixture, BurstCostsOneArrivalPerPacketPlusOneWakePerQueuedPacket) {
  std::vector<double> arrivals;
  b->setLocalHandler([&](const Packet&) { arrivals.push_back(sim.now().toMillis()); });
  for (int i = 0; i < 3; ++i) {
    a->sendFromLocal(makeUdpPacket(a->primaryAddress(), b->primaryAddress(), 958));
  }
  EXPECT_EQ(devA->queuedBytes().toBytes(), 2 * 1000);
  sim.run();
  EXPECT_EQ(sim.executedEvents(), 3u + 2u);
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_NEAR(arrivals[0], 2.0, 1e-6);
  EXPECT_NEAR(arrivals[1] - arrivals[0], 1.0, 1e-6);
  EXPECT_NEAR(arrivals[2] - arrivals[1], 1.0, 1e-6);
  EXPECT_EQ(devA->queuedBytes().toBytes(), 0);
}

TEST_F(TwoNodeFixture, EnqueueExactlyAtBusyUntilStartsWithoutWaiting) {
  std::vector<TimePoint> arrivals;
  b->setLocalHandler([&](const Packet&) { arrivals.push_back(sim.now()); });
  a->sendFromLocal(makeUdpPacket(a->primaryAddress(), b->primaryAddress(), 958));
  // The first transmission ends exactly here; the device is idle again.
  const TimePoint busyUntil =
      TimePoint::epoch() + DataRate::mbps(8).transmissionTime(ByteSize::bytes(1000));
  sim.schedule(busyUntil, [&] {
    a->sendFromLocal(makeUdpPacket(a->primaryAddress(), b->primaryAddress(), 958));
    EXPECT_EQ(devA->queuedBytes().toBytes(), 0);
  });
  sim.run();
  // Two arrivals plus the injected send; no wake.
  EXPECT_EQ(sim.executedEvents(), 3u);
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[1] - arrivals[0], busyUntil - TimePoint::epoch());
}

TEST_F(TwoNodeFixture, MixedContendedAndIdleTrafficArrivesInFifoOrder) {
  std::vector<std::uint64_t> sent;
  std::vector<std::uint64_t> received;
  std::vector<double> arrivals;
  b->setLocalHandler([&](const Packet& p) {
    received.push_back(p.uid);
    arrivals.push_back(sim.now().toMillis());
  });
  auto sendAt = [&](double ms, std::int64_t payload) {
    sim.schedule(TimePoint::epoch() + Duration::millis(ms), [&, payload] {
      Packet p = makeUdpPacket(a->primaryAddress(), b->primaryAddress(), payload);
      sent.push_back(p.uid);
      a->sendFromLocal(std::move(p));
    });
  };
  // A burst that queues (sizes differ, so serialization times differ), a
  // packet that lands while the burst is still transmitting, an idle-device
  // packet, and a second burst behind it.
  sendAt(0.0, 958);
  sendAt(0.0, 158);
  sendAt(0.0, 1958);
  sendAt(0.5, 58);
  sendAt(20.0, 458);
  sendAt(20.0, 58);
  sendAt(20.1, 958);
  sim.run();
  EXPECT_EQ(received, sent);
  ASSERT_EQ(arrivals.size(), 7u);
  // Wire sizes 1000/200/2000/100 us back to back from t=0, then 500/100/1000
  // from t=20 ms; every arrival is transmit end + 1 ms propagation.
  const std::vector<double> expected = {2.0, 2.2, 4.2, 4.3, 21.5, 21.6, 22.6};
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(arrivals[i], expected[i], 1e-6) << "packet " << i;
  }
}

TEST_F(TwoNodeFixture, NetemHoldLandsAtHoldPlusSerializationPlusPropagation) {
  NetemConfig cfg;
  cfg.delay = Duration::millis(5);
  devA->netem().configure(cfg);
  std::vector<double> arrivals;
  b->setLocalHandler([&](const Packet&) { arrivals.push_back(sim.now().toMillis()); });
  a->sendFromLocal(makeUdpPacket(a->primaryAddress(), b->primaryAddress(), 958));
  a->sendFromLocal(makeUdpPacket(a->primaryAddress(), b->primaryAddress(), 958));
  sim.run();
  ASSERT_EQ(arrivals.size(), 2u);
  // 5 ms hold + 1 ms serialization + 1 ms propagation; the second packet is
  // released at the same instant and serializes behind the first.
  EXPECT_NEAR(arrivals[0], 5.0 + 1.0 + 1.0, 1e-6);
  EXPECT_NEAR(arrivals[1], 5.0 + 2.0 + 1.0, 1e-6);
}

TEST_F(TwoNodeFixture, EgressTapSendingOnItsOwnDeviceQueuesBehind) {
  // Taps fire at transmit start with the device already busy, so a tap that
  // sends re-entrantly queues behind the packet it saw instead of
  // overlapping it on the wire.
  bool sentFromTap = false;
  devA->addTap([&](const Packet&, TapDir dir) {
    if (dir != TapDir::Egress || sentFromTap) return;
    sentFromTap = true;
    a->sendFromLocal(makeUdpPacket(a->primaryAddress(), b->primaryAddress(), 958));
  });
  std::vector<double> arrivals;
  b->setLocalHandler([&](const Packet&) { arrivals.push_back(sim.now().toMillis()); });
  a->sendFromLocal(makeUdpPacket(a->primaryAddress(), b->primaryAddress(), 958));
  sim.run();
  EXPECT_EQ(sim.executedEvents(), 2u + 1u);
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_NEAR(arrivals[0], 2.0, 1e-6);
  EXPECT_NEAR(arrivals[1], 3.0, 1e-6);
}

TEST_F(TwoNodeFixture, PacketStorageIsRecycledAcrossBursts) {
  int received = 0;
  b->setLocalHandler([&](const Packet&) { ++received; });
  auto burst = [&] {
    for (int i = 0; i < 100; ++i) {
      a->sendFromLocal(makeUdpPacket(a->primaryAddress(), b->primaryAddress(), 158));
    }
    sim.run();
  };
  burst();
  const std::size_t chunks = net.packetChunks().allocatedChunks();
  EXPECT_GT(chunks, 0u);
  burst();
  burst();
  EXPECT_EQ(received, 300);
  EXPECT_EQ(net.packetChunks().allocatedChunks(), chunks);
}

// ------------------------------------------------------------------ routing

TEST(RoutingTest, LongestPrefixWins) {
  Simulator sim;
  Network net{sim};
  Node& r = net.addNode("r");
  Node& n1 = net.addNode("n1");
  Node& n2 = net.addNode("n2");
  n1.addAddress(Ipv4Address(10, 1, 0, 1));
  n2.addAddress(Ipv4Address(10, 1, 2, 1));
  LinkConfig cfg;
  auto [r1, n1d] = Link::connect(r, n1, cfg);
  auto [r2, n2d] = Link::connect(r, n2, cfg);
  r.addPrefixRoute(Ipv4Address(10, 1, 0, 0), 16, r1);
  r.addPrefixRoute(Ipv4Address(10, 1, 2, 0), 24, r2);
  EXPECT_EQ(r.route(Ipv4Address(10, 1, 0, 5)), &r1);
  EXPECT_EQ(r.route(Ipv4Address(10, 1, 2, 5)), &r2);
  EXPECT_EQ(r.route(Ipv4Address(9, 9, 9, 9)), nullptr);
}

TEST(RoutingTest, MultiHopForwardingDecrementsTtl) {
  Simulator sim;
  Network net{sim};
  Node& src = net.addNode("src");
  Node& r1 = net.addNode("r1");
  Node& r2 = net.addNode("r2");
  Node& dst = net.addNode("dst");
  src.addAddress(Ipv4Address(10, 0, 0, 1));
  dst.addAddress(Ipv4Address(10, 0, 0, 9));
  LinkConfig cfg;
  auto [s1, r1a] = Link::connect(src, r1, cfg);
  auto [r1b, r2a] = Link::connect(r1, r2, cfg);
  auto [r2b, d1] = Link::connect(r2, dst, cfg);
  src.setDefaultRoute(s1);
  r1.setDefaultRoute(r1b);
  r2.setDefaultRoute(r2b);
  dst.setDefaultRoute(d1);

  std::uint8_t ttlAtArrival = 0;
  dst.setLocalHandler([&](const Packet& p) { ttlAtArrival = p.ttl; });
  auto p = makeUdpPacket(src.primaryAddress(), dst.primaryAddress(), 100);
  p.ttl = 64;
  src.sendFromLocal(std::move(p));
  sim.run();
  EXPECT_EQ(ttlAtArrival, 62);  // two forwarding hops
}

TEST(RoutingTest, TtlExpiryGeneratesTimeExceeded) {
  Simulator sim;
  Network net{sim};
  Node& src = net.addNode("src");
  Node& r1 = net.addNode("r1");
  Node& dst = net.addNode("dst");
  src.addAddress(Ipv4Address(10, 0, 0, 1));
  r1.addAddress(Ipv4Address(10, 0, 0, 5));
  dst.addAddress(Ipv4Address(10, 0, 0, 9));
  LinkConfig cfg;
  auto [s1, r1a] = Link::connect(src, r1, cfg);
  auto [r1b, d1] = Link::connect(r1, dst, cfg);
  src.setDefaultRoute(s1);
  r1.setDefaultRoute(r1b);
  r1.addHostRoute(src.primaryAddress(), r1a);  // reverse path for ICMP
  dst.setDefaultRoute(d1);

  Ipv4Address reporter;
  IcmpType type{};
  Ipv4Address reportedDst;
  src.addIcmpListener([&](const Packet& p) {
    reporter = p.src;
    if (const auto* h = p.icmp()) {
      type = h->type;
      reportedDst = h->originalDst;
    }
  });
  auto p = makeUdpPacket(src.primaryAddress(), dst.primaryAddress(), 40);
  p.ttl = 1;  // expires at r1
  p.dstPort = 33434;
  src.sendFromLocal(std::move(p));
  sim.run();
  EXPECT_EQ(reporter, r1.primaryAddress());
  EXPECT_EQ(type, IcmpType::TimeExceeded);
  EXPECT_EQ(reportedDst, dst.primaryAddress());
}

TEST(RoutingTest, IcmpEchoRoundTrip) {
  Simulator sim;
  Network net{sim};
  Node& a = net.addNode("a");
  Node& b = net.addNode("b");
  a.addAddress(Ipv4Address(10, 0, 0, 1));
  b.addAddress(Ipv4Address(10, 0, 0, 2));
  LinkConfig cfg;
  cfg.delay = Duration::millis(5);
  auto [da, db] = Link::connect(a, b, cfg);
  a.setDefaultRoute(da);
  b.setDefaultRoute(db);

  TimePoint replyAt;
  bool gotReply = false;
  a.addIcmpListener([&](const Packet& p) {
    if (const auto* h = p.icmp(); h != nullptr && h->type == IcmpType::EchoReply) {
      gotReply = true;
      replyAt = sim.now();
    }
  });
  Packet probe;
  probe.src = a.primaryAddress();
  probe.dst = b.primaryAddress();
  probe.proto = IpProto::Icmp;
  probe.overheadBytes = wire::kEthIpIcmp;
  probe.payloadBytes = ByteSize::bytes(56);
  probe.l4 = IcmpHeader{IcmpType::EchoRequest, 7, 1, {}, 0};
  a.sendFromLocal(std::move(probe));
  sim.run();
  EXPECT_TRUE(gotReply);
  EXPECT_GE(replyAt.toMillis(), 10.0);  // two propagation legs
}

TEST(RoutingTest, EchoDisabledStaysSilent) {
  Simulator sim;
  Network net{sim};
  Node& a = net.addNode("a");
  Node& b = net.addNode("b");
  a.addAddress(Ipv4Address(10, 0, 0, 1));
  b.addAddress(Ipv4Address(10, 0, 0, 2));
  b.setIcmpEchoEnabled(false);
  auto [da, db] = Link::connect(a, b, LinkConfig{});
  a.setDefaultRoute(da);
  b.setDefaultRoute(db);
  bool gotReply = false;
  a.addIcmpListener([&](const Packet&) { gotReply = true; });
  Packet probe;
  probe.src = a.primaryAddress();
  probe.dst = b.primaryAddress();
  probe.proto = IpProto::Icmp;
  probe.l4 = IcmpHeader{IcmpType::EchoRequest, 1, 1, {}, 0};
  a.sendFromLocal(std::move(probe));
  sim.run();
  EXPECT_FALSE(gotReply);
}

TEST(RoutingTest, AnycastPicksPerVantageReplica) {
  // Two replicas own the same address; routing decides which one answers.
  Simulator sim;
  Network net{sim};
  Node& client = net.addNode("client");
  Node& nearRep = net.addNode("near");
  Node& farRep = net.addNode("far");
  const Ipv4Address anycast{100, 0, 0, 1};
  client.addAddress(Ipv4Address(10, 0, 0, 1));
  nearRep.addAddress(anycast);
  farRep.addAddress(anycast);
  LinkConfig nearCfg;
  nearCfg.delay = Duration::millis(1);
  LinkConfig farCfg;
  farCfg.delay = Duration::millis(40);
  auto [cn, nc] = Link::connect(client, nearRep, nearCfg);
  auto [cf, fc] = Link::connect(client, farRep, farCfg);
  client.addHostRoute(anycast, cn);  // routing prefers the near replica
  nearRep.setDefaultRoute(nc);
  farRep.setDefaultRoute(fc);

  TimePoint replyAt;
  client.addIcmpListener([&](const Packet&) { replyAt = sim.now(); });
  Packet probe;
  probe.src = client.primaryAddress();
  probe.dst = anycast;
  probe.proto = IpProto::Icmp;
  probe.l4 = IcmpHeader{IcmpType::EchoRequest, 1, 1, {}, 0};
  client.sendFromLocal(std::move(probe));
  sim.run();
  EXPECT_LT(replyAt.toMillis(), 5.0);  // answered by the near replica
}

// -------------------------------------------------------------------- netem

TEST(NetemTest, TransparentByDefault) {
  Netem netem;
  Rng rng{1};
  const auto v = netem.apply(TimePoint::epoch(), ByteSize::bytes(1000), rng);
  EXPECT_FALSE(v.drop);
  EXPECT_TRUE(v.holdFor.isZero());
}

TEST(NetemTest, FullLossDropsEverything) {
  Netem netem;
  NetemConfig cfg;
  cfg.lossRate = 1.0;
  netem.configure(cfg);
  Rng rng{1};
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(netem.apply(TimePoint::epoch(), ByteSize::bytes(100), rng).drop);
  }
  EXPECT_EQ(netem.droppedByLoss(), 50u);
}

TEST(NetemTest, PartialLossApproximatesRate) {
  Netem netem;
  NetemConfig cfg;
  cfg.lossRate = 0.2;
  netem.configure(cfg);
  Rng rng{42};
  int drops = 0;
  for (int i = 0; i < 10000; ++i) {
    drops += netem.apply(TimePoint::epoch(), ByteSize::bytes(100), rng).drop ? 1 : 0;
  }
  EXPECT_NEAR(drops / 10000.0, 0.2, 0.02);
}

TEST(NetemTest, DelayAddsHold) {
  Netem netem;
  NetemConfig cfg;
  cfg.delay = Duration::millis(100);
  netem.configure(cfg);
  Rng rng{1};
  const auto v = netem.apply(TimePoint::epoch(), ByteSize::bytes(100), rng);
  EXPECT_FALSE(v.drop);
  EXPECT_EQ(v.holdFor.toMillis(), 100.0);
}

TEST(NetemTest, RateLimitSpacesPackets) {
  Netem netem;
  NetemConfig cfg;
  cfg.rateLimit = DataRate::mbps(1);  // 1000 B -> 8 ms
  netem.configure(cfg);
  Rng rng{1};
  const auto t0 = TimePoint::epoch();
  const auto v1 = netem.apply(t0, ByteSize::bytes(1000), rng);
  const auto v2 = netem.apply(t0, ByteSize::bytes(1000), rng);
  EXPECT_NEAR(v1.holdFor.toMillis(), 8.0, 1e-6);
  EXPECT_NEAR(v2.holdFor.toMillis(), 16.0, 1e-6);
}

TEST(NetemTest, ShaperBufferOverflowDrops) {
  Netem netem;
  NetemConfig cfg;
  cfg.rateLimit = DataRate::kbps(100);
  cfg.shaperBuffer = ByteSize::bytes(3000);
  netem.configure(cfg);
  Rng rng{1};
  int drops = 0;
  for (int i = 0; i < 50; ++i) {
    drops += netem.apply(TimePoint::epoch(), ByteSize::bytes(1000), rng).drop ? 1 : 0;
  }
  EXPECT_GT(drops, 0);
  EXPECT_EQ(netem.droppedByShaper(), static_cast<std::uint64_t>(drops));
}

TEST(NetemTest, JitterBoundsHold) {
  Netem netem;
  NetemConfig cfg;
  cfg.delay = Duration::millis(50);
  cfg.jitter = Duration::millis(10);
  netem.configure(cfg);
  Rng rng{9};
  for (int i = 0; i < 500; ++i) {
    const auto v = netem.apply(TimePoint::epoch(), ByteSize::bytes(100), rng);
    EXPECT_GE(v.holdFor.toMillis(), 40.0 - 1e-9);
    EXPECT_LE(v.holdFor.toMillis(), 60.0 + 1e-9);
  }
}

TEST(NetemTest, ResetClearsState) {
  Netem netem;
  NetemConfig cfg;
  cfg.delay = Duration::millis(100);
  netem.configure(cfg);
  netem.reset();
  Rng rng{1};
  EXPECT_TRUE(netem.apply(TimePoint::epoch(), ByteSize::bytes(1), rng).holdFor.isZero());
}

TEST(NetemDeviceTest, LossyLinkDropsTraffic) {
  Simulator sim{7};
  Network net{sim};
  Node& a = net.addNode("a");
  Node& b = net.addNode("b");
  a.addAddress(Ipv4Address(10, 0, 0, 1));
  b.addAddress(Ipv4Address(10, 0, 0, 2));
  auto [da, db] = Link::connect(a, b, LinkConfig{});
  a.setDefaultRoute(da);
  b.setDefaultRoute(db);
  NetemConfig cfg;
  cfg.lossRate = 0.5;
  da.netem().configure(cfg);
  int received = 0;
  b.setLocalHandler([&](const Packet&) { ++received; });
  for (int i = 0; i < 200; ++i) {
    a.sendFromLocal(makeUdpPacket(a.primaryAddress(), b.primaryAddress(), 100));
  }
  sim.run();
  EXPECT_GT(received, 50);
  EXPECT_LT(received, 150);
}

}  // namespace
}  // namespace msim
