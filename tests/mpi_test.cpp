// Unit tests for the MPI layer: collective cost models and
// cross-application ports.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "calciom/wire.hpp"
#include "mpi/comm.hpp"
#include "mpi/port.hpp"
#include "sim/engine.hpp"

namespace {

using calciom::mpi::Communicator;
using calciom::mpi::CommCosts;
using calciom::mpi::DeliveryFilter;
using calciom::core::IoDescriptor;
using calciom::core::Message;
using calciom::core::MessageType;
using calciom::mpi::PortRegistry;
using calciom::sim::Engine;

TEST(CommunicatorTest, SingleProcessCollectivesAreFree) {
  Communicator comm(1, CommCosts{.latency = 1e-3, .bandwidthPerProcess = 1e6});
  EXPECT_DOUBLE_EQ(comm.barrierTime(), 0.0);
  EXPECT_DOUBLE_EQ(comm.bcastTime(1e6), 0.0);
  EXPECT_EQ(comm.treeDepth(), 0);
}

TEST(CommunicatorTest, BarrierScalesLogarithmically) {
  const CommCosts costs{.latency = 1e-3, .bandwidthPerProcess = 1e6};
  Communicator c64(64, costs);
  Communicator c1024(1024, costs);
  EXPECT_DOUBLE_EQ(c64.barrierTime(), 6e-3);
  EXPECT_DOUBLE_EQ(c1024.barrierTime(), 10e-3);
}

TEST(CommunicatorTest, NonPowerOfTwoRoundsUp) {
  Communicator c(1000, CommCosts{.latency = 1e-3, .bandwidthPerProcess = 1e6});
  EXPECT_EQ(c.treeDepth(), 10);
}

TEST(CommunicatorTest, BcastChargesBandwidthPerLevel) {
  Communicator c(8, CommCosts{.latency = 0.0, .bandwidthPerProcess = 100.0});
  // 3 levels, 200 bytes at 100 B/s each level.
  EXPECT_DOUBLE_EQ(c.bcastTime(200.0), 6.0);
}

TEST(CommunicatorTest, GatherRootLinkDominates) {
  Communicator c(4, CommCosts{.latency = 0.0, .bandwidthPerProcess = 100.0});
  // 3 ranks send 100B each through the root's 100B/s link.
  EXPECT_DOUBLE_EQ(c.gatherTime(100.0), 3.0);
}

TEST(CommunicatorTest, AllToAllUsesHalfAggregateInjection) {
  Communicator c(16, CommCosts{.latency = 0.0, .bandwidthPerProcess = 100.0});
  // Aggregate = 16*100/2 = 800 B/s.
  EXPECT_DOUBLE_EQ(c.allToAllTime(1600.0), 2.0);
}

TEST(CommunicatorTest, InvalidConfigThrows) {
  EXPECT_THROW(
      Communicator(0, CommCosts{.latency = 1e-3, .bandwidthPerProcess = 1.0}),
      calciom::PreconditionError);
  EXPECT_THROW(
      Communicator(4, CommCosts{.latency = 1e-3, .bandwidthPerProcess = 0.0}),
      calciom::PreconditionError);
}

/// A session message stamped with `seq`; `body` rides in its descriptor's
/// name, so a slot handing out the wrong message shows as a mismatch.
Message stamped(std::int64_t seq, std::string body = {}) {
  IoDescriptor d;
  d.appName = std::move(body);
  Message m = Message::inform(std::move(d));
  m.setSeq(static_cast<std::uint64_t>(seq));
  return m;
}

TEST(PortRegistryTest, DeliversAfterLatency) {
  Engine eng;
  PortRegistry ports(eng, 0.5);
  double deliveredAt = -1.0;
  std::uint32_t from = 0;
  ports.openPort("arbiter", [&](std::uint32_t f, const Message& payload) {
    deliveredAt = eng.now();
    from = f;
    EXPECT_EQ(payload.type(), MessageType::Inform);
  });
  EXPECT_TRUE(ports.send("arbiter", 7, Message::inform({})));
  eng.run();
  EXPECT_DOUBLE_EQ(deliveredAt, 0.5);
  EXPECT_EQ(from, 7u);
  EXPECT_EQ(ports.messagesDelivered(), 1u);
}

TEST(PortRegistryTest, SendToMissingPortFails) {
  Engine eng;
  PortRegistry ports(eng, 0.1);
  EXPECT_FALSE(ports.send("nobody", 1, Message{}));
}

TEST(PortRegistryTest, PortClosedInFlightDropsMessage) {
  Engine eng;
  PortRegistry ports(eng, 1.0);
  int received = 0;
  ports.openPort("p", [&](std::uint32_t, const Message&) { ++received; });
  ports.send("p", 1, Message{});
  eng.scheduleAt(0.5, [&] { ports.closePort("p"); });
  eng.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(ports.messagesDelivered(), 0u);
}

TEST(PortRegistryTest, MessagesPreserveSendOrderAtEqualLatency) {
  Engine eng;
  PortRegistry ports(eng, 0.2);
  std::vector<int> order;
  ports.openPort("p", [&](std::uint32_t, const Message& payload) {
    order.push_back(static_cast<int>(payload.seq()));
  });
  for (int i = 0; i < 5; ++i) {
    ports.send("p", 1, stamped(i));
  }
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(PortRegistryTest, RelayCatchesUnknownPorts) {
  Engine eng;
  PortRegistry reg(eng, 1e-3);
  std::vector<std::string> relayedPorts;
  std::vector<std::uint32_t> relayedFrom;
  reg.setRelay([&](const std::string& port, std::uint32_t from,
                   const Message&) {
    relayedPorts.push_back(port);
    relayedFrom.push_back(from);
  });
  EXPECT_TRUE(reg.hasRelay());
  // Unknown port: goes to the relay (with the port name) after the latency.
  const Message payload = stamped(1, "v");
  EXPECT_TRUE(reg.send("remote/elsewhere", 7, payload));
  // Known ports still deliver locally, not through the relay.
  int local = 0;
  reg.openPort("local", [&](std::uint32_t, const Message&) { ++local; });
  EXPECT_TRUE(reg.send("local", 7, payload));
  eng.run();
  ASSERT_EQ(relayedPorts.size(), 1u);
  EXPECT_EQ(relayedPorts[0], "remote/elsewhere");
  EXPECT_EQ(relayedFrom[0], 7u);
  EXPECT_EQ(local, 1);
  EXPECT_EQ(reg.messagesRelayed(), 1u);
  EXPECT_EQ(reg.messagesDelivered(), 1u);
}

TEST(PortRegistryTest, RelayRoutingIsFixedAtSendTime) {
  Engine eng;
  PortRegistry reg(eng, 1e-3);
  int relayed = 0;
  int local = 0;
  reg.setRelay(
      [&](const std::string&, std::uint32_t, const Message&) { ++relayed; });
  EXPECT_TRUE(reg.send("late", 1, Message{}));
  // The port opens while the message is in flight: the message stays with
  // the relay (it was routed at send time).
  reg.openPort("late", [&](std::uint32_t, const Message&) { ++local; });
  eng.run();
  EXPECT_EQ(relayed, 1);
  EXPECT_EQ(local, 0);
}

TEST(PortRegistryTest, DeliverNowIsSynchronousAndCounted) {
  Engine eng;
  PortRegistry reg(eng, 1e-3);
  int got = 0;
  reg.openPort("p", [&](std::uint32_t from, const Message&) {
    EXPECT_EQ(from, 3u);
    ++got;
  });
  const Message payload;
  EXPECT_TRUE(reg.deliverNow("p", 3, payload));
  EXPECT_EQ(got, 1);  // no engine.run() needed: synchronous
  EXPECT_FALSE(reg.deliverNow("missing", 3, payload));
  EXPECT_EQ(reg.messagesDelivered(), 1u);
}

TEST(PortRegistryTest, PortClosedInFlightDoesNotFallBackToRelay) {
  // Routing is fixed at send time: a message addressed to a then-open port
  // whose owner dies in flight must be dropped, NOT handed to the relay. A
  // relay forwarding it onward could re-register a dead application with a
  // cross-shard service (the GlobalArbiter's stale-Inform discard guards
  // the same scenario one layer up).
  Engine eng;
  PortRegistry reg(eng, 1.0);
  int relayed = 0;
  int local = 0;
  reg.setRelay(
      [&](const std::string&, std::uint32_t, const Message&) { ++relayed; });
  reg.openPort("calciom/app/7",
               [&](std::uint32_t, const Message&) { ++local; });
  EXPECT_TRUE(reg.send("calciom/app/7", 1, Message{}));
  eng.scheduleAt(0.5, [&] { reg.closePort("calciom/app/7"); });  // app dies
  eng.run();
  EXPECT_EQ(local, 0);
  EXPECT_EQ(relayed, 0);
  EXPECT_EQ(reg.messagesDelivered(), 0u);
  EXPECT_EQ(reg.messagesRelayed(), 0u);
}

TEST(PortRegistryTest, DeliverNowNeverConsultsTheRelay) {
  // Barrier hooks use deliverNow to land messages on concrete endpoints; a
  // closed port means the endpoint terminated between barriers, and the
  // message must drop rather than detour through the relay (a relayed
  // Grant re-entering the system would resurrect the dead app's traffic).
  Engine eng;
  PortRegistry reg(eng, 1e-3);
  int relayed = 0;
  reg.setRelay(
      [&](const std::string&, std::uint32_t, const Message&) { ++relayed; });
  EXPECT_FALSE(reg.deliverNow("calciom/app/9", 0, Message{}));
  EXPECT_EQ(relayed, 0);
  EXPECT_EQ(reg.messagesDelivered(), 0u);
  EXPECT_EQ(reg.messagesRelayed(), 0u);
}

TEST(PortRegistryTest, HandlerCanReplyThroughAnotherPort) {
  Engine eng;
  PortRegistry ports(eng, 0.25);
  double replyAt = -1.0;
  ports.openPort("app",
                 [&](std::uint32_t, const Message&) { replyAt = eng.now(); });
  ports.openPort("arbiter", [&](std::uint32_t from, const Message&) {
    ports.send("app", 0, Message{});
    (void)from;
  });
  ports.send("arbiter", 3, Message{});
  eng.run();
  EXPECT_DOUBLE_EQ(replyAt, 0.5);  // two hops of 0.25s
}

/// Drops every third send and duplicates every fourth, each copy and
/// original with its own extra delay: in-flight messages then free their
/// slots out of send order.
class ChurnFilter final : public calciom::mpi::DeliveryFilter {
 public:
  Verdict onSend(std::string_view /*port*/, std::uint32_t /*fromApp*/,
                 const Message& payload) override {
    const auto seq = static_cast<std::int64_t>(payload.seq());
    Verdict v;
    v.drop = seq % 3 == 2;
    v.extraDelaySeconds = static_cast<double>(seq % 5) * 0.1;
    v.duplicate = seq % 4 == 3;
    v.duplicateExtraDelaySeconds = static_cast<double>(seq % 7) * 0.05;
    return v;
  }
};

TEST(PortRegistryTest, SlotsAreReusedUnderInterleavedFilteredSends) {
  // Each payload carries a body derived from its seq, so a slot handing a
  // message the wrong payload, sender or port would show as a mismatch.
  const auto bodyOf = [](std::int64_t seq) {
    return std::string(static_cast<std::size_t>(seq % 40), 'x') +
           std::to_string(seq);
  };
  Engine eng;
  PortRegistry reg(eng, 0.25);
  ChurnFilter filter;
  reg.setDeliveryFilter(&filter);
  std::vector<std::pair<double, std::int64_t>> got;
  std::vector<std::int64_t> echoes;
  reg.openPort("calciom/app/12345", [&](std::uint32_t from,
                                         const Message& payload) {
    const auto seq = static_cast<std::int64_t>(payload.seq());
    EXPECT_EQ(from, static_cast<std::uint32_t>(seq + 1000));
    EXPECT_EQ(payload.descriptor().appName, bodyOf(seq));
    got.emplace_back(eng.now(), seq);
    if (seq % 5 == 0) {
      // Sending from inside a delivery re-enters the slot table while the
      // delivering slot has just been freed.
      reg.send("echo", static_cast<std::uint32_t>(seq + 1000),
               stamped(seq, bodyOf(seq)));
    }
  });
  reg.openPort("echo", [&](std::uint32_t, const Message& payload) {
    echoes.push_back(static_cast<std::int64_t>(payload.seq()));
  });
  std::vector<std::pair<double, std::int64_t>> want;
  std::int64_t seq = 0;
  for (int burst = 0; burst < 20; ++burst) {
    for (int k = 0; k < 1 + burst % 4; ++k, ++seq) {
      const Message m = stamped(seq, bodyOf(seq));
      const DeliveryFilter::Verdict v = filter.onSend("", 0, m);
      if (v.duplicate) {
        want.emplace_back(eng.now() + (0.25 + v.duplicateExtraDelaySeconds),
                          seq);
      }
      if (!v.drop) {
        want.emplace_back(eng.now() + (0.25 + v.extraDelaySeconds), seq);
      }
      EXPECT_TRUE(reg.send("calciom/app/12345",
                           static_cast<std::uint32_t>(seq + 1000), m));
    }
    // Advance part-way, so the next burst parks while older messages are
    // still in flight.
    eng.runUntil(eng.now() + 0.15);
  }
  eng.run();
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want);
  // Echoes pass the same filter: one per copy it lets through.
  std::vector<std::int64_t> wantEchoes;
  for (const auto& [t, s] : want) {
    if (s % 5 != 0) {
      continue;
    }
    const DeliveryFilter::Verdict v = filter.onSend("", 0, stamped(s));
    const int copies = (v.duplicate ? 1 : 0) + (v.drop ? 0 : 1);
    for (int c = 0; c < copies; ++c) {
      wantEchoes.push_back(s);
    }
  }
  std::sort(echoes.begin(), echoes.end());
  EXPECT_EQ(echoes, wantEchoes);
  EXPECT_EQ(reg.messagesDelivered(), want.size() + wantEchoes.size());
}

TEST(PortRegistryTest, PortClosedWithSeveralMessagesInFlightDropsThemAll) {
  Engine eng;
  PortRegistry reg(eng, 1.0);
  int toP = 0;
  std::vector<std::int64_t> toQ;
  reg.openPort("p", [&](std::uint32_t, const Message&) { ++toP; });
  reg.openPort("q", [&](std::uint32_t, const Message& payload) {
    toQ.push_back(static_cast<std::int64_t>(payload.seq()));
  });
  for (std::int64_t i = 0; i < 6; ++i) {
    EXPECT_TRUE(reg.send(i % 2 == 0 ? "p" : "q", 1, stamped(i)));
    eng.runUntil(eng.now() + 0.1);
  }
  eng.scheduleAt(0.8, [&] { reg.closePort("p"); });
  eng.run();
  EXPECT_EQ(toP, 0);
  EXPECT_EQ(toQ, (std::vector<std::int64_t>{1, 3, 5}));
  EXPECT_EQ(reg.messagesDelivered(), 3u);
  // The dropped messages' slots are free again and carry fresh payloads.
  for (std::int64_t i = 6; i < 10; ++i) {
    EXPECT_TRUE(reg.send("q", 1, stamped(i)));
  }
  EXPECT_FALSE(reg.send("p", 1, Message{}));
  eng.run();
  EXPECT_EQ(toQ, (std::vector<std::int64_t>{1, 3, 5, 6, 7, 8, 9}));
  EXPECT_EQ(toP, 0);
}

}  // namespace
