// Unit tests for the MPI layer: collective cost models and
// cross-application ports.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
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
using calciom::core::msg::appPort;
using calciom::core::msg::arbiterPort;
using calciom::mpi::PortId;
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
  ports.openPort(arbiterPort(), [&](std::uint32_t f, const Message& payload) {
    deliveredAt = eng.now();
    from = f;
    EXPECT_EQ(payload.type(), MessageType::Inform);
  });
  EXPECT_TRUE(ports.send(arbiterPort(), 7, Message::inform({})));
  eng.run();
  EXPECT_DOUBLE_EQ(deliveredAt, 0.5);
  EXPECT_EQ(from, 7u);
  EXPECT_EQ(ports.messagesDelivered(), 1u);
}

TEST(PortRegistryTest, SendToMissingPortFails) {
  Engine eng;
  PortRegistry ports(eng, 0.1);
  EXPECT_FALSE(ports.send(appPort(99), 1, Message{}));
}

TEST(PortRegistryTest, PortClosedInFlightDropsMessage) {
  Engine eng;
  PortRegistry ports(eng, 1.0);
  int received = 0;
  ports.openPort(appPort(1),
                 [&](std::uint32_t, const Message&) { ++received; });
  ports.send(appPort(1), 1, Message{});
  eng.scheduleAt(0.5, [&] { ports.closePort(appPort(1)); });
  eng.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(ports.messagesDelivered(), 0u);
}

TEST(PortRegistryTest, MessagesPreserveSendOrderAtEqualLatency) {
  Engine eng;
  PortRegistry ports(eng, 0.2);
  std::vector<int> order;
  ports.openPort(appPort(1), [&](std::uint32_t, const Message& payload) {
    order.push_back(static_cast<int>(payload.seq()));
  });
  for (int i = 0; i < 5; ++i) {
    ports.send(appPort(1), 1, stamped(i));
  }
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(PortRegistryTest, HandlerCanReplyThroughAnotherPort) {
  Engine eng;
  PortRegistry ports(eng, 0.25);
  double replyAt = -1.0;
  ports.openPort(appPort(1),
                 [&](std::uint32_t, const Message&) { replyAt = eng.now(); });
  ports.openPort(arbiterPort(), [&](std::uint32_t from, const Message&) {
    ports.send(appPort(1), 0, Message{});
    (void)from;
  });
  ports.send(arbiterPort(), 3, Message{});
  eng.run();
  EXPECT_DOUBLE_EQ(replyAt, 0.5);  // two hops of 0.25s
}

/// Drops every third send and duplicates every fourth, each copy and
/// original with its own extra delay: in-flight messages then free their
/// slots out of send order.
class ChurnFilter final : public calciom::mpi::DeliveryFilter {
 public:
  Verdict onSend(PortId /*port*/, std::uint32_t /*fromApp*/,
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
  reg.openPort(appPort(12345), [&](std::uint32_t from,
                                         const Message& payload) {
    const auto seq = static_cast<std::int64_t>(payload.seq());
    EXPECT_EQ(from, static_cast<std::uint32_t>(seq + 1000));
    EXPECT_EQ(payload.descriptor().appName, bodyOf(seq));
    got.emplace_back(eng.now(), seq);
    if (seq % 5 == 0) {
      // Sending from inside a delivery re-enters the slot table while the
      // delivering slot has just been freed.
      reg.send(appPort(2), static_cast<std::uint32_t>(seq + 1000),
               stamped(seq, bodyOf(seq)));
    }
  });
  reg.openPort(appPort(2), [&](std::uint32_t, const Message& payload) {
    echoes.push_back(static_cast<std::int64_t>(payload.seq()));
  });
  std::vector<std::pair<double, std::int64_t>> want;
  std::int64_t seq = 0;
  for (int burst = 0; burst < 20; ++burst) {
    for (int k = 0; k < 1 + burst % 4; ++k, ++seq) {
      const Message m = stamped(seq, bodyOf(seq));
      const DeliveryFilter::Verdict v = filter.onSend(appPort(12345), 0, m);
      if (v.duplicate) {
        want.emplace_back(eng.now() + (0.25 + v.duplicateExtraDelaySeconds),
                          seq);
      }
      if (!v.drop) {
        want.emplace_back(eng.now() + (0.25 + v.extraDelaySeconds), seq);
      }
      EXPECT_TRUE(reg.send(appPort(12345),
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
    const DeliveryFilter::Verdict v =
        filter.onSend(appPort(12345), 0, stamped(s));
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
  reg.openPort(appPort(1), [&](std::uint32_t, const Message&) { ++toP; });
  reg.openPort(appPort(2), [&](std::uint32_t, const Message& payload) {
    toQ.push_back(static_cast<std::int64_t>(payload.seq()));
  });
  for (std::int64_t i = 0; i < 6; ++i) {
    EXPECT_TRUE(reg.send(i % 2 == 0 ? appPort(1) : appPort(2), 1, stamped(i)));
    eng.runUntil(eng.now() + 0.1);
  }
  eng.scheduleAt(0.8, [&] { reg.closePort(appPort(1)); });
  eng.run();
  EXPECT_EQ(toP, 0);
  EXPECT_EQ(toQ, (std::vector<std::int64_t>{1, 3, 5}));
  EXPECT_EQ(reg.messagesDelivered(), 3u);
  // The dropped messages' slots are free again and carry fresh payloads.
  for (std::int64_t i = 6; i < 10; ++i) {
    EXPECT_TRUE(reg.send(appPort(2), 1, stamped(i)));
  }
  EXPECT_FALSE(reg.send(appPort(1), 1, Message{}));
  eng.run();
  EXPECT_EQ(toQ, (std::vector<std::int64_t>{1, 3, 5, 6, 7, 8, 9}));
  EXPECT_EQ(toP, 0);
}

TEST(PortRegistryTest, PortsAreAddressedByValue) {
  // The arbiter's port is its own slot, distinct from every application's,
  // app 0's included; closing one leaves the other open.
  Engine eng;
  PortRegistry reg(eng, 0.1);
  std::vector<int> got;
  reg.openPort(arbiterPort(),
               [&](std::uint32_t, const Message&) { got.push_back(-1); });
  reg.openPort(appPort(0),
               [&](std::uint32_t, const Message&) { got.push_back(0); });
  EXPECT_NE(arbiterPort(), appPort(0));
  EXPECT_EQ(appPort(7), appPort(7));
  EXPECT_TRUE(reg.hasPort(appPort(0)));
  EXPECT_FALSE(reg.hasPort(appPort(1)));
  EXPECT_TRUE(reg.send(appPort(0), 1, Message{}));
  EXPECT_TRUE(reg.send(arbiterPort(), 1, Message{}));
  eng.run();
  EXPECT_EQ(got, (std::vector<int>{0, -1}));
  reg.closePort(arbiterPort());
  EXPECT_FALSE(reg.hasPort(arbiterPort()));
  EXPECT_TRUE(reg.hasPort(appPort(0)));
  EXPECT_FALSE(reg.send(arbiterPort(), 1, Message{}));
}

/// Hands out scripted verdicts in call order (the default verdict once the
/// script runs out) and records every port it is asked about.
class ScriptedFilter final : public calciom::mpi::DeliveryFilter {
 public:
  explicit ScriptedFilter(std::vector<Verdict> script)
      : script_(std::move(script)) {}
  Verdict onSend(PortId port, std::uint32_t /*fromApp*/,
                 const Message& /*payload*/) override {
    seen.push_back(port);
    return seen.size() <= script_.size() ? script_[seen.size() - 1]
                                         : Verdict{};
  }
  std::vector<PortId> seen;

 private:
  std::vector<Verdict> script_;
};

TEST(PortRegistryTest, SendToClosedPortSchedulesNothing) {
  // The filter is asked first (its draws must not depend on which ports
  // are open), but a closed port refuses the send outright: no copy, no
  // original, not even when the verdict duplicates or drops.
  Engine eng;
  PortRegistry reg(eng, 0.1);
  DeliveryFilter::Verdict dupDrop;
  dupDrop.duplicate = true;
  dupDrop.drop = true;
  DeliveryFilter::Verdict dup;
  dup.duplicate = true;
  ScriptedFilter filter({dupDrop, dup});
  reg.setDeliveryFilter(&filter);
  EXPECT_FALSE(reg.send(appPort(4), 1, Message{}));
  EXPECT_FALSE(reg.send(appPort(4), 1, Message{}));
  EXPECT_EQ(eng.pendingEvents(), 0u);
  EXPECT_EQ(filter.seen.size(), 2u);
}

TEST(PortRegistryTest, DeliverAtLandsAtItsTimestampAndResolvesOnArrival) {
  // No registry latency is added (the caller's timestamp holds the hop),
  // and the port is looked up when the message lands, not when it is
  // scheduled.
  Engine eng;
  PortRegistry reg(eng, 5.0);
  std::vector<std::pair<double, std::int64_t>> got;
  const auto record = [&](std::uint32_t, const Message& payload) {
    got.emplace_back(eng.now(), static_cast<std::int64_t>(payload.seq()));
  };
  // Closed now, open by the time it lands: delivered.
  EXPECT_TRUE(reg.deliverAt(2.0, appPort(1), 0, stamped(1)));
  // Open now, closed by the time it lands: dropped on arrival.
  reg.openPort(appPort(2), record);
  EXPECT_TRUE(reg.deliverAt(3.0, appPort(2), 0, stamped(2)));
  EXPECT_EQ(eng.pendingEvents(), 2u);
  eng.scheduleAt(1.0, [&] {
    reg.openPort(appPort(1), record);
    reg.closePort(appPort(2));
  });
  eng.run();
  EXPECT_EQ(got, (std::vector<std::pair<double, std::int64_t>>{{2.0, 1}}));
  EXPECT_EQ(reg.messagesDelivered(), 1u);
}

TEST(PortRegistryTest, DeliverAtPassesTheFilterInCallOrder) {
  // deliverAt consults the registry's own filter, once per call in call
  // order, and applies its verdict like send() does: a duplicate is
  // scheduled even when the original drops, extra delays add to the
  // timestamp, and the copy carries the whole payload.
  Engine eng;
  PortRegistry reg(eng, 0.25);
  DeliveryFilter::Verdict dupDrop;
  dupDrop.drop = true;
  dupDrop.duplicate = true;
  dupDrop.duplicateExtraDelaySeconds = 0.5;
  DeliveryFilter::Verdict late;
  late.extraDelaySeconds = 1.0;
  DeliveryFilter::Verdict dup;
  dup.duplicate = true;
  ScriptedFilter filter({dupDrop, late, {}, dup});
  reg.setDeliveryFilter(&filter);
  std::vector<std::pair<double, std::string>> got;
  reg.openPort(appPort(1), [&](std::uint32_t, const Message& payload) {
    got.emplace_back(eng.now(), payload.descriptor().appName);
  });
  EXPECT_FALSE(reg.deliverAt(1.0, appPort(1), 0, stamped(1, "a")));
  EXPECT_TRUE(reg.deliverAt(1.0, appPort(1), 0, stamped(2, "b")));
  EXPECT_TRUE(reg.deliverAt(1.0, appPort(9), 0, stamped(3, "c")));
  EXPECT_TRUE(reg.deliverAt(1.0, appPort(1), 0, stamped(4, "d")));
  eng.run();
  EXPECT_EQ(got, (std::vector<std::pair<double, std::string>>{
                     {1.0, "d"}, {1.0, "d"}, {1.5, "a"}, {2.0, "b"}}));
  EXPECT_EQ(filter.seen, (std::vector<PortId>{appPort(1), appPort(1),
                                              appPort(9), appPort(1)}));
  EXPECT_EQ(reg.messagesDelivered(), 4u);
}

TEST(PortRegistryTest, HandlerMayCloseItsOwnPortAndOpenOthersWhileItRuns) {
  // The handler of port 5 closes its own port, then opens 1 and 3, which
  // sort before it in the id table. It keeps using its captured state
  // afterwards; the closure is large enough to live on the heap, so a
  // registry that let the running handler be destroyed or moved would be
  // a use-after-free (caught under AddressSanitizer).
  Engine eng;
  PortRegistry reg(eng, 0.1);
  std::vector<std::pair<int, std::string>> got;
  const std::string tag(64, 'h');
  reg.openPort(appPort(9), [&](std::uint32_t, const Message&) {
    got.emplace_back(9, "");
  });
  reg.openPort(appPort(5), [&reg, &got, tag](std::uint32_t, const Message&) {
    reg.closePort(appPort(5));
    reg.openPort(appPort(1), [&got](std::uint32_t, const Message&) {
      got.emplace_back(1, "");
    });
    reg.openPort(appPort(3), [&got](std::uint32_t, const Message&) {
      got.emplace_back(3, "");
    });
    got.emplace_back(5, tag);
    EXPECT_TRUE(reg.send(appPort(3), 5, Message{}));
    EXPECT_TRUE(reg.send(appPort(1), 5, Message{}));
    EXPECT_FALSE(reg.send(appPort(5), 5, Message{}));
  });
  EXPECT_TRUE(reg.send(appPort(5), 0, Message{}));
  eng.run();
  EXPECT_EQ(got, (std::vector<std::pair<int, std::string>>{
                     {5, tag}, {3, ""}, {1, ""}}));
  EXPECT_FALSE(reg.hasPort(appPort(5)));
  EXPECT_TRUE(reg.hasPort(appPort(1)));
  EXPECT_TRUE(reg.hasPort(appPort(3)));
  EXPECT_TRUE(reg.hasPort(appPort(9)));
  EXPECT_EQ(reg.messagesDelivered(), 3u);
}

}  // namespace
