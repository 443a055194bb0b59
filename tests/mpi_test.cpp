// Unit tests for the MPI layer: Info dictionaries, collective cost models,
// and cross-application ports.

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "calciom/wire.hpp"
#include "mpi/comm.hpp"
#include "mpi/info.hpp"
#include "mpi/port.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"

namespace {

using calciom::mpi::Communicator;
using calciom::mpi::CommCosts;
using calciom::mpi::DeliveryFilter;
using calciom::core::IoDescriptor;
using calciom::core::Message;
using calciom::core::MessageType;
using calciom::mpi::Info;
using calciom::mpi::PortRegistry;
using calciom::sim::Engine;

TEST(InfoTest, SetGetRoundTrip) {
  Info info;
  info.set("pattern", "strided");
  EXPECT_EQ(info.get("pattern"), "strided");
  EXPECT_EQ(info.get("missing"), std::nullopt);
  EXPECT_TRUE(info.has("pattern"));
  EXPECT_EQ(info.size(), 1u);
}

TEST(InfoTest, TypedAccessors) {
  Info info;
  info.setInt("files", 4);
  info.setDouble("bytes", 16.5e6);
  EXPECT_EQ(info.getInt("files"), 4);
  EXPECT_NEAR(*info.getDouble("bytes"), 16.5e6, 1.0);
  EXPECT_EQ(info.getIntOr("rounds", 7), 7);
  EXPECT_DOUBLE_EQ(info.getDoubleOr("alone", 2.5), 2.5);
}

TEST(InfoTest, MalformedNumbersReturnNullopt) {
  Info info;
  info.set("x", "not-a-number");
  EXPECT_EQ(info.getInt("x"), std::nullopt);
  EXPECT_EQ(info.getDouble("x"), std::nullopt);
}

TEST(InfoTest, EraseAndKeysAreDeterministic) {
  Info info;
  info.set("b", "2");
  info.set("a", "1");
  info.set("c", "3");
  info.erase("b");
  EXPECT_EQ(info.keys(), (std::vector<std::string>{"a", "c"}));
}

TEST(InfoTest, MergePrefersOther) {
  Info a;
  a.set("k", "old");
  a.set("only_a", "1");
  Info b;
  b.set("k", "new");
  b.set("only_b", "2");
  a.merge(b);
  EXPECT_EQ(a.get("k"), "new");
  EXPECT_EQ(a.get("only_a"), "1");
  EXPECT_EQ(a.get("only_b"), "2");
}

TEST(InfoTest, EqualityIsStructural) {
  Info a;
  a.set("x", "1");
  Info b;
  b.set("x", "1");
  EXPECT_EQ(a, b);
  b.set("y", "2");
  EXPECT_NE(a, b);
}

TEST(InfoTest, FindViewsTheStoredValueWithoutCopying) {
  Info info;
  info.set("calciom.session_state", "paused");
  const auto v = info.find("calciom.session_state");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, "paused");
  EXPECT_EQ(info.find("calciom.session"), std::nullopt);
  EXPECT_EQ(info.find("calciom.session_state_"), std::nullopt);
}

// ---- Differential test: Info against a std::map reference -------------

/// The reference: the dictionary Info replaced, with the numeric reads it
/// made (strtoll / strtod on an owning copy of the value).
struct RefInfo {
  std::map<std::string, std::string> m;

  std::optional<std::int64_t> getInt(const std::string& key) const {
    const auto it = m.find(key);
    if (it == m.end()) {
      return std::nullopt;
    }
    const std::string v = it->second;
    errno = 0;
    char* end = nullptr;
    const long long parsed = std::strtoll(v.c_str(), &end, 10);
    if (end == v.c_str() || errno == ERANGE) {
      return std::nullopt;
    }
    return static_cast<std::int64_t>(parsed);
  }
  std::optional<double> getDouble(const std::string& key) const {
    const auto it = m.find(key);
    if (it == m.end()) {
      return std::nullopt;
    }
    const std::string v = it->second;
    errno = 0;
    char* end = nullptr;
    const double parsed = std::strtod(v.c_str(), &end);
    if (end == v.c_str() || errno == ERANGE) {
      return std::nullopt;
    }
    return parsed;
  }
};

// Keys around the 15-character small-string boundary, keys that prefix one
// another, and a non-ASCII key (ordered as unsigned bytes, like std::map).
const std::vector<std::string> kDiffKeys = {
    "a",
    "ab",
    "b",
    "k",
    "abcdefghijklmn",             // 14
    "abcdefghijklmno",            // 15
    "abcdefghijklmnop",           // 16
    "calciom.seq",
    "calciom.rounds_per_file",
    "calciom.est_alone_seconds",
    "\xc3\xa9t\xc3\xa9",
    "zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz",
};

// Malformed and edge-case numbers that must parse exactly as before.
const std::vector<std::string> kDiffValues = {
    "",
    "0",
    "7",
    "-12",
    "12abc",
    " 7",
    "\t-3",
    "+5",
    "nan",
    "-nan",
    "inf",
    "-0",
    "3.5",
    "0.333333",
    "1e5",
    "0x1F",
    "not-a-number",
    "+",
    "-",
    "9223372036854775807",
    "9223372036854775808",
    "-9223372036854775809",
    "1e400",
    "1e-400",
    "strided",
};

std::string randomValue(calciom::sim::Xoshiro256& rng) {
  if (rng() % 4 == 0) {
    // Long values: repeated overwrites of one key grow and shrink the
    // buffer in place.
    return std::string(static_cast<std::size_t>(rng() % 200), 'v');
  }
  return kDiffValues[rng() % kDiffValues.size()];
}

std::int64_t randomInt(calciom::sim::Xoshiro256& rng) {
  switch (rng() % 4) {
    case 0:
      return std::numeric_limits<std::int64_t>::min();
    case 1:
      return std::numeric_limits<std::int64_t>::max();
    case 2:
      return static_cast<std::int64_t>(rng() % 2000) - 1000;
    default:
      return static_cast<std::int64_t>(rng());
  }
}

double randomDouble(calciom::sim::Xoshiro256& rng) {
  switch (rng() % 8) {
    case 0:
      return std::numeric_limits<double>::quiet_NaN();
    case 1:
      return -std::numeric_limits<double>::infinity();
    case 2:
      return -0.0;
    case 3:
      return 1.0 / 3.0;
    case 4:
      return std::numeric_limits<double>::max();
    case 5:
      return 4.9e-7;  // rounds to "0.000000"
    default: {
      // Any finite bit pattern: every magnitude and rounding case of %f.
      double d = 0.0;
      do {
        const std::uint64_t bits = rng();
        std::memcpy(&d, &bits, sizeof d);
      } while (!std::isfinite(d));
      return d;
    }
  }
}

void applyRandomWrites(calciom::sim::Xoshiro256& rng, Info& info,
                       RefInfo& ref, int count) {
  for (int i = 0; i < count; ++i) {
    const std::string& key = kDiffKeys[rng() % kDiffKeys.size()];
    switch (rng() % 4) {
      case 0: {
        const std::string v = randomValue(rng);
        info.set(key, v);
        ref.m[key] = v;
        break;
      }
      case 1: {
        const std::int64_t v = randomInt(rng);
        info.setInt(key, v);
        ref.m[key] = std::to_string(v);
        break;
      }
      case 2: {
        const double v = randomDouble(rng);
        info.setDouble(key, v);
        ref.m[key] = std::to_string(v);
        break;
      }
      default:
        info.erase(key);
        ref.m.erase(key);
        break;
    }
  }
}

void expectSameAsReference(const Info& info, const RefInfo& ref) {
  ASSERT_EQ(info.size(), ref.m.size());
  EXPECT_EQ(info.empty(), ref.m.empty());
  std::vector<std::string> refKeys;
  for (const auto& [k, v] : ref.m) {
    refKeys.push_back(k);
  }
  ASSERT_EQ(info.keys(), refKeys);
  for (const std::string& key : kDiffKeys) {
    const auto it = ref.m.find(key);
    const bool present = it != ref.m.end();
    ASSERT_EQ(info.has(key), present) << key;
    ASSERT_EQ(info.get(key),
              present ? std::optional<std::string>(it->second) : std::nullopt)
        << key;
    ASSERT_EQ(info.getInt(key), ref.getInt(key)) << key;
    const auto d = info.getDouble(key);
    const auto refD = ref.getDouble(key);
    ASSERT_EQ(d.has_value(), refD.has_value()) << key;
    if (d) {
      ASSERT_TRUE(std::memcmp(&*d, &*refD, sizeof(double)) == 0 ||
                  (std::isnan(*d) && std::isnan(*refD)))
          << key;
    }
  }
  // Structural equality: the same entries inserted in reverse key order
  // make a different buffer but an equal Info.
  Info rebuilt;
  for (auto it = ref.m.rbegin(); it != ref.m.rend(); ++it) {
    rebuilt.set(it->first, it->second);
  }
  ASSERT_EQ(info, rebuilt);
  if (!ref.m.empty()) {
    const auto& [firstKey, firstValue] = *ref.m.begin();
    Info otherValue = rebuilt;
    otherValue.set(firstKey, firstValue + "x");
    ASSERT_NE(info, otherValue);
    Info otherKey = rebuilt;
    otherKey.erase(firstKey);
    otherKey.set("differs", firstValue);
    ASSERT_NE(info, otherKey);
  }
  rebuilt.set("differs", "x");
  ASSERT_NE(info, rebuilt);
}

TEST(InfoDifferentialTest, RandomSequencesMatchStdMapReference) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    calciom::sim::Xoshiro256 rng(seed);
    Info info;
    RefInfo ref;
    for (int step = 0; step < 150; ++step) {
      switch (rng() % 8) {
        case 0: {  // merge: the other side wins on conflict
          Info other;
          RefInfo otherRef;
          applyRandomWrites(rng, other, otherRef, static_cast<int>(rng() % 6));
          info.merge(other);
          for (const auto& [k, v] : otherRef.m) {
            ref.m[k] = v;
          }
          break;
        }
        case 1: {  // copy, then keep mutating the copy
          Info copy = info;
          ASSERT_EQ(copy, info);
          info = std::move(copy);
          break;
        }
        case 2: {  // copy assignment over a populated Info
          Info target;
          target.set("abcdefghijklmnop", "stale");
          target = info;
          ASSERT_EQ(target, info);
          info = target;
          break;
        }
        default:
          applyRandomWrites(rng, info, ref, 1);
          break;
      }
      ASSERT_NO_FATAL_FAILURE(expectSameAsReference(info, ref))
          << "seed " << seed << " step " << step;
    }
  }
}

TEST(InfoDifferentialTest, NumbersRenderExactlyAsToString) {
  calciom::sim::Xoshiro256 rng(7);
  Info info;
  for (int i = 0; i < 20000; ++i) {
    const double d = randomDouble(rng);
    info.setDouble("d", d);
    ASSERT_EQ(info.get("d"), std::to_string(d)) << i;
    const std::int64_t n = randomInt(rng);
    info.setInt("n", n);
    ASSERT_EQ(info.get("n"), std::to_string(n)) << i;
  }
  info.setDouble("third", 1.0 / 3.0);
  EXPECT_EQ(info.get("third"), "0.333333");
}

TEST(InfoDifferentialTest, SelfReferentialSetsAndMerges) {
  Info info;
  info.set("a", "bravo-bravo-bravo-bravo");
  // A new key whose value views the buffer, which the insertion regrows.
  const std::string longKey(300, 'k');
  info.set(longKey, *info.find("a"));
  EXPECT_EQ(info.get(longKey), "bravo-bravo-bravo-bravo");
  info.set("b", *info.find("a"));  // insert, no regrowth
  info.set("b", *info.find(longKey));  // overwrite with its own text
  EXPECT_EQ(info.get("b"), "bravo-bravo-bravo-bravo");
  info.set(*info.find("a"), "x");  // the key views the buffer
  EXPECT_EQ(info.get("bravo-bravo-bravo-bravo"), "x");
  const Info before = info;
  info.merge(info);
  EXPECT_EQ(info, before);
}

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
