// The typed coordination wire (src/calciom/wire.hpp): the six-decimal
// rounding helper held to the text wire it replaces, tag-checked field
// reads, port names, and a recorded crash/restart stream whose write-ahead
// log replays and snapshots must equal what the text wire produced.

#include <gtest/gtest.h>

#include <bit>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "analysis/replay.hpp"
#include "calciom/arbiter_core.hpp"
#include "calciom/metrics.hpp"
#include "calciom/recovery.hpp"
#include "calciom/wire.hpp"
#include "fault/chaos.hpp"
#include "sim/contracts.hpp"
#include "sim/fingerprint.hpp"
#include "sim/rng.hpp"

namespace {

using calciom::PreconditionError;
using calciom::core::ArbiterConfig;
using calciom::core::ArbiterCore;
using calciom::core::ArbiterHost;
using calciom::core::encodeSnapshot;
using calciom::core::IoDescriptor;
using calciom::core::makePolicy;
using calciom::core::Message;
using calciom::core::MessageType;
using calciom::core::PolicyKind;
using calciom::core::SessionState;
using calciom::core::wireRound;
using calciom::fault::ChaosConfig;
using calciom::fault::chaosPlan;
using calciom::fault::ChaosResult;
using calciom::fault::ChaosTransport;
using calciom::fault::runChaos;
using calciom::fault::withArbiterCrash;
namespace msg = calciom::core::msg;
namespace replay = calciom::analysis::replay;

constexpr PolicyKind kPolicies[] = {PolicyKind::Fcfs, PolicyKind::Interrupt,
                                    PolicyKind::Dynamic};

// ---------------------------------------------------------------------------
// wireRound against the text wire: std::to_string renders "%f" and strtod
// parses it back. Every input must come back bit-identical from both.

/// The text wire's round trip. A rendering strtod cannot read, or reads out
/// of range, is a failure.
double textRoundTrip(double v) {
  const std::string text = std::to_string(v);
  errno = 0;
  char* end = nullptr;
  const double back = std::strtod(text.c_str(), &end);
  const bool ok = end != text.c_str() && errno != ERANGE;
  EXPECT_TRUE(ok) << text;
  return ok ? back : 0.0;
}

std::vector<double> wireInputs() {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> in = {
      0.0,
      -0.0,
      5e-7,
      -5e-7,
      4.9e-7,
      -4.9e-7,
      5.000000000000001e-7,
      1.0 / 3.0,
      2.0 / 3.0,
      0.1,
      0.5,
      0.0000005,
      0.0000015,
      0.0000025,
      1e300,
      -1e300,
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      kInf,
      -kInf,
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::signaling_NaN(),
      std::bit_cast<double>(0x7ff0000000000001ull),  // smallest sNaN payload
      std::bit_cast<double>(0x7ff8dead0000beefull),  // qNaN with a payload
      std::bit_cast<double>(0xfff4000000000001ull),  // negative sNaN
      std::bit_cast<double>(0x000fffffffffffffull),  // largest subnormal
      std::bit_cast<double>(0x8000000000000abcull),  // negative subnormal
  };
  // The cutoff where the arithmetic path hands over to the text, and its
  // nextafter neighbours on either side.
  for (const double edge : {calciom::core::kWireRoundArithmeticLimit,
                            -calciom::core::kWireRoundArithmeticLimit}) {
    in.push_back(edge);
    double inward = edge;
    double outward = edge;
    for (int k = 0; k < 4; ++k) {
      inward = std::nextafter(inward, 0.0);
      outward = std::nextafter(outward, 2.0 * edge);
      in.push_back(inward);
      in.push_back(outward);
    }
  }
  calciom::sim::Xoshiro256 rng(20);
  for (int i = 0; i < 20000; ++i) {
    switch (i % 4) {
      case 0:  // any bit pattern: every magnitude, subnormals, inf, NaN
        in.push_back(std::bit_cast<double>(rng()));
        break;
      case 1: {  // a decade from 1e-12 to 1e18, where the rounding bites
        const double decade = std::pow(10.0, static_cast<double>(
                                                 static_cast<int>(rng() % 31) -
                                                 12));
        in.push_back(decade * rng.uniform01() * ((rng() & 1) ? -1.0 : 1.0));
        break;
      }
      case 2:  // progress-like fractions
        in.push_back(static_cast<double>(rng() % 1000) /
                     static_cast<double>(1 + rng() % 999));
        break;
      default:  // halfway cases of the sixth decimal, and their neighbours
        in.push_back(std::nextafter(
            (static_cast<double>(rng() % 2000000) + 0.5) * 1e-6,
            (rng() & 1) ? kInf : -kInf));
        break;
    }
  }
  // Exact ties of the sixth decimal: v·10^6 ends in exactly .5 only for the
  // odd multiples of 2^-7, small ones and ones up to the cutoff.
  for (int i = 0; i < 4000; ++i) {
    const std::uint64_t odd =
        2 * (rng() % ((i % 2 == 0) ? 1000 : 250'000'000'000)) + 1;
    const double tie = std::ldexp(static_cast<double>(odd), -7);
    in.push_back((rng() & 1) ? -tie : tie);
  }
  return in;
}

TEST(WireRound, MatchesTheTextWireBitForBit) {
  for (const double v : wireInputs()) {
    const auto got = std::bit_cast<std::uint64_t>(wireRound(v));
    const auto want = std::bit_cast<std::uint64_t>(textRoundTrip(v));
    ASSERT_EQ(got, want) << std::hex << "input bits "
                         << std::bit_cast<std::uint64_t>(v);
  }
}

TEST(WireRound, RoundsToSixDecimalsAndIsIdempotent) {
  EXPECT_EQ(wireRound(1.0 / 3.0), 0.333333);
  EXPECT_EQ(wireRound(2.0 / 3.0), 0.666667);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(wireRound(4.9e-7)), 0u);
  EXPECT_TRUE(std::signbit(wireRound(-4.9e-7)));
  // Exact ties go to the even sixth decimal: 2^-7 = 0.0078125 and
  // 3·2^-7 = 0.0234375.
  EXPECT_EQ(wireRound(0.0078125), 0.007812);
  EXPECT_EQ(wireRound(-0.0234375), -0.023438);
  for (const double v : wireInputs()) {
    const double once = wireRound(v);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(wireRound(once)),
              std::bit_cast<std::uint64_t>(once));
  }
}

// ---------------------------------------------------------------------------
// Tag-checked fields.

TEST(WireMessage, ReadingProgressFromAGrantTraps) {
  const Message grant = Message::command(MessageType::Grant);
  EXPECT_THROW((void)grant.progress(), PreconditionError);
}

TEST(WireMessage, EveryFieldChecksTheTag) {
  Message grant = Message::command(MessageType::Grant);
  EXPECT_THROW((void)grant.seq(), PreconditionError);
  EXPECT_THROW((void)grant.sessionState(), PreconditionError);
  EXPECT_THROW((void)grant.descriptor(), PreconditionError);
  EXPECT_THROW(grant.setProgress(0.5), PreconditionError);
  Message release = Message::release(0.25);
  EXPECT_THROW((void)release.cmdSeq(), PreconditionError);
  EXPECT_THROW((void)release.arbiterIncarnation(), PreconditionError);
  EXPECT_THROW((void)release.descriptor(), PreconditionError);
  EXPECT_THROW(release.setSessionState(SessionState::Idle),
               PreconditionError);
  EXPECT_THROW((void)Message::complete().progress(), PreconditionError);
  EXPECT_THROW((void)Message::command(MessageType::Inform),
               PreconditionError);
  // The common stamps belong to every type.
  grant.setEpoch(4);
  release.setEpoch(4);
  EXPECT_EQ(grant.epoch(), release.epoch());
}

TEST(WireMessage, AbsentFieldsReadAsUnstamped) {
  const Message hb = Message::heartbeat();
  EXPECT_EQ(hb.progress(), std::nullopt);
  EXPECT_EQ(hb.sessionState(), SessionState::None);
  EXPECT_EQ(hb.seq(), 0u);
  EXPECT_EQ(hb.epoch(), 0u);
  EXPECT_EQ(hb.incarnation(), 0u);
  const Message rel = Message::release(1.0 / 3.0);
  EXPECT_EQ(rel.progress(), 0.333333);  // stored wire-rounded
}

TEST(WireMessage, InformCarriesAWireRoundedDescriptor) {
  const IoDescriptor d{.appId = 9,
                       .appName = "a-name-longer-than-fifteen-characters",
                       .cores = 16,
                       .estAloneSeconds = 1.0 / 3.0};
  const Message m = Message::inform(d);
  EXPECT_EQ(m.descriptor().appName, d.appName);
  EXPECT_EQ(m.descriptor().estAloneSeconds, 0.333333);
  // The descriptor the arbiter reads is the one the text wire delivered.
  IoDescriptor text = d;
  text.estAloneSeconds = textRoundTrip(d.estAloneSeconds);
  EXPECT_EQ(m.descriptor(), text);
}

TEST(WirePorts, AppPortNamesAreFormattedInPlace) {
  EXPECT_EQ(msg::appPort(0).view(), "calciom/app/0");
  EXPECT_EQ(msg::appPort(12345).view(), "calciom/app/12345");
  EXPECT_EQ(msg::appPort(4294967295u).view(), "calciom/app/4294967295");
  EXPECT_EQ(msg::arbiterPort(), "calciom/arbiter");
}

// ---------------------------------------------------------------------------
// Typed WAL replay and snapshots against the text wire. The hashes below
// were produced by the same code running over the text wire; the typed
// wire must reproduce them exactly.

/// A recorded coordination stream (one day of the seed-1 Intrepid model
/// through replaySession, Dynamic policy) fed into a checkpointing arbiter
/// host that crashes and restarts every 997 messages. Each restart rebuilds
/// the core from its checkpoint plus the write-ahead log; the snapshot
/// encodings taken right after every restart, and at the end, fold into
/// one hash.
std::uint64_t crashRestartStreamHash() {
  replay::ReplayConfig cfg;
  cfg.model.seed = calciom::sim::SplitMix64(1).next();
  cfg.model.horizonSeconds = 3600.0 * 24;
  cfg.policy = PolicyKind::Dynamic;
  const replay::ReplayResult r = replay::replaySession(cfg);
  EXPECT_GT(r.captured.size(), 2000u);
  ArbiterConfig config;
  config.checkpointEverySeconds = 600.0;
  ArbiterHost host(
      makePolicy(PolicyKind::Dynamic,
                 std::make_shared<calciom::core::CpuSecondsWasted>(),
                 cfg.dynamicOptions),
      config);
  ArbiterCore::Commands out;
  calciom::sim::Fingerprint fp;
  std::size_t restarts = 0;
  for (std::size_t i = 0; i < r.captured.size(); ++i) {
    const auto& e = r.captured[i];
    host.onMessage(e.time, e.app, e.payload, out);
    host.core().onTick(e.time, out);
    host.maybeCheckpoint(e.time);
    if (i % 997 == 500) {
      host.crash();
      host.restart(e.time, out);
      ++restarts;
      fp.foldString(encodeSnapshot(host.core().snapshot(e.time)));
    }
    out.clear();
  }
  EXPECT_GE(restarts, 2u);
  EXPECT_GT(host.checkpointStore().walAppended(), 0u);
  fp.foldString(encodeSnapshot(host.core().snapshot(r.captured.back().time)));
  return fp.value();
}

/// Chaos campaigns with arbiter crashes on both transports: the final
/// snapshot encodings and decision fingerprints, folded.
std::uint64_t chaosCrashHash() {
  calciom::sim::Fingerprint fp;
  for (const std::uint64_t seed : {3ull, 11ull, 29ull}) {
    for (const ChaosTransport t :
         {ChaosTransport::SameEngine, ChaosTransport::Cluster}) {
      ChaosConfig c;
      c.transport = t;
      c.policy = kPolicies[seed % 3];
      c.plan = withArbiterCrash(chaosPlan(seed, c.apps), seed);
      const ChaosResult res = runChaos(c);
      fp.foldString(res.snapshotEncoding);
      fp.foldString(std::to_string(res.fingerprint));
    }
  }
  return fp.value();
}

TEST(WireReplay, CrashRestartStreamMatchesTheTextWire) {
  EXPECT_EQ(crashRestartStreamHash(), 0x4f1e7a035e9e1a7bull);
}

TEST(WireReplay, ChaosCrashSnapshotsMatchTheTextWire) {
  EXPECT_EQ(chaosCrashHash(), 0x249eef50edc97d26ull);
}

}  // namespace
