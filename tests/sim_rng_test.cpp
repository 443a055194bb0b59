// Unit tests for the deterministic RNG and hashes: reproducibility, ranges
// and first/second moments of the distribution helpers, the SplitMix64
// finalizer, and the FNV-1a fingerprint against published test vectors.

#include "sim/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "sim/fingerprint.hpp"

namespace {

using calciom::PreconditionError;
using calciom::sim::Fingerprint;
using calciom::sim::mix64;
using calciom::sim::SplitMix64;
using calciom::sim::Xoshiro256;

TEST(RngTest, SameSeedSameSequence) {
  Xoshiro256 a(42);
  Xoshiro256 b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Xoshiro256 a(1);
  Xoshiro256 b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) {
      ++equal;
    }
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, SplitMix64KnownFirstValueIsStable) {
  SplitMix64 sm(0);
  const auto v1 = sm.next();
  SplitMix64 sm2(0);
  EXPECT_EQ(v1, sm2.next());
  EXPECT_NE(v1, sm.next());
}

TEST(RngTest, Mix64IsTheFirstSplitMix64Draw) {
  // The published first output of SplitMix64 seeded with 0.
  static_assert(mix64(0) == 0xE220A8397B1DCDAFULL);
  for (const std::uint64_t x : {1ULL, 42ULL, 0xC4A05EEDULL, ~0ULL}) {
    EXPECT_EQ(mix64(x), SplitMix64(x).next()) << x;
  }
}

TEST(FingerprintTest, MatchesFnv1aTestVectors) {
  // Folding bytes one word at a time is byte-wise FNV-1a for byte input.
  Fingerprint a;
  a.foldString("a");
  EXPECT_EQ(a.value(), 0xaf63dc4c8601ec8cULL);
  Fingerprint foobar;
  foobar.foldString("foobar");
  EXPECT_EQ(foobar.value(), 0x85944171f73967e8ULL);

  Fingerprint bits;
  bits.foldBits(1.5);
  Fingerprint word;
  std::uint64_t raw = 0;
  const double v = 1.5;
  std::memcpy(&raw, &v, sizeof raw);
  word.fold(raw);
  EXPECT_EQ(bits.value(), word.value());
}

TEST(RngTest, Uniform01StaysInRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, Uniform01MeanIsOneHalf) {
  Xoshiro256 rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    sum += rng.uniform01();
  }
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, UniformRespectsBounds) {
  Xoshiro256 rng(13);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform(-3.0, 9.0);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 9.0);
  }
}

TEST(RngTest, UniformIntCoversClosedRange) {
  Xoshiro256 rng(17);
  std::vector<int> counts(6, 0);
  for (int i = 0; i < 60000; ++i) {
    const auto v = rng.uniformInt(0, 5);
    ASSERT_GE(v, 0);
    ASSERT_LE(v, 5);
    ++counts[static_cast<std::size_t>(v)];
  }
  // Each bucket should get roughly 10000 draws.
  for (int c : counts) {
    EXPECT_NEAR(c, 10000, 500);
  }
}

TEST(RngTest, UniformIntSingletonRange) {
  Xoshiro256 rng(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.uniformInt(4, 4), 4);
  }
}

TEST(RngTest, UniformIntInvalidRangeThrows) {
  Xoshiro256 rng(23);
  EXPECT_THROW(rng.uniformInt(5, 4), PreconditionError);
}

TEST(RngTest, ExponentialHasRequestedMean) {
  Xoshiro256 rng(29);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.exponential(3.0);
    ASSERT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum / n, 3.0, 0.05);
}

TEST(RngTest, ExponentialRejectsNonPositiveMean) {
  Xoshiro256 rng(31);
  EXPECT_THROW(rng.exponential(0.0), PreconditionError);
  EXPECT_THROW(rng.exponential(-1.0), PreconditionError);
}

TEST(RngTest, NormalMomentsMatch) {
  Xoshiro256 rng(37);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal(5.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(RngTest, LogNormalIsPositive) {
  Xoshiro256 rng(41);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GT(rng.logNormal(1.0, 0.5), 0.0);
  }
}

/// The exact bits of `d`, so a pin fails on a one-ulp change.
std::uint64_t bitsOf(double d) {
  std::uint64_t b = 0;
  std::memcpy(&b, &d, sizeof b);
  return b;
}

// The draws below go through libm (std::log, std::cos, std::sqrt,
// std::exp), whose results are not correctly rounded by contract. Every
// pinned fingerprint in the repository rests on them, so these pins make a
// libm that rounds differently fail here, by name, instead of silently
// moving fingerprints. The generator itself is pinned above.
TEST(RngLibmPins, ExponentialDrawsAreBitExact) {
  Xoshiro256 rng(20140519);
  EXPECT_EQ(bitsOf(rng.exponential(2.0)), 0x4006adf31293c292ULL);
  EXPECT_EQ(bitsOf(rng.exponential(2.0)), 0x4004c622f41162e4ULL);
  EXPECT_EQ(bitsOf(rng.exponential(2.0)), 0x400ed01bf3aa8f54ULL);
}

TEST(RngLibmPins, NormalDrawsAreBitExact) {
  Xoshiro256 rng(20140519);
  for (int i = 0; i < 3; ++i) {
    (void)rng.exponential(2.0);  // the same stream as the case above
  }
  EXPECT_EQ(bitsOf(rng.normal(0.0, 1.0)), 0xbfe2c07ed7f5db5dULL);
  EXPECT_EQ(bitsOf(rng.normal(0.0, 1.0)), 0x3fdecbcc3cc9f400ULL);
  EXPECT_EQ(bitsOf(rng.normal(0.0, 1.0)), 0x4002be5442966dd6ULL);
}

TEST(RngLibmPins, LogNormalDrawsAreBitExact) {
  Xoshiro256 rng(20140519);
  for (int i = 0; i < 3; ++i) {
    (void)rng.exponential(2.0);
  }
  for (int i = 0; i < 3; ++i) {
    (void)rng.normal(0.0, 1.0);
  }
  EXPECT_EQ(bitsOf(rng.logNormal(1.0, 0.5)), 0x400cd99a9f8a2f18ULL);
  EXPECT_EQ(bitsOf(rng.logNormal(1.0, 0.5)), 0x400ed96cf0a684adULL);
  EXPECT_EQ(bitsOf(rng.logNormal(1.0, 0.5)), 0x40111da1f211ec7dULL);
}

TEST(RngTest, WorksWithStdDistributions) {
  // UniformRandomBitGenerator conformance: usable with std::shuffle.
  Xoshiro256 rng(43);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::shuffle(v.begin(), v.end(), rng);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<int>{1, 2, 3, 4, 5, 6, 7, 8}));
}

}  // namespace
