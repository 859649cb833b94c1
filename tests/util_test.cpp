// Unit tests for the util substrate: time, rates, stats, series, tables.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <random>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "util/flatmap.hpp"
#include "util/function.hpp"
#include "util/intern.hpp"
#include "util/rate.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/time.hpp"
#include "util/timeseries.hpp"

namespace msim {
namespace {

// ----------------------------------------------------------------- Duration

TEST(DurationTest, FactoriesAgree) {
  EXPECT_EQ(Duration::seconds(1).toNanos(), 1'000'000'000);
  EXPECT_EQ(Duration::millis(1).toNanos(), 1'000'000);
  EXPECT_EQ(Duration::micros(1).toNanos(), 1'000);
  EXPECT_EQ(Duration::nanos(7).toNanos(), 7);
  EXPECT_EQ(Duration::minutes(2).toNanos(), 120'000'000'000LL);
}

TEST(DurationTest, FractionalFactoriesRound) {
  EXPECT_EQ(Duration::millis(0.5).toNanos(), 500'000);
  EXPECT_EQ(Duration::seconds(0.0000000015).toNanos(), 2);  // rounds
  EXPECT_EQ(Duration::millis(-1.0).toNanos(), -1'000'000);
}

TEST(DurationTest, Arithmetic) {
  const auto a = Duration::millis(3);
  const auto b = Duration::millis(2);
  EXPECT_EQ((a + b).toMillis(), 5.0);
  EXPECT_EQ((a - b).toMillis(), 1.0);
  EXPECT_EQ((a * 2.0).toMillis(), 6.0);
  EXPECT_DOUBLE_EQ(a / b, 1.5);
  EXPECT_TRUE((b - a).isNegative());
  EXPECT_TRUE(Duration::zero().isZero());
}

TEST(DurationTest, Comparisons) {
  EXPECT_LT(Duration::millis(1), Duration::millis(2));
  EXPECT_EQ(Duration::seconds(1), Duration::millis(1000));
  EXPECT_GE(Duration::max(), Duration::seconds(1e9));
}

TEST(DurationTest, ToStringPicksUnit) {
  EXPECT_EQ(Duration::seconds(2).toString(), "2s");
  EXPECT_EQ(Duration::millis(3).toString(), "3ms");
  EXPECT_EQ(Duration::micros(4).toString(), "4us");
  EXPECT_EQ(Duration::nanos(5).toString(), "5ns");
}

// ---------------------------------------------------------------- TimePoint

TEST(TimePointTest, EpochAndOffsets) {
  const auto t = TimePoint::epoch() + Duration::seconds(3);
  EXPECT_EQ(t.toSeconds(), 3.0);
  EXPECT_EQ((t - TimePoint::epoch()).toSeconds(), 3.0);
  EXPECT_EQ((t - Duration::seconds(1)).toSeconds(), 2.0);
  EXPECT_LT(TimePoint::epoch(), t);
}

// ----------------------------------------------------------------- ByteSize

TEST(ByteSizeTest, UnitsAndArithmetic) {
  EXPECT_EQ(ByteSize::kilobytes(2).toBytes(), 2000);
  EXPECT_EQ(ByteSize::megabytes(1).toBytes(), 1'000'000);
  EXPECT_EQ(ByteSize::bytes(10).toBits(), 80);
  EXPECT_EQ((ByteSize::bytes(3) + ByteSize::bytes(4)).toBytes(), 7);
  EXPECT_EQ((ByteSize::bytes(10) * 3).toBytes(), 30);
}

// ----------------------------------------------------------------- DataRate

TEST(DataRateTest, TransmissionTime) {
  // 1 Mbps, 125 bytes = 1000 bits -> 1 ms.
  const auto rate = DataRate::mbps(1);
  EXPECT_EQ(rate.transmissionTime(ByteSize::bytes(125)).toMillis(), 1.0);
  EXPECT_TRUE(DataRate::unlimited().transmissionTime(ByteSize::megabytes(5)).isZero());
}

TEST(DataRateTest, RateOf) {
  const auto r = rateOf(ByteSize::bytes(125'000), Duration::seconds(1));
  EXPECT_DOUBLE_EQ(r.toMbps(), 1.0);
  EXPECT_TRUE(rateOf(ByteSize::bytes(10), Duration::zero()).isZero());
}

TEST(DataRateTest, ToString) {
  EXPECT_EQ(DataRate::kbps(40).toString(), "40Kbps");
  EXPECT_EQ(DataRate::mbps(1.5).toString(), "1.5Mbps");
  EXPECT_EQ(DataRate::unlimited().toString(), "unlimited");
}

// ---------------------------------------------------------------------- Rng

TEST(RngTest, Deterministic) {
  Rng a{42};
  Rng b{42};
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0, 1), b.uniform(0, 1));
  }
}

TEST(RngTest, UniformBounds) {
  Rng rng{7};
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(2.0, 5.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 5.0);
    const auto n = rng.uniformInt(-3, 3);
    EXPECT_GE(n, -3);
    EXPECT_LE(n, 3);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng{7};
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng{123};
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(RngTest, NormalMoments) {
  Rng rng{99};
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.add(rng.normal(10.0, 2.0));
  EXPECT_NEAR(stats.mean(), 10.0, 0.1);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.1);
}

TEST(RngTest, NormalAtLeastRespectsFloor) {
  Rng rng{5};
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(rng.normalAtLeast(0.0, 10.0, -1.0), -1.0);
  }
}

TEST(RngTest, ZeroStddevIsDeterministic) {
  Rng rng{5};
  EXPECT_DOUBLE_EQ(rng.normal(3.0, 0.0), 3.0);
}

// -------------------------------------------------------------- RunningStats

TEST(RunningStatsTest, BasicMoments) {
  RunningStats s;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);  // sample stddev
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStatsTest, EmptyAndSingle) {
  RunningStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.ci95HalfWidth(), 0.0);
}

TEST(RunningStatsTest, MergeMatchesCombined) {
  Rng rng{11};
  RunningStats a;
  RunningStats b;
  RunningStats all;
  for (int i = 0; i < 500; ++i) {
    const double v = rng.normal(0, 1);
    (i % 2 == 0 ? a : b).add(v);
    all.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStatsTest, Ci95ShrinksWithSamples) {
  Rng rng{3};
  RunningStats small;
  RunningStats large;
  for (int i = 0; i < 5; ++i) small.add(rng.normal(0, 1));
  for (int i = 0; i < 500; ++i) large.add(rng.normal(0, 1));
  EXPECT_GT(small.ci95HalfWidth(), large.ci95HalfWidth());
}

// ---------------------------------------------------------------- statistics

TEST(CorrelationTest, PerfectAndInverse) {
  const std::vector<double> x{1, 2, 3, 4, 5};
  const std::vector<double> y{2, 4, 6, 8, 10};
  std::vector<double> inv{10, 8, 6, 4, 2};
  EXPECT_NEAR(pearsonCorrelation(x, y), 1.0, 1e-12);
  EXPECT_NEAR(pearsonCorrelation(x, inv), -1.0, 1e-12);
}

TEST(CorrelationTest, DegenerateIsZero) {
  const std::vector<double> x{1, 1, 1};
  const std::vector<double> y{2, 3, 4};
  EXPECT_DOUBLE_EQ(pearsonCorrelation(x, y), 0.0);
  EXPECT_DOUBLE_EQ(pearsonCorrelation({}, {}), 0.0);
}

TEST(LinearFitTest, RecoversLine) {
  std::vector<double> x;
  std::vector<double> y;
  for (int i = 0; i < 20; ++i) {
    x.push_back(i);
    y.push_back(3.0 * i + 7.0);
  }
  const auto fit = linearFit(x, y);
  EXPECT_NEAR(fit.slope, 3.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 7.0, 1e-9);
  EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

// -------------------------------------------------------------- BinnedSeries

TEST(BinnedSeriesTest, BinningAndRates) {
  BinnedSeries s{Duration::seconds(1)};
  s.addBytes(TimePoint::epoch() + Duration::millis(100), ByteSize::bytes(1000));
  s.addBytes(TimePoint::epoch() + Duration::millis(900), ByteSize::bytes(1000));
  s.addBytes(TimePoint::epoch() + Duration::millis(1500), ByteSize::bytes(500));
  EXPECT_EQ(s.binCount(), 2u);
  EXPECT_DOUBLE_EQ(s.binSum(0), 2000.0);
  EXPECT_DOUBLE_EQ(s.binSum(1), 500.0);
  EXPECT_DOUBLE_EQ(s.binRate(0).toKbps(), 16.0);
  EXPECT_DOUBLE_EQ(s.total(), 2500.0);
}

TEST(BinnedSeriesTest, MeanRateWindow) {
  BinnedSeries s{Duration::seconds(1)};
  for (int i = 0; i < 10; ++i) {
    s.addBytes(TimePoint::epoch() + Duration::seconds(i) + Duration::millis(1),
               ByteSize::bytes(1250));  // 10 Kbps each second
  }
  EXPECT_NEAR(s.meanRate(0, 9).toKbps(), 10.0, 1e-9);
  EXPECT_NEAR(s.meanRate(2, 4).toKbps(), 10.0, 1e-9);
}

TEST(BinnedSeriesTest, OriginOffsetAndEarlySamples) {
  BinnedSeries s{Duration::seconds(1), TimePoint::epoch() + Duration::seconds(10)};
  s.add(TimePoint::epoch() + Duration::seconds(5), 99.0);  // before origin -> bin 0
  s.add(TimePoint::epoch() + Duration::seconds(11.5), 1.0);
  EXPECT_DOUBLE_EQ(s.binSum(0), 99.0);
  EXPECT_DOUBLE_EQ(s.binSum(1), 1.0);
}

TEST(BinnedSeriesTest, RatesVectorPadding) {
  BinnedSeries s{Duration::seconds(1)};
  s.addBytes(TimePoint::epoch() + Duration::millis(500), ByteSize::bytes(125));
  const auto rates = s.ratesKbps(5);
  ASSERT_EQ(rates.size(), 5u);
  EXPECT_DOUBLE_EQ(rates[0], 1.0);
  EXPECT_DOUBLE_EQ(rates[4], 0.0);
}

TEST(BinnedSeriesTest, RejectsNonPositiveBin) {
  EXPECT_THROW(BinnedSeries(Duration::zero()), std::invalid_argument);
}

// -------------------------------------------------------------- TablePrinter

TEST(TableTest, RendersAlignedColumns) {
  TablePrinter t{{"Platform", "Tput"}};
  t.addRow({"VRChat", "31.4"});
  t.addRow({"Worlds", "752"});
  const auto out = t.render();
  EXPECT_NE(out.find("Platform"), std::string::npos);
  EXPECT_NE(out.find("VRChat"), std::string::npos);
  EXPECT_NE(out.find("752"), std::string::npos);
}

TEST(TableTest, CsvRoundTrip) {
  TablePrinter t{{"a", "b"}};
  t.addRow({"1", "2"});
  EXPECT_EQ(t.renderCsv(), "a,b\n1,2\n");
}

TEST(TableTest, ShortRowsTolerated) {
  TablePrinter t{{"a", "b", "c"}};
  t.addRow({"only"});
  EXPECT_NE(t.render().find("only"), std::string::npos);
}

TEST(FmtTest, MeanStdCell) {
  EXPECT_EQ(fmtMeanStd(41.3, 2.1), "41.3/2.1");
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
}

// ----------------------------------------------------------- UniqueFunction

TEST(UniqueFunctionTest, EmptyAndReset) {
  UniqueFunction f;
  EXPECT_FALSE(f);
  f = [] {};
  EXPECT_TRUE(f);
  f.reset();
  EXPECT_FALSE(f);
}

TEST(UniqueFunctionTest, InvokesSmallCapture) {
  int hits = 0;
  UniqueFunction f{[&hits] { ++hits; }};
  f();
  f();
  EXPECT_EQ(hits, 2);
}

TEST(UniqueFunctionTest, MoveOnlyCapture) {
  auto p = std::make_unique<int>(5);
  int seen = 0;
  UniqueFunction f{[p = std::move(p), &seen] { seen = *p; }};
  UniqueFunction g{std::move(f)};
  EXPECT_FALSE(f);  // NOLINT(bugprone-use-after-move): moved-from is empty
  g();
  EXPECT_EQ(seen, 5);
}

TEST(UniqueFunctionTest, LargeCaptureFallsBackToHeap) {
  std::array<double, 32> big{};  // 256 bytes, past the inline buffer
  big[31] = 9.5;
  double seen = 0.0;
  UniqueFunction f{[big, &seen] { seen = big[31]; }};
  UniqueFunction g;
  g = std::move(f);
  g();
  EXPECT_DOUBLE_EQ(seen, 9.5);
}

TEST(UniqueFunctionTest, CaptureDestroyedOnReset) {
  auto tracker = std::make_shared<int>(1);
  std::weak_ptr<int> weak = tracker;
  UniqueFunction f{[t = std::move(tracker)] { (void)t; }};
  EXPECT_FALSE(weak.expired());
  f.reset();
  EXPECT_TRUE(weak.expired());  // eager destruction, not deferred
}

// ------------------------------------------------------------------ MsgKind

TEST(MsgKindTest, InternedEqualityIsPointerEquality) {
  const MsgKind a{"avatar:pose"};
  const MsgKind b{std::string{"avatar:"} + "pose"};
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.c_str(), b.c_str());  // same interned storage
  EXPECT_NE(a, MsgKind{"avatar:voice"});
}

TEST(MsgKindTest, ComparesWithStringView) {
  const MsgKind k{"relay:join"};
  EXPECT_EQ(k, std::string_view{"relay:join"});
  EXPECT_NE(k, std::string_view{"relay:leave"});
  EXPECT_EQ(k.view(), "relay:join");
  EXPECT_EQ(k.str(), "relay:join");
}

TEST(MsgKindTest, EmptyKind) {
  const MsgKind none;
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(none.view(), "");
  EXPECT_NE(none, MsgKind{"x"});
  EXPECT_EQ(none, MsgKind{""});  // empty interns to the same (null) handle
}

TEST(MsgKindTest, StartsWith) {
  const MsgKind k{"http-req:/api/join"};
  EXPECT_TRUE(k.startsWith("http-req:"));
  EXPECT_FALSE(k.startsWith("http-resp:"));
  EXPECT_FALSE(MsgKind{}.startsWith("x"));
  EXPECT_TRUE(k.startsWith(""));
}

TEST(MsgKindTest, HashableInUnorderedContainers) {
  std::unordered_set<MsgKind> kinds;
  kinds.insert(MsgKind{"a"});
  kinds.insert(MsgKind{"b"});
  kinds.insert(MsgKind{std::string{"a"}});  // duplicate after interning
  EXPECT_EQ(kinds.size(), 2u);
  EXPECT_TRUE(kinds.count(MsgKind{"a"}));
}

// ------------------------------------------------------------ FlatMap64

TEST(FlatMap64Test, InsertFindEraseRoundTrip) {
  FlatMap64<int> m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find(42), nullptr);
  m.insert(42, 7);
  ASSERT_NE(m.find(42), nullptr);
  EXPECT_EQ(*m.find(42), 7);
  EXPECT_TRUE(m.contains(42));
  EXPECT_EQ(m.size(), 1u);
  EXPECT_TRUE(m.erase(42));
  EXPECT_FALSE(m.erase(42));
  EXPECT_EQ(m.find(42), nullptr);
  EXPECT_TRUE(m.empty());
}

TEST(FlatMap64Test, OperatorBracketInsertsAndUpdates) {
  FlatMap64<std::uint64_t> m;
  m[5] = 50;
  m[5] = 51;
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(*m.find(5), 51u);
}

TEST(FlatMap64Test, GrowthKeepsAllEntriesFindable) {
  FlatMap64<std::uint64_t> m;
  // Adversarial-ish keys: strided, clustered, and large (growth exercises
  // rehash + probe relocation; erase exercises backward-shift deletion).
  for (std::uint64_t k = 0; k < 5000; ++k) {
    m.insert(k * 0x100000001ull + 3, k);
  }
  EXPECT_EQ(m.size(), 5000u);
  for (std::uint64_t k = 0; k < 5000; ++k) {
    ASSERT_NE(m.find(k * 0x100000001ull + 3), nullptr) << k;
    EXPECT_EQ(*m.find(k * 0x100000001ull + 3), k);
  }
  // Erase every other key; the rest must stay reachable across the shifts.
  for (std::uint64_t k = 0; k < 5000; k += 2) {
    EXPECT_TRUE(m.erase(k * 0x100000001ull + 3));
  }
  EXPECT_EQ(m.size(), 2500u);
  for (std::uint64_t k = 1; k < 5000; k += 2) {
    ASSERT_NE(m.find(k * 0x100000001ull + 3), nullptr) << k;
  }
  for (std::uint64_t k = 0; k < 5000; k += 2) {
    EXPECT_EQ(m.find(k * 0x100000001ull + 3), nullptr) << k;
  }
}

TEST(FlatMap64Test, EraseKeepsProbeChainsThatPassAnElementAtItsIdealSlot) {
  // Regression: backward-shift deletion must *skip* (not stop at) an element
  // that sits at its ideal slot — elements later in the cluster may still
  // probe through the hole. This exact key sequence comes from the interest
  // grid's cell table (packed cell keys of avatars orbiting across cell
  // boundaries) and left 0x7ffffffd80000004 unreachable under the old code.
  FlatMap64<std::uint32_t> m;
  m[0x7fffffff80000001ull] = 0;
  m[0x800000017ffffffcull] = 1;
  m[0x7fffffff80000005ull] = 2;
  m.erase(0x7fffffff80000005ull);
  m[0x7ffffffe80000005ull] = 2;
  m.erase(0x7fffffff80000001ull);
  m[0x7ffffffe80000001ull] = 0;
  m.erase(0x7ffffffe80000005ull);
  m[0x7ffffffd80000005ull] = 2;
  m.erase(0x800000017ffffffcull);
  m[0x800000027ffffffcull] = 1;
  m.erase(0x7ffffffd80000005ull);
  m[0x7ffffffd80000004ull] = 2;
  m.erase(0x800000027ffffffcull);
  m[0x800000027ffffffdull] = 1;
  ASSERT_NE(m.find(0x7ffffffd80000004ull), nullptr);
  EXPECT_EQ(*m.find(0x7ffffffd80000004ull), 2u);
  ASSERT_NE(m.find(0x7ffffffe80000001ull), nullptr);
  ASSERT_NE(m.find(0x800000027ffffffdull), nullptr);
  EXPECT_EQ(m.size(), 3u);
}

TEST(FlatMap64Test, ChurnMatchesReferenceMap) {
  // High erase/reinsert churn over a small key universe builds long probe
  // clusters in a small table — the regime where deletion bugs hide. Every
  // operation is cross-checked against std::unordered_map.
  std::mt19937_64 rng{0xC0FFEEu};
  FlatMap64<std::uint32_t> m;
  std::unordered_map<std::uint64_t, std::uint32_t> ref;
  for (int op = 0; op < 20000; ++op) {
    const std::uint64_t key = rng() % 48;
    if (rng() % 3 == 0) {
      EXPECT_EQ(m.erase(key), ref.erase(key) > 0) << "op " << op;
    } else {
      const auto v = static_cast<std::uint32_t>(rng());
      m[key] = v;
      ref[key] = v;
    }
    ASSERT_EQ(m.size(), ref.size()) << "op " << op;
  }
  for (const auto& [k, v] : ref) {
    ASSERT_NE(m.find(k), nullptr) << k;
    EXPECT_EQ(*m.find(k), v);
  }
  for (std::uint64_t k = 0; k < 48; ++k) {
    EXPECT_EQ(m.contains(k), ref.count(k) > 0) << k;
  }
}

TEST(FlatMap64Test, ForEachVisitsEveryEntryExactlyOnce) {
  FlatMap64<int> m;
  for (std::uint64_t k = 1; k <= 100; ++k) m.insert(k, static_cast<int>(k));
  std::unordered_set<std::uint64_t> seen;
  int sum = 0;
  m.forEach([&](std::uint64_t k, int& v) {
    EXPECT_TRUE(seen.insert(k).second);
    sum += v;
  });
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_EQ(sum, 5050);
}

TEST(FlatMap64Test, ForEachOrderedVisitsAscendingByKey) {
  FlatMap64<int> m;
  // Insertion order deliberately scrambled; keys include clustered values
  // that collide into nearby slots.
  const std::uint64_t keys[] = {901, 3, 512, 4, 511, 77, 900, 1, 513};
  for (std::uint64_t k : keys) m.insert(k, static_cast<int>(k * 2));
  std::vector<std::uint64_t> visited;
  m.forEachOrdered([&](std::uint64_t k, int& v) {
    EXPECT_EQ(v, static_cast<int>(k * 2));
    visited.push_back(k);
  });
  ASSERT_EQ(visited.size(), std::size(keys));
  EXPECT_TRUE(std::is_sorted(visited.begin(), visited.end()));
  // Const overload sees the same order.
  const FlatMap64<int>& cm = m;
  std::vector<std::uint64_t> constVisited;
  cm.forEachOrdered(
      [&](std::uint64_t k, const int&) { constVisited.push_back(k); });
  EXPECT_EQ(constVisited, visited);
}

TEST(FlatMap64Test, ForEachOrderedIndependentOfMutationHistory) {
  // Two maps with identical final contents but different insert/erase
  // histories (so different slot layouts) must produce the same ordered walk.
  FlatMap64<int> a;
  FlatMap64<int> b;
  for (std::uint64_t k = 1; k <= 64; ++k) a.insert(k, static_cast<int>(k));
  for (std::uint64_t k = 64; k >= 1; --k) b.insert(k, static_cast<int>(k));
  for (std::uint64_t k = 100; k < 200; ++k) b.insert(k, 0);
  for (std::uint64_t k = 100; k < 200; ++k) b.erase(k);
  std::vector<std::uint64_t> orderA;
  std::vector<std::uint64_t> orderB;
  a.forEachOrdered([&](std::uint64_t k, int&) { orderA.push_back(k); });
  b.forEachOrdered([&](std::uint64_t k, int&) { orderB.push_back(k); });
  EXPECT_EQ(orderA, orderB);
}

TEST(FlatMap64Test, MoveOnlyValuesSurviveRehash) {
  FlatMap64<std::unique_ptr<int>> m;
  for (std::uint64_t k = 0; k < 300; ++k) {
    m.insert(k, std::make_unique<int>(static_cast<int>(k)));
  }
  for (std::uint64_t k = 0; k < 300; ++k) {
    ASSERT_NE(m.find(k), nullptr);
    EXPECT_EQ(**m.find(k), static_cast<int>(k));
  }
}

TEST(FlatMap64Test, ClearAndReserve) {
  FlatMap64<int> m;
  m.reserve(1000);
  for (std::uint64_t k = 0; k < 100; ++k) m.insert(k, 1);
  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find(7), nullptr);
  m.insert(7, 2);
  EXPECT_EQ(*m.find(7), 2);
}

}  // namespace
}  // namespace msim
