// Unit tests of the benchmark's own arithmetic and input generation.
#include <gtest/gtest.h>

#include "pipebench/common.hpp"
#include "pipebench/input.hpp"
#include "pipebench/trace.hpp"

using namespace pipebench;

TEST(PercentileRule, MedianAndP99WithEnoughSamples) {
  std::vector<double> v;
  for (int i = 1; i <= 2000; ++i) v.push_back(i);
  const Dist d = distOf(v);
  EXPECT_EQ(d.n, 2000u);
  EXPECT_EQ(d.p50, 1000);
  EXPECT_EQ(d.tailPct, 99);  // 20 samples lie beyond p99
  EXPECT_EQ(d.tail, 1980);
}

TEST(PercentileRule, TailFallsBackUntilTenSamplesLieBeyondIt) {
  std::vector<double> v;
  for (int i = 1; i <= 500; ++i) v.push_back(i);  // p99 has only 5 beyond
  Dist d = distOf(v);
  EXPECT_EQ(d.tailPct, 90);
  EXPECT_EQ(d.tail, 450);

  v.resize(40);  // p90 has 4 beyond, p75 has 10
  d = distOf(v);
  EXPECT_EQ(d.tailPct, 75);
  EXPECT_EQ(d.tail, 30);

  v.resize(19);  // too few for any tail: report the median twice
  d = distOf(v);
  EXPECT_EQ(d.tailPct, 50);
  EXPECT_EQ(d.tail, d.p50);
  EXPECT_EQ(d.p50, 10);
}

TEST(PercentileRule, EmptyAndUnsortedInput) {
  EXPECT_EQ(distOf({}).n, 0u);
  const Dist d = distOf({5, 1, 3});
  EXPECT_EQ(d.p50, 3);
}

TEST(SpanSelfTime, CoveredIsTheClippedUnionOfChildren) {
  // [10,20) and [15,30) overlap: union [10,30); [90,120) clips to [90,100).
  EXPECT_EQ(coveredNs(0, 100, {{10, 20}, {15, 30}, {90, 120}}), 30u);
  EXPECT_EQ(coveredNs(0, 100, {}), 0u);
  EXPECT_EQ(coveredNs(50, 60, {{0, 10}, {70, 80}}), 0u);
  EXPECT_EQ(coveredNs(0, 100, {{0, 100}, {20, 30}}), 100u);
}

TEST(SpanSelfTime, TableSubtractsOnlyNestedSpansOfTheSameThread) {
  // Thread 0: analyzer [0,100) > file sink [20,80) > two writes.
  // Thread 1: a file-sink span overlapping thread 0's in time, which must
  // not count as thread 0's child.
  std::vector<std::vector<Span>> threads(2);
  threads[0].push_back({0, 100, 7, 1, 2, Layer::Analyzer});
  threads[0].push_back({20, 80, 7, 1, 2, Layer::FileSink});
  threads[0].push_back({30, 40, 7, 1, 1, Layer::IoWrite});
  threads[0].push_back({50, 70, 8, 1, 1, Layer::IoWrite});
  threads[0].push_back({200, 250, 9, 1, 1, Layer::Analyzer});  // a sibling
  threads[1].push_back({10, 60, 3, 0, 1, Layer::FileSink});
  // A queue wait recorded on thread 0 that covers the analyzer span: a
  // wait is not a parent, so it takes nothing from the analyzer.
  threads[0].push_back({0, 300, 6, 1, 1, Layer::QueueWait});
  const SelfTimeTable t = selfTimeTable(threads);
  const LayerTime& analyzer = t[static_cast<size_t>(Layer::Analyzer)];
  const LayerTime& sink = t[static_cast<size_t>(Layer::FileSink)];
  const LayerTime& io = t[static_cast<size_t>(Layer::IoWrite)];
  EXPECT_EQ(analyzer.spanNs, 150u);
  EXPECT_EQ(analyzer.selfNs, 40u + 50u);  // 100 - 60, plus the sibling
  EXPECT_EQ(analyzer.spans, 2u);
  EXPECT_EQ(analyzer.items, 3u);
  EXPECT_EQ(sink.spanNs, 110u);
  EXPECT_EQ(sink.selfNs, 30u + 50u);  // 60 - 30 on thread 0, all 50 on thread 1
  EXPECT_EQ(io.selfNs, 30u);
  const LayerTime& wait = t[static_cast<size_t>(Layer::QueueWait)];
  EXPECT_EQ(wait.spanNs, 300u);
  EXPECT_EQ(wait.selfNs, 300u);
}

TEST(SdetInput, SameSeedSameDigestAndDifferentSeedDifferentInput) {
  const SdetInput a = makeSdetInput(11, 2);
  const SdetInput b = makeSdetInput(11, 2);
  const SdetInput c = makeSdetInput(12, 2);
  ASSERT_EQ(a.streams.size(), 2u);
  EXPECT_GT(a.totalEvents(), 1000u);
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_EQ(a.totalEvents(), b.totalEvents());
  EXPECT_NE(a.digest(), c.digest());
}

TEST(TickSchedule, SeededAndNearTheRequestedRate) {
  TickSchedule a(5, 1.5e6, 100'000), b(5, 1.5e6, 100'000), c(6, 1.5e6, 100'000);
  uint64_t sumA = 0;
  bool differs = false;
  for (int i = 0; i < 10'000; ++i) {
    const uint32_t x = a.next();
    EXPECT_EQ(x, b.next());
    differs = differs || x != c.next();
    sumA += x;
  }
  EXPECT_TRUE(differs);
  // 10k ticks of 100 us at 1.5 M/s: 1.5 M events expected, within 1%.
  EXPECT_NEAR(static_cast<double>(sumA), 1.5e6, 1.5e4);
  TickSchedule slow(9, 50'000, 100'000);  // mean 5 per tick: Knuth branch
  uint64_t sumSlow = 0;
  for (int i = 0; i < 10'000; ++i) sumSlow += slow.next();
  EXPECT_NEAR(static_cast<double>(sumSlow), 50'000.0, 2'500.0);
}
