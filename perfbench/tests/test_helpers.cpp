/**
 * @file
 * Tests of the benchmark runner's measurement helpers: the
 * tail-percentile rule, due-time latency of the open-loop generator and
 * the frontier digest check of design_sweep.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "helpers.h"

namespace perfbench {
namespace {

std::vector<double>
iota(size_t n)
{
    std::vector<double> v(n);
    for (size_t i = 0; i < n; ++i)
        v[i] = static_cast<double>(i + 1);
    return v;
}

TEST(Percentile, NearestRankAndBeyondCount)
{
    std::vector<double> s = iota(100);
    const Percentile p = percentile(s, 90);
    EXPECT_EQ(p.value, 90);
    EXPECT_EQ(p.samples, 100u);
    EXPECT_EQ(p.beyond, 10u);
    EXPECT_EQ(median(iota(5)), 3);
}

TEST(TailPercentile, PicksHighestLadderStepWithTenBeyond)
{
    // 100 samples: p90 leaves exactly 10 beyond, p95 only 5.
    const Percentile p = tailPercentile(iota(100));
    EXPECT_EQ(p.pct, 90);
    EXPECT_EQ(p.value, 90);
    EXPECT_EQ(p.beyond, 10u);
    EXPECT_EQ(p.samples, 100u);

    // 99 samples: p90 leaves 9 beyond, so the rule falls to p75.
    EXPECT_EQ(tailPercentile(iota(99)).pct, 75);

    // 400k samples: p99.995 leaves 20 beyond, p99.999 only 4.
    const Percentile big = tailPercentile(iota(400000));
    EXPECT_EQ(big.pct, 99.995);
    EXPECT_GE(big.beyond, kTailBeyond);
}

TEST(TailPercentile, ReportsUnsupportedTailOnTinySamples)
{
    const Percentile p = tailPercentile(iota(12));
    EXPECT_EQ(p.pct, 50);
    EXPECT_LT(p.beyond, kTailBeyond);
    EXPECT_NE(describe(p).find("UNSUPPORTED"), std::string::npos);
    EXPECT_EQ(describe(tailPercentile(iota(100))),
              "p90 of 100 (10 beyond)");
}

TEST(TailPercentile, IgnoresInputOrder)
{
    std::vector<double> s = iota(1000);
    std::vector<double> rev(s.rbegin(), s.rend());
    EXPECT_EQ(tailPercentile(s).value, tailPercentile(rev).value);
}

TEST(WindowedTail, OneStallMovesOneWindowNotTheMedian)
{
    // 50 windows of 200 samples at 1.0 each, p95 = 1.0 per window.
    std::vector<double> s(10000, 1.0);
    const WindowedTail calm = windowedTail(s, 200);
    EXPECT_EQ(calm.windows, 50u);
    EXPECT_EQ(calm.perWindow.pct, 95);
    EXPECT_EQ(calm.perWindow.samples, 200u);
    EXPECT_EQ(calm.perWindow.beyond, 10u);
    EXPECT_EQ(calm.value, 1.0);

    // A stall delaying 100 consecutive samples by 50 shows in the
    // whole-run tail but leaves the median window tail alone.
    for (size_t i = 4000; i < 4100; ++i)
        s[i] = 50.0;
    EXPECT_EQ(tailPercentile(s).value, 50.0);
    EXPECT_EQ(windowedTail(s, 200).value, 1.0);

    // Slow everywhere: every window moves, so the median does too.
    for (size_t i = 0; i < s.size(); i += 10)
        s[i] = 3.0;
    EXPECT_EQ(windowedTail(s, 200).value, 3.0);
}

TEST(WindowedTail, ShortRunFallsBackToOneWindow)
{
    const WindowedTail t = windowedTail(iota(150), 200);
    EXPECT_EQ(t.windows, 1u);
    EXPECT_EQ(t.perWindow.samples, 150u);
    EXPECT_EQ(t.value, tailPercentile(iota(150)).value);
}

TEST(DueTimeLatency, CountsFromDueTimeNotSubmit)
{
    // Arrival 1 was submitted 5 ms late (the generator stalled):
    // its latency still runs from its due time.
    const std::vector<double> due = {1.000, 1.001, 1.002};
    const std::vector<uint64_t> ids = {7, 8, 9};
    const std::vector<Completion> done = {
        {9, 1.0025}, {7, 1.0001}, {8, 1.0062}};
    const OpenLoopOutcome o = matchCompletions(due, ids, done, 1e-3);
    ASSERT_EQ(o.latencies.size(), 3u);
    EXPECT_NEAR(o.latencies[0], 0.0001, 1e-12);
    EXPECT_NEAR(o.latencies[1], 0.0052, 1e-12);
    EXPECT_NEAR(o.latencies[2], 0.0005, 1e-12);
    EXPECT_EQ(o.late, 1u);
    EXPECT_TRUE(o.exactlyOnce());
}

TEST(DueTimeLatency, FlagsMissingDuplicateAndUnknownCompletions)
{
    const std::vector<double> due = {0.0, 0.1, 0.2, 0.3};
    // id 0 = refused by the server: neither expected nor missing.
    const std::vector<uint64_t> ids = {1, 2, 0, 4};
    const std::vector<Completion> done = {
        {1, 0.01}, {1, 0.02}, {5, 0.2}, {4, 0.31}};
    const OpenLoopOutcome o = matchCompletions(due, ids, done, 1.0);
    EXPECT_EQ(o.missing, 1u);    // id 2
    EXPECT_EQ(o.duplicates, 1u); // second id 1
    EXPECT_EQ(o.unknown, 1u);    // id 5
    EXPECT_FALSE(o.exactlyOnce());
    ASSERT_EQ(o.latencies.size(), 2u);
    EXPECT_NEAR(o.latencies[0], 0.01, 1e-12); // first completion wins
}

vitcod::dse::DsePoint
point(size_t index, double lat, double energy, double area)
{
    vitcod::dse::DsePoint p;
    p.index = index;
    p.obj = {lat, energy, area};
    return p;
}

TEST(FrontierDigest, DetectsAnyChangeInIndexOrObjectives)
{
    vitcod::dse::ParetoFrontier f;
    f.insert(point(3, 1.0e-3, 2.0e-3, 5.0));
    f.insert(point(11, 2.0e-3, 1.0e-3, 4.0));
    const uint64_t base = frontierDigest(f);
    EXPECT_EQ(base, frontierDigest(f));

    vitcod::dse::ParetoFrontier idx;
    idx.insert(point(4, 1.0e-3, 2.0e-3, 5.0));
    idx.insert(point(11, 2.0e-3, 1.0e-3, 4.0));
    EXPECT_NE(frontierDigest(idx), base);

    // A last-ulp change of one objective must show.
    vitcod::dse::ParetoFrontier ulp;
    ulp.insert(point(3, 1.0e-3, 2.0e-3, 5.0));
    ulp.insert(point(11, std::nextafter(2.0e-3, 1.0), 1.0e-3, 4.0));
    EXPECT_NE(frontierDigest(ulp), base);

    vitcod::dse::ParetoFrontier fewer;
    fewer.insert(point(3, 1.0e-3, 2.0e-3, 5.0));
    EXPECT_NE(frontierDigest(fewer), base);

    // Provenance is not part of the digest.
    vitcod::dse::ParetoFrontier meta = f;
    meta.algorithm = "anneal";
    meta.evaluated = 99;
    EXPECT_EQ(frontierDigest(meta), base);
}

TEST(FrontierDigest, StoredDigestRoundTripsAndRejectsGarbage)
{
    const std::string path = ::testing::TempDir() + "perfbench_digest";
    const std::string hex = hexDigest(0x0123456789abcdefULL);
    EXPECT_EQ(hex, "0123456789abcdef");
    {
        std::ofstream(path) << hex << "\n# comment\n";
    }
    std::string got;
    ASSERT_TRUE(readDigestFile(path, got));
    EXPECT_EQ(got, hex);
    {
        std::ofstream(path) << "not-a-digest\n";
    }
    EXPECT_FALSE(readDigestFile(path, got));
    EXPECT_FALSE(readDigestFile(path + ".missing", got));
    std::remove(path.c_str());
}

} // namespace
} // namespace perfbench
