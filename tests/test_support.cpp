/**
 * @file
 * Tests for the support substrate: logging/error helpers, the
 * deterministic RNG, the statistics registry and string utilities.
 */
#include <gtest/gtest.h>

#include <set>

#include "support/logging.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/strings.hpp"

using namespace nol;

TEST(Logging, StrformatFormats)
{
    EXPECT_EQ(strformat("x=%d y=%s", 3, "ab"), "x=3 y=ab");
    EXPECT_EQ(strformat("%.2f", 1.005), "1.00");
}

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("bad config %d", 1), FatalError);
}

TEST(Logging, PanicThrowsPanicError)
{
    EXPECT_THROW(panic("bug %s", "here"), PanicError);
}

TEST(Logging, AssertMacro)
{
    EXPECT_NO_THROW(NOL_ASSERT(1 + 1 == 2, "fine"));
    EXPECT_THROW(NOL_ASSERT(false, "count=%d", 7), PanicError);
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SeedsProduceDifferentStreams)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Rng, RangeBounds)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        int64_t v = rng.range(-3, 9);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 9);
    }
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(9);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Percentile, NearestRankMatchesHandComputedRanks)
{
    // 10 sorted values. The epsilon nudge keeps p*n landing exactly on
    // an integer at that rank (0.5*10 → rank 5, 0.9*10 → rank 9) while
    // fractional products round up (0.99*10 → rank 10).
    std::vector<double> sorted{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
    EXPECT_DOUBLE_EQ(percentileNearestRank(sorted, 0.50), 5);
    EXPECT_DOUBLE_EQ(percentileNearestRank(sorted, 0.90), 9);
    EXPECT_DOUBLE_EQ(percentileNearestRank(sorted, 0.99), 10);
    EXPECT_DOUBLE_EQ(percentileNearestRank(sorted, 0.999), 10);
    EXPECT_DOUBLE_EQ(percentileNearestRank(sorted, 0.0), 1);
    EXPECT_DOUBLE_EQ(percentileNearestRank(sorted, 1.0), 10);
}

TEST(Percentile, EmptyAndSingleton)
{
    EXPECT_DOUBLE_EQ(percentileNearestRank({}, 0.99), 0);
    std::vector<double> one{42.0};
    EXPECT_DOUBLE_EQ(percentileNearestRank(one, 0.5), 42.0);
    EXPECT_DOUBLE_EQ(percentileNearestRank(one, 0.999), 42.0);
}

TEST(Percentile, SummaryTailSeparatesAt1000Samples)
{
    // 1000 samples, two stragglers: p99 (rank 990) stays in the body,
    // p999 (rank 999) lands on the smaller straggler, max on the worst.
    std::vector<double> values;
    for (int i = 0; i < 998; ++i)
        values.push_back(1.0 + i * 1e-4); // body: ~1.0..1.1
    values.push_back(50.0);
    values.push_back(100.0);
    LatencySummary summary = summarizeLatencies(values);
    EXPECT_EQ(summary.count, 1000u);
    EXPECT_NEAR(summary.p50, 1.05, 0.01);
    EXPECT_LT(summary.p99, 1.2);
    EXPECT_DOUBLE_EQ(summary.p999, 50.0);
    EXPECT_DOUBLE_EQ(summary.max, 100.0);
    EXPECT_GT(summary.mean, 1.0);
}

TEST(Percentile, SummaryAcceptsUnsortedInput)
{
    std::vector<double> values{5, 1, 4, 2, 3};
    LatencySummary summary = summarizeLatencies(values);
    EXPECT_EQ(summary.count, 5u);
    EXPECT_DOUBLE_EQ(summary.p50, 3);
    EXPECT_DOUBLE_EQ(summary.max, 5);
    EXPECT_DOUBLE_EQ(summary.mean, 3);
}

TEST(Strings, SplitJoinRoundTrip)
{
    auto parts = split("a,b,,c", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[2], "");
    EXPECT_EQ(join(parts, ","), "a,b,,c");
}

TEST(Strings, Trim)
{
    EXPECT_EQ(trim("  x y \t\n"), "x y");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("   "), "");
}

TEST(Strings, PrefixSuffix)
{
    EXPECT_TRUE(startsWith("foobar", "foo"));
    EXPECT_FALSE(startsWith("fo", "foo"));
    EXPECT_TRUE(endsWith("foobar", "bar"));
    EXPECT_FALSE(endsWith("ar", "bar"));
}

TEST(Strings, Fixed)
{
    EXPECT_EQ(fixed(3.14159, 2), "3.14");
    EXPECT_EQ(fixed(-0.5, 1), "-0.5");
}

TEST(Strings, TextTableAligns)
{
    TextTable table;
    table.header({"name", "value"});
    table.row({"alpha", "1.50"});
    table.row({"b", "22.00"});
    std::string out = table.render();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("-----"), std::string::npos);
    // Numeric column right-aligned: "22.00" ends at same column as "1.50".
    auto lines = split(out, '\n');
    ASSERT_GE(lines.size(), 4u);
    EXPECT_EQ(lines[2].size(), lines[3].size());
}
