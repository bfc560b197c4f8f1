/**
 * @file
 * Unit tests of the benchmark's own arithmetic: the tail percentile
 * rule, open-loop timing from the due time, span self time, and the
 * engine attribution split built from manifest routes.
 */

#include <gtest/gtest.h>

#include "bench_core.hh"
#include "tracer.hh"

using namespace occbench;

namespace {

std::vector<double>
ramp(std::size_t n)
{
    std::vector<double> values;
    for (std::size_t i = 1; i <= n; ++i)
        values.push_back(static_cast<double>(i));
    return values;
}

} // namespace

TEST(TailPercentile, NeedsTenSamplesBeyondP99)
{
    const TailPercentile at_1000 = tailPercentile(ramp(1000), 0.99);
    EXPECT_EQ(at_1000.value, 990.0);
    EXPECT_EQ(at_1000.beyond, 10u);
    EXPECT_TRUE(at_1000.reportable);

    const TailPercentile at_999 = tailPercentile(ramp(999), 0.99);
    EXPECT_EQ(at_999.value, 990.0);
    EXPECT_EQ(at_999.beyond, 9u);
    EXPECT_FALSE(at_999.reportable);

    EXPECT_FALSE(tailPercentile({}, 0.99).reportable);
}

TEST(TailPercentile, IgnoresInputOrder)
{
    std::vector<double> values = ramp(2000);
    std::reverse(values.begin(), values.end());
    const TailPercentile p99 = tailPercentile(values, 0.99);
    EXPECT_EQ(p99.value, 1980.0);
    EXPECT_EQ(p99.beyond, 20u);
}

TEST(Median, OddEvenAndEmpty)
{
    EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_EQ(median({}), 0.0);
    EXPECT_EQ(nearestRank(ramp(10), 0.5), 5.0);
}

TEST(OpenLoop, LatencyRunsFromTheDueTime)
{
    // Due at 1.000 s, sent 5 ms late, done at 1.030 s: the request
    // waited 30 ms, not the 25 ms a send-time clock would show.
    OpenLoopSample sample{1.000, 1.005, 1.030};
    EXPECT_NEAR(openLoopLatencyMs(sample), 30.0, 1e-9);
    EXPECT_NEAR(generatorLateMs(sample), 5.0, 1e-9);

    OpenLoopSample early{2.0, 1.999, 2.010};
    EXPECT_EQ(generatorLateMs(early), 0.0);
}

TEST(SelfTime, SubtractsTheUnionOfChildren)
{
    std::vector<Span> spans = {
        {"request", 0, 100, -1, 7},
        {"parse", 10, 30, 0, 7},
        {"open", 20, 50, 0, 7},     // overlaps parse: union 10..50
        {"lookup", 90, 120, 0, 7},  // clipped to the parent's end
        {"inner", 25, 28, 2, 7},
    };
    const std::vector<std::int64_t> self = selfTimesNs(spans);
    EXPECT_EQ(self[0], 100 - 40 - 10);
    EXPECT_EQ(self[1], 20);
    EXPECT_EQ(self[2], 30 - 3);
    EXPECT_EQ(self[3], 30);
    EXPECT_EQ(self[4], 3);
}

TEST(SelfTime, TracerScopesNestOnOneThread)
{
    Tracer tracer;
    {
        Tracer::Scope outer(&tracer, "outer", 42);
        Tracer::Scope inner(&tracer, "inner");
    }
    const std::vector<Span> spans = tracer.spans();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[0].parent, -1);
    EXPECT_EQ(spans[1].parent, 0);
    EXPECT_EQ(spans[1].request, 42u);
    const std::vector<std::int64_t> self = selfTimesNs(spans);
    EXPECT_EQ(self[0] + self[1], spans[0].end - spans[0].start);

    Tracer::Scope off(nullptr, "untraced");  // a no-op
}

TEST(Attribution, SplitsTheGridByManifestRoute)
{
    std::vector<occsim::obs::ConfigRoute> routes(6);
    const char *engines[] = {"fused", "single_pass", "fused",
                             "batch", "split", "single_pass"};
    for (std::size_t c = 0; c < routes.size(); ++c)
        routes[c].engine = engines[c];
    const auto split = routeSubgrids(routes);
    ASSERT_EQ(split.size(), 4u);
    EXPECT_EQ(split.at("fused"), (std::vector<std::size_t>{0, 2}));
    EXPECT_EQ(split.at("single_pass"),
              (std::vector<std::size_t>{1, 5}));
    EXPECT_EQ(split.at("batch"), (std::vector<std::size_t>{3}));
    EXPECT_EQ(split.at("split"), (std::vector<std::size_t>{4}));
    std::size_t total = 0;
    for (const auto &[engine, configs] : split)
        total += configs.size();
    EXPECT_EQ(total, routes.size());

    EXPECT_DOUBLE_EQ(nsPerCfgRef(2.0, 4.0 * 1'000'000), 500.0);
    EXPECT_EQ(nsPerCfgRef(2.0, 0.0), 0.0);
}
