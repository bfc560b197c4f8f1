/**
 * @file
 * Determinism tests for the parallel sweep engine: results must be
 * bit-identical to sequential per-config Cache simulation — same
 * per-config stats, same averageResults output — regardless of thread
 * count. Uses real VM traces (the paper's workloads), not synthetic
 * streams, so the full trace-build + simulate pipeline is covered.
 */

#include <gtest/gtest.h>

#include "harness/experiment.hh"
#include "multi/sweep_api.hh"
#include "workload/suites.hh"

using namespace occsim;

namespace {

constexpr std::uint64_t kRefs = 30000;

/** Bit-identical comparison of two SweepResults (exact doubles). */
void
expectIdentical(const SweepResult &a, const SweepResult &b)
{
    EXPECT_EQ(a.config, b.config);
    EXPECT_EQ(a.grossBytes, b.grossBytes);
    EXPECT_EQ(a.missRatio, b.missRatio);
    EXPECT_EQ(a.warmMissRatio, b.warmMissRatio);
    EXPECT_EQ(a.trafficRatio, b.trafficRatio);
    EXPECT_EQ(a.warmTrafficRatio, b.warmTrafficRatio);
    EXPECT_EQ(a.nibbleTrafficRatio, b.nibbleTrafficRatio);
    EXPECT_EQ(a.warmNibbleTrafficRatio, b.warmNibbleTrafficRatio);
}

/** Reference engine: one direct runSingle per config, sequentially. */
std::vector<SweepResult>
sequentialSweep(const std::vector<CacheConfig> &configs,
                const VectorTrace &trace, std::uint64_t max_refs = 0)
{
    std::vector<SweepResult> out;
    out.reserve(configs.size());
    for (const CacheConfig &config : configs) {
        VectorTrace copy = trace;
        out.push_back(runSingle(config, copy, max_refs));
    }
    return out;
}

/** runSweep of @p configs over the one trace @p trace. */
SweepReport
sweepOne(const std::vector<CacheConfig> &configs,
         const std::shared_ptr<const VectorTrace> &trace, ThreadPool *pool,
         std::uint64_t max_refs = 0)
{
    SweepRequest request;
    request.traces = {trace};
    request.configs = configs;
    request.pool = pool;
    request.maxRefs = max_refs;
    return runSweep(request);
}

} // namespace

TEST(ParallelSweep, BitIdenticalToSequentialOverPaperGrid)
{
    const Suite suite = pdp11Suite();
    const WorkloadSpec &spec = suite.traces.front();
    const auto trace = buildTraceShared(spec, kRefs);
    const auto configs = paperGrid(1024, suite.profile.wordSize);

    const auto expected = sequentialSweep(configs, *trace);

    ThreadPool pool(4);
    const SweepReport report = sweepOne(configs, trace, &pool);
    EXPECT_EQ(report.refs, trace->size());
    const auto &actual = report.perTrace[0];

    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
        expectIdentical(actual[i], expected[i]);
}

TEST(ParallelSweep, RunSweepMatchesSequentialSuitePass)
{
    const Suite suite = z8000CompilerSuite();
    const auto configs = paperGrid(256, suite.profile.wordSize);

    std::vector<std::shared_ptr<const VectorTrace>> traces;
    for (const WorkloadSpec &spec : suite.traces)
        traces.push_back(buildTraceShared(spec, kRefs));

    // Reference: direct sequential simulation, one pass per trace.
    std::vector<std::vector<SweepResult>> expected;
    for (const auto &trace : traces)
        expected.push_back(sequentialSweep(configs, *trace));

    ThreadPool pool(4);
    SweepRequest request;
    request.traces = traces;
    request.configs = configs;
    request.pool = &pool;
    const SweepReport report = runSweep(request);
    const auto &actual = report.perTrace;

    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t t = 0; t < expected.size(); ++t) {
        ASSERT_EQ(actual[t].size(), expected[t].size());
        for (std::size_t c = 0; c < expected[t].size(); ++c)
            expectIdentical(actual[t][c], expected[t][c]);
    }

    // And the paper's unweighted averages are bit-identical too.
    const auto expected_avg = averageResults(expected);
    ASSERT_EQ(report.average.size(), expected_avg.size());
    for (std::size_t c = 0; c < expected_avg.size(); ++c)
        expectIdentical(report.average[c], expected_avg[c]);
}

TEST(ParallelSweep, RespectsMaxRefs)
{
    const Suite suite = pdp11Suite();
    const auto trace = buildTraceShared(suite.traces.front(), kRefs);
    const auto configs = paperGrid(64, suite.profile.wordSize);

    ThreadPool pool(2);
    const SweepReport report = sweepOne(configs, trace, &pool, 500);
    EXPECT_EQ(report.refs, 500u);

    const auto expected = sequentialSweep(configs, *trace, 500);
    const auto &actual = report.perTrace[0];
    for (std::size_t i = 0; i < expected.size(); ++i)
        expectIdentical(actual[i], expected[i]);
}

TEST(ParallelSweep, SharedTraceIsReusedNotRebuilt)
{
    const Suite suite = z8000Suite();
    const WorkloadSpec &spec = suite.traces.front();
    const auto first = buildTraceShared(spec, 5000);
    const auto second = buildTraceShared(spec, 5000);
    // Same spec and length: the VM ran once; both handles share the
    // same immutable trace.
    EXPECT_EQ(first.get(), second.get());
    // A different length is a different cache entry.
    const auto longer = buildTraceShared(spec, 6000);
    EXPECT_NE(first.get(), longer.get());
    EXPECT_EQ(longer->size(), 6000u);
}

TEST(ParallelSweep, RunSuiteMatchesManualSequentialAveraging)
{
    const Suite suite = z8000CompilerSuite();
    const auto configs = table7Grid(64, suite.profile.wordSize);

    const SuiteRun run = runSuite(suite, configs, kRefs);

    std::vector<std::vector<SweepResult>> expected;
    for (const WorkloadSpec &spec : suite.traces) {
        const VectorTrace trace = buildTrace(spec, kRefs);
        expected.push_back(sequentialSweep(configs, trace));
    }
    const auto expected_avg = averageResults(expected);

    ASSERT_EQ(run.average.size(), expected_avg.size());
    for (std::size_t c = 0; c < expected_avg.size(); ++c)
        expectIdentical(run.average[c], expected_avg[c]);
}
