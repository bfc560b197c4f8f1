/**
 * @file
 * The unified sweep API contract (multi/sweep_api.hh): runSweep must
 * be bit-identical to sequential per-config Cache simulation for
 * every engine policy and thread count; the request knobs (maxRefs,
 * wantAverage, probe, explicit telemetry sink) must each do what they
 * say; and the attached manifest must serialize to valid
 * occsim.run_manifest/1 JSON that records the route plan.
 */

#include <gtest/gtest.h>

#include "harness/experiment.hh"
#include "multi/sweep_api.hh"
#include "multi/sweep_runner.hh"
#include "obs/json.hh"
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

void
expectIdenticalGrid(const std::vector<std::vector<SweepResult>> &a,
                    const std::vector<std::vector<SweepResult>> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t t = 0; t < a.size(); ++t) {
        ASSERT_EQ(a[t].size(), b[t].size());
        for (std::size_t c = 0; c < a[t].size(); ++c)
            expectIdentical(a[t][c], b[t][c]);
    }
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

/** Two traces + a mixed grid (single-pass eligible and not) so every
 *  engine route is exercised. */
struct Fixture
{
    Fixture()
    {
        const Suite suite = pdp11Suite();
        traces.push_back(buildTraceShared(suite.traces[0], kRefs));
        traces.push_back(buildTraceShared(suite.traces[1], kRefs));
        configs = paperGrid(1024, suite.profile.wordSize);
        // Add a sector point (sub < block): never single-pass
        // eligible, so Auto routes it to the batched engine.
        CacheConfig sector =
            makeConfig(1024, 32, 8, suite.profile.wordSize);
        sector.fetch = FetchPolicy::LoadForward;
        configs.push_back(sector);
    }

    std::vector<std::shared_ptr<const VectorTrace>> traces;
    std::vector<CacheConfig> configs;
};

} // namespace

TEST(SweepApi, EveryEngineAndThreadCountMatchesSequentialDirect)
{
    const Fixture fx;
    // Reference: direct sequential simulation, one pass per trace.
    std::vector<std::vector<SweepResult>> expected;
    for (const auto &trace : fx.traces)
        expected.push_back(sequentialSweep(fx.configs, *trace));
    const auto averaged = averageResults(expected);

    for (const SweepEngine engine :
         {SweepEngine::Auto, SweepEngine::DirectOnly,
          SweepEngine::CrossCheck}) {
        for (const unsigned threads : {1u, 4u}) {
            ThreadPool pool(threads);
            SweepRequest request;
            request.traces = fx.traces;
            request.configs = fx.configs;
            request.engine = engine;
            request.pool = &pool;
            request.label = "test";
            const SweepReport report = runSweep(request);

            expectIdenticalGrid(report.perTrace, expected);
            ASSERT_EQ(report.average.size(), fx.configs.size());
            for (std::size_t c = 0; c < averaged.size(); ++c)
                expectIdentical(report.average[c], averaged[c]);
        }
    }
}

TEST(SweepApi, BitIdenticalToSequentialDirectSimulation)
{
    const Fixture fx;
    SweepRequest request;
    request.traces = fx.traces;
    request.configs = fx.configs;
    const SweepReport report = runSweep(request);

    for (std::size_t t = 0; t < fx.traces.size(); ++t) {
        const auto expected = sequentialSweep(fx.configs, *fx.traces[t]);
        ASSERT_EQ(report.perTrace[t].size(), expected.size());
        for (std::size_t c = 0; c < expected.size(); ++c)
            expectIdentical(report.perTrace[t][c], expected[c]);
    }
}

TEST(SweepApi, MaxRefsCapsEveryEngineIdentically)
{
    const Fixture fx;
    constexpr std::uint64_t kCap = 9000;

    SweepRequest request;
    request.traces = fx.traces;
    request.configs = fx.configs;
    request.maxRefs = kCap;
    const SweepReport report = runSweep(request);
    EXPECT_EQ(report.refs, kCap * fx.traces.size());

    // Same cap through the sequential reference engine.
    for (std::size_t t = 0; t < fx.traces.size(); ++t) {
        const auto expected =
            sequentialSweep(fx.configs, *fx.traces[t], kCap);
        for (std::size_t c = 0; c < expected.size(); ++c)
            expectIdentical(report.perTrace[t][c], expected[c]);
    }

    // And the cap must bind the cross-check path too.
    SweepRequest checked = request;
    checked.engine = SweepEngine::CrossCheck;
    const SweepReport checked_report = runSweep(checked);
    expectIdenticalGrid(checked_report.perTrace, report.perTrace);
}

TEST(SweepApi, ProbeSeesFinishedCachesWithoutChangingResults)
{
    const Fixture fx;
    SweepRequest plain;
    plain.traces = fx.traces;
    plain.configs = fx.configs;
    plain.engine = SweepEngine::DirectOnly;
    const SweepReport expected = runSweep(plain);

    std::vector<std::size_t> probed;
    std::vector<double> never_ref;
    SweepRequest request = plain;
    request.probe = [&](std::size_t t,
                        const std::vector<const Cache *> &caches) {
        probed.push_back(t);
        // DirectOnly keeps a Cache for every config, so probes can
        // read residency statistics SweepResult does not carry.
        ASSERT_EQ(caches.size(), fx.configs.size());
        for (std::size_t c = 0; c < caches.size(); ++c) {
            ASSERT_NE(caches[c], nullptr) << c;
            EXPECT_EQ(caches[c]->config(), fx.configs[c]);
        }
        never_ref.push_back(
            caches[0]->stats().neverReferencedFraction());
    };
    const SweepReport report = runSweep(request);

    expectIdenticalGrid(report.perTrace, expected.perTrace);
    ASSERT_EQ(probed.size(), fx.traces.size());
    for (std::size_t t = 0; t < probed.size(); ++t)
        EXPECT_EQ(probed[t], t);
    for (const double fraction : never_ref) {
        EXPECT_GE(fraction, 0.0);
        EXPECT_LE(fraction, 1.0);
    }
}

TEST(SweepApi, AutoProbeKeepsACacheOutsideSinglePassAndSplit)
{
    // Under Auto a probe plans with keep_caches: no fused and no
    // shard groups, so every config off the single-pass and split
    // routes keeps its batched Cache — and the results still match
    // the unprobed sweep bit for bit.
    const Fixture fx;
    ThreadPool pool(4);
    SweepRequest plain;
    plain.traces = fx.traces;
    plain.configs = fx.configs;
    plain.pool = &pool;
    const SweepReport expected = runSweep(plain);

    const RoutePlan plan =
        planSweep(fx.configs, SweepEngine::Auto, ScenarioConfig{},
                  {{kRefs, true}, {kRefs, true}}, pool.size(),
                  /*keep_caches=*/true);
    std::size_t probes = 0;
    SweepRequest request = plain;
    request.probe = [&](std::size_t t,
                        const std::vector<const Cache *> &caches) {
        ++probes;
        ASSERT_EQ(caches.size(), fx.configs.size());
        std::size_t kept = 0;
        for (const RouteGroup &group : plan.perTrace[t]) {
            const bool keeps = group.route == Route::Batch;
            EXPECT_TRUE(keeps || group.route == Route::SinglePass ||
                        group.route == Route::Split)
                << routeName(group.route);
            for (const std::size_t c : group.configs) {
                EXPECT_EQ(caches[c] != nullptr, keeps) << c;
                if (caches[c] != nullptr) {
                    EXPECT_EQ(caches[c]->config(), fx.configs[c]);
                    ++kept;
                }
            }
        }
        EXPECT_GT(kept, 0u);
    };
    const SweepReport report = runSweep(request);
    EXPECT_EQ(probes, fx.traces.size());
    expectIdenticalGrid(report.perTrace, expected.perTrace);
}

TEST(SweepApi, WantAverageFalseSkipsAveraging)
{
    const Fixture fx;
    SweepRequest request;
    request.traces = fx.traces;
    request.configs = fx.configs;
    request.wantAverage = false;
    const SweepReport report = runSweep(request);
    EXPECT_TRUE(report.average.empty());
    EXPECT_EQ(report.perTrace.size(), fx.traces.size());
}

TEST(SweepApi, ExplicitTelemetrySinkRecordsUnconditionally)
{
    const Fixture fx;
    obs::Telemetry sink;
    SweepRequest request;
    request.traces = fx.traces;
    request.configs = fx.configs;
    request.telemetry = &sink;
    request.label = "sink-test";
    (void)runSweep(request);

    // The sweep-level span and counter must land in the private sink
    // even though the global registry may be disabled.
    const auto stages = sink.stages();
    ASSERT_EQ(stages.size(), 1u);
    EXPECT_EQ(stages[0].name, "sweep");
    EXPECT_EQ(stages[0].calls, 1u);
    const auto counters = sink.counters();
    ASSERT_EQ(counters.size(), 1u);
    EXPECT_EQ(counters[0].name, "sweep.refs");
    EXPECT_EQ(counters[0].value,
              kRefs * fx.traces.size() * fx.configs.size());
}

TEST(SweepApi, ReportManifestIsValidSchemaJson)
{
    const Fixture fx;
    SweepRequest request;
    request.traces = fx.traces;
    request.configs = fx.configs;
    request.label = "manifest-test";
    const SweepReport report = runSweep(request);

    const std::string json = report.manifest.toJson();
    obs::JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(json, doc, &error)) << error;
    ASSERT_TRUE(doc.isObject());

    const obs::JsonValue *schema = doc.find("schema");
    ASSERT_NE(schema, nullptr);
    EXPECT_EQ(schema->text, "occsim.run_manifest/1");
    for (const char *key : {"binary", "git", "build", "threads",
                            "traces", "sweeps", "stages", "engines",
                            "counters"}) {
        EXPECT_NE(doc.find(key), nullptr) << key;
    }

    // Our sweep must be recorded with one route per config.
    const obs::JsonValue *sweeps = doc.find("sweeps");
    ASSERT_NE(sweeps, nullptr);
    ASSERT_TRUE(sweeps->isArray());
    const obs::JsonValue *ours = nullptr;
    for (const obs::JsonValue &sweep : sweeps->items) {
        const obs::JsonValue *label = sweep.find("label");
        if (label != nullptr && label->text == "manifest-test")
            ours = &sweep;
    }
    ASSERT_NE(ours, nullptr);
    const obs::JsonValue *routes = ours->find("configs");
    ASSERT_NE(routes, nullptr);
    ASSERT_EQ(routes->items.size(), fx.configs.size());
    // The routes are the plan's, verbatim: the fixture is too short
    // to shard, so every config keeps one route on both traces.
    const RoutePlan plan = planSweep(
        fx.configs, SweepEngine::Auto, ScenarioConfig{},
        {{kRefs, true}, {kRefs, true}}, report.manifest.threads);
    std::vector<std::string> planned(fx.configs.size());
    for (const RouteGroup &group : plan.perTrace[0]) {
        for (const std::size_t c : group.configs)
            planned[c] = routeName(group.route);
    }
    for (std::size_t c = 0; c < fx.configs.size(); ++c) {
        const obs::JsonValue &route = routes->items[c];
        const obs::JsonValue *engine = route.find("engine");
        ASSERT_NE(engine, nullptr);
        EXPECT_EQ(engine->text, planned[c]) << c;
        const obs::JsonValue *shards = route.find("shards");
        ASSERT_NE(shards, nullptr);
        EXPECT_EQ(shards->number, 1.0);
    }

    // Both fixture traces appear in the trace identity list.
    const obs::JsonValue *traces = doc.find("traces");
    ASSERT_NE(traces, nullptr);
    EXPECT_GE(traces->items.size(), 2u);
}

TEST(SweepApi, EngineNamesAreStable)
{
    EXPECT_STREQ(sweepEngineName(SweepEngine::Auto), "auto");
    EXPECT_STREQ(sweepEngineName(SweepEngine::DirectOnly),
                 "direct_only");
    EXPECT_STREQ(sweepEngineName(SweepEngine::CrossCheck),
                 "cross_check");
}

TEST(SweepApi, RouteNamesAreStable)
{
    // occbench and occsim-report count routes by these strings.
    EXPECT_STREQ(routeName(Route::Direct), "direct");
    EXPECT_STREQ(routeName(Route::Split), "split");
    EXPECT_STREQ(routeName(Route::SinglePass), "single_pass");
    EXPECT_STREQ(routeName(Route::Fused), "fused");
    EXPECT_STREQ(routeName(Route::Batch), "batch");
    EXPECT_STREQ(routeName(Route::Shard), "shard");
    EXPECT_STREQ(routeName(Route::Coherent), "coherent");
}
