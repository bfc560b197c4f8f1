/**
 * @file
 * Property tests for the route planner (multi/route_plan.hh). Over
 * seeded random grids, trace lengths and pool widths, every config
 * must be routed exactly once per trace and every route group must
 * satisfy its engine's eligibility predicate; the keep_caches,
 * DirectOnly, packed-input and OCCSIM_SHARD contracts must hold; the
 * shard heuristic must weigh the unsharded task count of the whole
 * sweep; and runSweep must execute random plans bit-identically to
 * direct simulation on MemRef and packed inputs alike.
 */

#include <algorithm>
#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include "check/generators.hh"
#include "multi/fused_replay.hh"
#include "multi/shard_replay.hh"
#include "multi/single_pass.hh"
#include "multi/sweep_api.hh"
#include "trace/packed_trace.hh"
#include "util/random.hh"

using namespace occsim;

namespace {

constexpr std::uint64_t kGrids = 300;

/** Sets an environment variable for one scope (nullptr unsets it). */
class EnvGuard
{
  public:
    EnvGuard(const char *name, const char *value) : name_(name)
    {
        if (const char *old = std::getenv(name)) {
            hadOld_ = true;
            old_ = old;
        }
        if (value != nullptr)
            setenv(name, value, 1);
        else
            unsetenv(name);
    }
    ~EnvGuard()
    {
        if (hadOld_)
            setenv(name_, old_.c_str(), 1);
        else
            unsetenv(name_);
    }

  private:
    const char *name_;
    bool hadOld_ = false;
    std::string old_;
};

/**
 * A seeded random grid: ConfigGen points, some followed by siblings
 * that differ only in fetch policy and sub-block size (so they share
 * a FusedKey and fused groups form — now and then more than
 * kMaxGroupConfigs of them, so a key population splits).
 */
std::vector<CacheConfig>
randomGrid(std::uint64_t seed)
{
    ConfigGen gen(seed);
    Rng rng(seed * 0x9e3779b97f4a7c15ull + 1);
    std::vector<CacheConfig> configs;
    const std::uint64_t points = 1 + rng.below(20);
    for (std::uint64_t i = 0; i < points; ++i) {
        const CacheConfig config = gen.next();
        configs.push_back(config);
        if (!rng.chance(0.4))
            continue;
        const std::uint64_t siblings =
            rng.chance(0.05) ? kMaxGroupConfigs + 6 : 1 + rng.below(4);
        for (std::uint64_t k = 0; k < siblings; ++k) {
            CacheConfig sibling = config;
            sibling.fetch = k % 2 == 0 ? FetchPolicy::LoadForward
                                       : FetchPolicy::Demand;
            sibling.subBlockSize = std::max(
                config.wordSize,
                config.blockSize >> static_cast<unsigned>(k % 4));
            configs.push_back(sibling);
        }
    }
    return configs;
}

/** Trace shapes: 1-3 traces around the shard threshold. */
std::vector<TraceShape>
randomShapes(Rng &rng, bool mem_refs)
{
    const std::uint64_t limits[] = {0, 1000, kShardMinRefs - 1,
                                    kShardMinRefs, 1u << 20};
    std::vector<TraceShape> shapes(1 + rng.below(3));
    for (TraceShape &shape : shapes) {
        shape.limit = limits[rng.below(5)];
        shape.memRefs = mem_refs;
    }
    return shapes;
}

/** Every structural property a plan must satisfy. */
void
checkPlan(const RoutePlan &plan, const std::vector<CacheConfig> &configs,
          SweepEngine engine, const ScenarioConfig &scenario,
          const std::vector<TraceShape> &shapes, unsigned threads,
          bool keep_caches, const std::string &where)
{
    ASSERT_EQ(plan.perTrace.size(), shapes.size()) << where;
    for (std::size_t t = 0; t < shapes.size(); ++t) {
        std::vector<int> seen(configs.size(), 0);
        std::vector<std::uint32_t> single_pass_blocks;
        for (const RouteGroup &group : plan.perTrace[t]) {
            const std::string at =
                where + " trace " + std::to_string(t) + " route " +
                routeName(group.route);
            ASSERT_FALSE(group.configs.empty()) << at;
            for (const std::size_t c : group.configs) {
                ASSERT_LT(c, configs.size()) << at;
                ++seen[c];
            }
            const CacheConfig &rep = configs[group.configs.front()];
            EXPECT_GE(group.shards, 1u) << at;
            EXPECT_EQ(group.route == Route::Coherent,
                      scenario.multicore())
                << at;
            if (engine == SweepEngine::DirectOnly) {
                EXPECT_TRUE(group.route == Route::Direct ||
                            group.route == Route::Split)
                    << at;
            }
            if (keep_caches) {
                EXPECT_NE(group.route, Route::Fused) << at;
                EXPECT_NE(group.route, Route::Shard) << at;
            }
            switch (group.route) {
            case Route::SinglePass:
                EXPECT_TRUE(shapes[t].memRefs)
                    << at << ": packed inputs have no MemRef stream";
                EXPECT_EQ(group.shards, 1u) << at;
                for (const std::size_t c : group.configs) {
                    EXPECT_TRUE(singlePassEligible(configs[c])) << at;
                    EXPECT_EQ(configs[c].blockSize, rep.blockSize) << at;
                }
                EXPECT_EQ(std::count(single_pass_blocks.begin(),
                                     single_pass_blocks.end(),
                                     rep.blockSize),
                          0)
                    << at << ": one group per block size";
                single_pass_blocks.push_back(rep.blockSize);
                break;
            case Route::Fused:
                EXPECT_GE(group.configs.size(), 2u) << at;
                EXPECT_LE(group.configs.size(), kMaxGroupConfigs) << at;
                for (const std::size_t c : group.configs) {
                    ASSERT_TRUE(fusedEligible(configs[c])) << at;
                    EXPECT_TRUE(fusedKeyOf(configs[c]) == fusedKeyOf(rep))
                        << at;
                }
                if (group.shards > 1) {
                    EXPECT_EQ(group.shards, planShardCount(rep, threads))
                        << at;
                }
                break;
            case Route::Shard:
                EXPECT_EQ(group.configs.size(), 1u) << at;
                EXPECT_TRUE(shardEligible(rep)) << at;
                EXPECT_EQ(group.shards, planShardCount(rep, threads)) << at;
                EXPECT_GE(group.shards, 2u) << at;
                break;
            case Route::Split:
                EXPECT_EQ(group.shards, 1u) << at;
                for (const std::size_t c : group.configs) {
                    EXPECT_EQ(configs[c].partition,
                              CachePartition::SplitID)
                        << at;
                }
                break;
            case Route::Batch:
            case Route::Direct:
                EXPECT_EQ(group.shards, 1u) << at;
                EXPECT_EQ(group.route == Route::Direct,
                          engine == SweepEngine::DirectOnly)
                    << at;
                for (const std::size_t c : group.configs) {
                    EXPECT_EQ(configs[c].partition,
                              CachePartition::Unified)
                        << at;
                    if (group.route == Route::Batch && shapes[t].memRefs) {
                        EXPECT_FALSE(singlePassEligible(configs[c])) << at;
                    }
                }
                break;
            case Route::Coherent:
                EXPECT_EQ(group.shards, 1u) << at;
                break;
            }
        }
        for (std::size_t c = 0; c < configs.size(); ++c) {
            EXPECT_EQ(seen[c], 1)
                << where << " trace " << t << ": config " << c
                << " must be routed exactly once";
        }
    }

    if (engine != SweepEngine::CrossCheck) {
        EXPECT_TRUE(plan.shadows.empty()) << where;
    } else {
        // Every 4th config is shadowed, starting with the first.
        if (configs.front().partition == CachePartition::Unified) {
            ASSERT_FALSE(plan.shadows.empty()) << where;
            EXPECT_EQ(plan.shadows.front(), 0u) << where;
        }
        for (std::size_t s = 0; s < plan.shadows.size(); ++s) {
            ASSERT_LT(plan.shadows[s], configs.size()) << where;
            EXPECT_NE(configs[plan.shadows[s]].partition,
                      CachePartition::SplitID)
                << where;
            if (s > 0) {
                EXPECT_LT(plan.shadows[s - 1], plan.shadows[s]) << where;
            }
        }
    }
}

/** Draw a pool width, engine and keep_caches flag for one grid. */
struct Draw
{
    unsigned threads;
    SweepEngine engine;
    bool keepCaches;
};

Draw
randomDraw(Rng &rng)
{
    const unsigned widths[] = {1, 2, 3, 4, 8, 64};
    const SweepEngine engines[] = {SweepEngine::Auto,
                                   SweepEngine::DirectOnly,
                                   SweepEngine::CrossCheck};
    return {widths[rng.below(6)], engines[rng.below(3)],
            rng.chance(0.25)};
}

std::vector<Route>
routesOf(const std::vector<RouteGroup> &groups, std::size_t n)
{
    std::vector<Route> routes(n);
    for (const RouteGroup &group : groups) {
        for (const std::size_t c : group.configs)
            routes[c] = group.route;
    }
    return routes;
}

} // namespace

TEST(RoutePlan, EveryConfigRoutedOnceAndEveryRouteEligible)
{
    const EnvGuard guard("OCCSIM_SHARD", nullptr);
    // Groups seen per route (indexed by Route), so the generator
    // provably reaches every single-cache route.
    std::vector<std::size_t> coverage(7, 0);
    std::size_t full_fused_groups = 0;
    for (std::uint64_t seed = 1; seed <= kGrids; ++seed) {
        Rng rng(seed);
        const auto configs = randomGrid(seed);
        const Draw draw = randomDraw(rng);
        for (const bool mem_refs : {true, false}) {
            const auto shapes = randomShapes(rng, mem_refs);
            const RoutePlan plan =
                planSweep(configs, draw.engine, ScenarioConfig{}, shapes,
                          draw.threads, draw.keepCaches);
            checkPlan(plan, configs, draw.engine, ScenarioConfig{},
                      shapes, draw.threads, draw.keepCaches,
                      "seed " + std::to_string(seed) +
                          (mem_refs ? " refs" : " packed"));
            for (const auto &groups : plan.perTrace) {
                for (const RouteGroup &group : groups) {
                    ++coverage[static_cast<std::size_t>(group.route)];
                    if (group.route == Route::Fused &&
                        group.configs.size() == kMaxGroupConfigs)
                        ++full_fused_groups;
                }
            }
        }
    }
    for (const Route route :
         {Route::Direct, Route::Split, Route::SinglePass, Route::Fused,
          Route::Batch, Route::Shard}) {
        EXPECT_GT(coverage[static_cast<std::size_t>(route)], 0u)
            << routeName(route);
    }
    EXPECT_GT(full_fused_groups, 0u)
        << "some key population must split at kMaxGroupConfigs";
}

TEST(RoutePlan, MulticoreScenariosRouteEveryConfigCoherent)
{
    ScenarioConfig scenario;
    scenario.cores = 4;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        Rng rng(seed);
        const auto configs = randomGrid(seed);
        const auto shapes = randomShapes(rng, rng.chance(0.5));
        const RoutePlan plan = planSweep(configs, SweepEngine::Auto,
                                         scenario, shapes, 4);
        checkPlan(plan, configs, SweepEngine::Auto, scenario, shapes, 4,
                  false, "seed " + std::to_string(seed));
    }
}

TEST(RoutePlan, ShardOverrideIsHonoured)
{
    for (std::uint64_t seed = 1; seed <= kGrids; ++seed) {
        Rng rng(seed);
        const auto configs = randomGrid(seed);
        const Draw draw = randomDraw(rng);
        const auto shapes = randomShapes(rng, rng.chance(0.5));
        const std::string where = "seed " + std::to_string(seed);
        {
            const EnvGuard guard("OCCSIM_SHARD", "0");
            const RoutePlan plan =
                planSweep(configs, draw.engine, ScenarioConfig{}, shapes,
                          draw.threads, draw.keepCaches);
            for (const auto &groups : plan.perTrace) {
                for (const RouteGroup &group : groups) {
                    EXPECT_EQ(group.shards, 1u) << where;
                    EXPECT_NE(group.route, Route::Shard) << where;
                }
            }
        }
        if (draw.engine == SweepEngine::DirectOnly || draw.keepCaches)
            continue;  // nothing may shard there, forced or not
        const EnvGuard guard("OCCSIM_SHARD", "1");
        const RoutePlan plan =
            planSweep(configs, draw.engine, ScenarioConfig{}, shapes,
                      draw.threads, false);
        checkPlan(plan, configs, draw.engine, ScenarioConfig{}, shapes,
                  draw.threads, false, where + " forced");
        for (const auto &groups : plan.perTrace) {
            for (const RouteGroup &group : groups) {
                const CacheConfig &rep = configs[group.configs.front()];
                const std::uint32_t want = planShardCount(rep, draw.threads);
                if (group.route == Route::Fused) {
                    EXPECT_EQ(group.shards, want) << where;
                } else if (group.route == Route::Batch) {
                    // Every batched config that could shard did not
                    // stay batched.
                    for (const std::size_t c : group.configs) {
                        EXPECT_LT(planShardCount(configs[c], draw.threads),
                                  2u)
                            << where;
                    }
                }
            }
        }
    }
}

TEST(RoutePlan, ShardHeuristicWeighsTheWholeSweep)
{
    // One shardable sector config: alone it leaves a 4-wide pool
    // idle, so a long trace shards; four traces already give four
    // batch tiles, so none does. Single-pass levels count as tasks
    // for MemRef inputs only.
    const EnvGuard guard("OCCSIM_SHARD", nullptr);
    const CacheConfig sector = makeConfig(4096, 32, 8, 4);
    ASSERT_GE(planShardCount(sector, 4), 2u);
    const TraceShape long_refs{1u << 20, true};
    const TraceShape long_packed{1u << 20, false};
    const ScenarioConfig single;

    auto routes = routesOf(
        planSweep({sector}, SweepEngine::Auto, single, {long_refs}, 4)
            .perTrace[0],
        1);
    EXPECT_EQ(routes[0], Route::Shard);
    const RoutePlan four = planSweep({sector}, SweepEngine::Auto, single,
                                     {long_refs, long_refs, long_refs,
                                      long_refs},
                                     4);
    for (const auto &groups : four.perTrace)
        EXPECT_EQ(routesOf(groups, 1)[0], Route::Batch);
    routes = routesOf(planSweep({sector}, SweepEngine::Auto, single,
                                {TraceShape{kShardMinRefs - 1, true}}, 4)
                          .perTrace[0],
                      1);
    EXPECT_EQ(routes[0], Route::Batch) << "too short to split";

    // Three single-pass configs at three set counts: three levels,
    // which with the sector config's tile saturate the pool.
    std::vector<CacheConfig> mixed{sector};
    for (const std::uint32_t net : {1024u, 2048u, 4096u})
        mixed.push_back(makeConfig(net, 16, 16, 4));
    std::vector<CacheConfig> fast(mixed.begin() + 1, mixed.end());
    ASSERT_EQ(SinglePassEngine(fast).numLevels(), 3u);
    routes = routesOf(
        planSweep(mixed, SweepEngine::Auto, single, {long_refs}, 4)
            .perTrace[0],
        mixed.size());
    EXPECT_EQ(routes[0], Route::Batch);
    for (std::size_t c = 1; c < mixed.size(); ++c)
        EXPECT_EQ(routes[c], Route::SinglePass);

    // Packed: no levels, one tile of four configs, so they shard.
    routes = routesOf(
        planSweep(mixed, SweepEngine::Auto, single, {long_packed}, 4)
            .perTrace[0],
        mixed.size());
    for (std::size_t c = 0; c < mixed.size(); ++c)
        EXPECT_EQ(routes[c], Route::Shard) << c;
}

TEST(RoutePlan, RandomPlansExecuteBitIdentically)
{
    // Forced sharding on a 4-wide pool drives every route, including
    // sharded fused groups, through the one executor.
    const EnvGuard guard("OCCSIM_SHARD", "1");
    ThreadPool pool(4);
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        std::vector<CacheConfig> configs;
        for (const CacheConfig &config : randomGrid(seed)) {
            if (config.wordSize == 4)
                configs.push_back(config);
        }
        if (configs.empty())
            continue;
        TraceGen gen(seed);
        const std::shared_ptr<const VectorTrace> trace =
            gen.make(3000, 4);

        SweepRequest request;
        request.traces = {trace};
        request.configs = configs;
        request.pool = &pool;
        request.wantAverage = false;
        request.engine = SweepEngine::DirectOnly;
        const auto want = runSweep(request).perTrace[0];

        request.engine = SweepEngine::CrossCheck;  // fatal on divergence
        const auto checked = runSweep(request).perTrace[0];
        request.engine = SweepEngine::Auto;
        request.traces.clear();
        request.packedTraces = {packedTraceShared(trace)};
        const auto packed = runSweep(request).perTrace[0];

        ASSERT_EQ(checked.size(), want.size());
        ASSERT_EQ(packed.size(), want.size());
        for (std::size_t c = 0; c < want.size(); ++c) {
            for (const SweepResult *got : {&checked[c], &packed[c]}) {
                EXPECT_EQ(got->missRatio, want[c].missRatio)
                    << "seed " << seed << " config " << c;
                EXPECT_EQ(got->trafficRatio, want[c].trafficRatio);
                EXPECT_EQ(got->warmMissRatio, want[c].warmMissRatio);
                EXPECT_EQ(got->nibbleTrafficRatio,
                          want[c].nibbleTrafficRatio);
                EXPECT_EQ(got->warmNibbleTrafficRatio,
                          want[c].warmNibbleTrafficRatio);
            }
        }
    }
}
