/**
 * @file
 * The route plan: which engine prices which config on which trace.
 *
 * occsim prices a sweep grid with several bit-identical engines, and
 * the choice of engine per (trace, config) is made here and nowhere
 * else. planSweep() is a pure function of the config grid, the engine
 * policy, the scenario, the shape of each trace and the pool width;
 * it returns a RoutePlan of plain data that the sweep executor
 * (runSweep in multi/sweep_api.hh) runs, the run manifest records and
 * the sweep server orders its tiles by.
 *
 * Routes, in the order the planner tries them for a config:
 *
 *  - coherent: every config of a multicore scenario (one
 *    CoherentSystem per (trace, config)).
 *  - split: CachePartition::SplitID configs, a dedicated SplitCache
 *    pair each under every policy (no batched kernel routes by
 *    reference kind).
 *  - direct: SweepEngine::DirectOnly, one plain Cache per config.
 *  - single_pass: singlePassEligible configs of a trace with a MemRef
 *    stream, one group per block size (SinglePassEngine).
 *  - fused: two to kMaxGroupConfigs configs sharing one FusedKey, one
 *    group per fusedGroups() group (FusedReplay), possibly sharded as
 *    a unit.
 *  - shard: one config set-sharded across workers (ShardReplay),
 *    chosen by shouldShard().
 *  - batch: everything else, one group per trace (BatchReplay tiles).
 *
 * SweepEngine::Sampled is not a route: it is an explicit opt-in into
 * estimates, served by runSweep's own two-phase path.
 */

#ifndef OCCSIM_MULTI_ROUTE_PLAN_HH
#define OCCSIM_MULTI_ROUTE_PLAN_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cache/cache_config.hh"
#include "coherence/scenario.hh"

namespace occsim {

/** Engine selection policy for sweeps. */
enum class SweepEngine : std::uint8_t {
    /** The fastest exact engine for every config (the default). */
    Auto = 0,
    /** Direct per-config Cache simulation for every config. */
    DirectOnly = 1,
    /**
     * Auto routing plus a runtime differential check: every 4th
     * config (at least one; split pairs excluded) is shadow-simulated
     * on a direct Cache as extra pool tasks, and the optimized
     * engine's summaries must match the shadows bit for bit — any
     * divergence is a fatal error naming the config. It validates the
     * routing on the real workload being swept, at a bounded (~25% of
     * configs) overhead.
     */
    CrossCheck = 2,
    /**
     * SMARTS-style statistical sampling (multi/sample_replay.hh):
     * systematic measurement units with functional warming between
     * them, reported as per-metric estimates with standard errors
     * and 95% CIs on SweepResult::sampled. Never chosen by the
     * planner — opting in is the caller declaring that estimates
     * (10-100x cheaper on long traces) are acceptable. Knobs in
     * SweepRequest::sample; incompatible with SweepRequest::probe.
     */
    Sampled = 3,
};

/** The engine a route group runs on. */
enum class Route : std::uint8_t {
    Direct,
    Split,
    SinglePass,
    Fused,
    Batch,
    Shard,
    Coherent,
};

/** @return the manifest name of @p route ("direct", "split",
 *  "single_pass", "fused", "batch", "shard", "coherent"). */
const char *routeName(Route route);

/** What the planner needs to know about one trace. */
struct TraceShape
{
    /** References each config consumes (the request's cap applied). */
    std::uint64_t limit = 0;
    /** True for a VectorTrace input; packed inputs carry no MemRef
     *  stream, so they never take the single-pass route. */
    bool memRefs = true;
};

/** Configs of one trace that share one engine instance. */
struct RouteGroup
{
    Route route = Route::Batch;
    /** Indices into the planned config list, ascending within a
     *  route except for fused groups (fusedGroups order). */
    std::vector<std::size_t> configs;
    /** Set shards the group runs with (1 = unsharded; above 1 only
     *  on shard and fused routes). */
    std::uint32_t shards = 1;
};

/** The routing of one sweep, as plain data. */
struct RoutePlan
{
    /** perTrace[t]: the groups of trace t. Every config appears in
     *  exactly one group per trace. */
    std::vector<std::vector<RouteGroup>> perTrace;
    /** CrossCheck only: configs shadow-simulated on a direct Cache
     *  on every trace. */
    std::vector<std::size_t> shadows;
};

/**
 * Plan one sweep of @p configs over traces of shape @p traces.
 *
 * @param engine Auto, DirectOnly or CrossCheck (Sampled is not
 *        planned).
 * @param threads pool width; the shard heuristic weighs it against
 *        the unsharded task count of the whole sweep (batch tiles +
 *        fused groups + single-pass levels, summed over traces).
 * @param keep_caches every config outside the single-pass and split
 *        routes must keep one backing Cache (probe callers): no
 *        fused and no shard groups.
 */
RoutePlan planSweep(const std::vector<CacheConfig> &configs,
                    SweepEngine engine, const ScenarioConfig &scenario,
                    const std::vector<TraceShape> &traces,
                    unsigned threads, bool keep_caches = false);

} // namespace occsim

#endif // OCCSIM_MULTI_ROUTE_PLAN_HH
