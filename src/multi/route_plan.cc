#include "multi/route_plan.hh"

#include <algorithm>

#include "cache/cache_geometry.hh"
#include "multi/batch_replay.hh"
#include "multi/fused_replay.hh"
#include "multi/shard_replay.hh"
#include "multi/single_pass.hh"
#include "util/logging.hh"

namespace occsim {

const char *
routeName(Route route)
{
    switch (route) {
    case Route::Direct:
        return "direct";
    case Route::Split:
        return "split";
    case Route::SinglePass:
        return "single_pass";
    case Route::Fused:
        return "fused";
    case Route::Batch:
        return "batch";
    case Route::Shard:
        return "shard";
    case Route::Coherent:
        return "coherent";
    }
    return "unknown";
}

namespace {

/**
 * The trace-independent part of a single-cache plan for one input
 * kind: single-pass groups (MemRef inputs only), fused groups, and
 * the residual that goes to batch, shard or direct.
 */
struct Partition
{
    std::vector<std::vector<std::size_t>> singlePass;
    /** Set-count levels over every single-pass group: one task each. */
    std::size_t levels = 0;
    std::vector<std::vector<std::size_t>> fused;
    std::vector<std::size_t> residual;
};

Partition
partitionConfigs(const std::vector<CacheConfig> &configs,
                 SweepEngine engine, bool keep_caches, bool mem_refs)
{
    Partition part;
    std::vector<std::uint32_t> blocks;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> block_sets;
    std::vector<std::size_t> rest;
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const CacheConfig &config = configs[i];
        if (config.partition == CachePartition::SplitID)
            continue;
        if (!mem_refs || engine == SweepEngine::DirectOnly ||
            !singlePassEligible(config)) {
            rest.push_back(i);
            continue;
        }
        // One group per block size (first-appearance order), one
        // level per distinct set count within it.
        const auto b = static_cast<std::size_t>(
            std::find(blocks.begin(), blocks.end(), config.blockSize) -
            blocks.begin());
        if (b == blocks.size()) {
            blocks.push_back(config.blockSize);
            part.singlePass.emplace_back();
        }
        part.singlePass[b].push_back(i);
        const std::pair<std::uint32_t, std::uint32_t> level{
            config.blockSize, CacheGeometry(config).numSets()};
        if (std::find(block_sets.begin(), block_sets.end(), level) ==
            block_sets.end())
            block_sets.push_back(level);
    }
    part.levels = block_sets.size();
    if (engine == SweepEngine::DirectOnly || keep_caches) {
        part.residual = std::move(rest);
        return part;
    }
    // Groups of one stay batched: a lone config gains nothing from
    // the group pass but still pays the plane indirection.
    std::vector<char> fused(configs.size(), 0);
    for (auto &group : fusedGroups(configs, rest)) {
        if (group.size() < 2)
            continue;
        for (const std::size_t i : group)
            fused[i] = 1;
        part.fused.push_back(std::move(group));
    }
    for (const std::size_t i : rest) {
        if (!fused[i])
            part.residual.push_back(i);
    }
    return part;
}

} // namespace

RoutePlan
planSweep(const std::vector<CacheConfig> &configs, SweepEngine engine,
          const ScenarioConfig &scenario,
          const std::vector<TraceShape> &traces, unsigned threads,
          bool keep_caches)
{
    occsim_assert(engine != SweepEngine::Sampled,
                  "the sampling engine is an opt-in, not a route");
    RoutePlan plan;
    plan.perTrace.resize(traces.size());

    if (scenario.multicore()) {
        // The coherent engine is a strictly serial bus model: every
        // (trace, config) pair is its own task.
        RouteGroup all;
        all.route = Route::Coherent;
        for (std::size_t i = 0; i < configs.size(); ++i)
            all.configs.push_back(i);
        for (auto &groups : plan.perTrace)
            groups.push_back(all);
        return plan;
    }

    RouteGroup split;
    split.route = Route::Split;
    for (std::size_t i = 0; i < configs.size(); ++i) {
        if (configs[i].partition == CachePartition::SplitID)
            split.configs.push_back(i);
    }
    const Partition with_refs =
        partitionConfigs(configs, engine, keep_caches, true);
    const Partition packed =
        partitionConfigs(configs, engine, keep_caches, false);
    const auto partition = [&](const TraceShape &shape)
        -> const Partition & { return shape.memRefs ? with_refs : packed; };

    // The sweep's task count if nothing shards: batch tiles, fused
    // group passes and single-pass levels over every trace. When that
    // alone saturates the pool, task parallelism already wins and
    // sharding only adds merge overhead.
    std::size_t competing = 0;
    for (const TraceShape &shape : traces) {
        const Partition &part = partition(shape);
        competing += (part.residual.size() +
                      BatchReplay::kDefaultTileConfigs - 1) /
                         BatchReplay::kDefaultTileConfigs +
                     part.fused.size() + part.levels;
    }
    const bool may_shard =
        engine != SweepEngine::DirectOnly && !keep_caches;
    const ShardMode mode =
        may_shard ? shardModeFromEnv() : ShardMode::Off;
    const auto shards_for = [&](const CacheConfig &config,
                                std::uint64_t limit) -> std::uint32_t {
        return shouldShard(mode, config, threads, limit, competing)
                   ? planShardCount(config, threads)
                   : 1;
    };

    for (std::size_t t = 0; t < traces.size(); ++t) {
        const Partition &part = partition(traces[t]);
        const std::uint64_t limit = traces[t].limit;
        auto &groups = plan.perTrace[t];
        if (engine == SweepEngine::DirectOnly) {
            if (!part.residual.empty())
                groups.push_back({Route::Direct, part.residual, 1});
        } else {
            RouteGroup batch;
            std::vector<RouteGroup> sharded;
            for (const std::size_t i : part.residual) {
                const std::uint32_t shards = shards_for(configs[i], limit);
                if (shards > 1)
                    sharded.push_back({Route::Shard, {i}, shards});
                else
                    batch.configs.push_back(i);
            }
            if (!batch.configs.empty())
                groups.push_back(std::move(batch));
            // Fused groups shard as a unit: every member shares the
            // grouping geometry, so one member's verdict is the
            // group's.
            for (const auto &group : part.fused) {
                groups.push_back({Route::Fused, group,
                                  shards_for(configs[group.front()],
                                             limit)});
            }
            for (RouteGroup &group : sharded)
                groups.push_back(std::move(group));
        }
        if (!split.configs.empty())
            groups.push_back(split);
        for (const auto &group : part.singlePass)
            groups.push_back({Route::SinglePass, group, 1});
    }

    if (engine == SweepEngine::CrossCheck) {
        // Split pairs already run on the direct engine (a dedicated
        // SplitCache); shadowing one would compare it with itself.
        const std::size_t stride =
            std::max<std::size_t>(1, configs.size() / 4);
        for (std::size_t i = 0; i < configs.size(); i += stride) {
            if (configs[i].partition != CachePartition::SplitID)
                plan.shadows.push_back(i);
        }
    }
    return plan;
}

} // namespace occsim
