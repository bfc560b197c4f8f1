#include "multi/sweep_api.hh"

#include <algorithm>
#include <chrono>
#include <functional>

#include "coherence/coherent_system.hh"
#include "multi/batch_replay.hh"
#include "multi/fused_replay.hh"
#include "multi/shard_replay.hh"
#include "multi/single_pass.hh"
#include "obs/telemetry.hh"
#include "util/logging.hh"

namespace occsim {

namespace {

ThreadPool &
poolOrGlobal(ThreadPool *pool)
{
    return pool != nullptr ? *pool : globalThreadPool();
}

/** References one config consumes from a trace of @p size records
 *  under @p max_refs (0 = whole trace). */
std::uint64_t
capRefs(std::uint64_t size, std::uint64_t max_refs)
{
    return max_refs == 0 ? size : std::min(max_refs, size);
}

/** Bitwise SweepResult equality (every engine's contract). */
bool
sameSweepResult(const SweepResult &a, const SweepResult &b)
{
    return a.grossBytes == b.grossBytes &&
           a.missRatio == b.missRatio &&
           a.warmMissRatio == b.warmMissRatio &&
           a.trafficRatio == b.trafficRatio &&
           a.warmTrafficRatio == b.warmTrafficRatio &&
           a.nibbleTrafficRatio == b.nibbleTrafficRatio &&
           a.warmNibbleTrafficRatio == b.warmNibbleTrafficRatio;
}

/** One sweep input: a MemRef stream, its packed records, or both. */
struct TraceInput
{
    /** Null for packedTraces inputs. */
    const VectorTrace *refs = nullptr;
    /** Decoded on demand for MemRef inputs (memoized per trace). */
    std::shared_ptr<const PackedTrace> packed;
    std::uint64_t limit = 0;
};

/**
 * The engine instance of one (trace, route group) and the pool tasks
 * that drive it. Each task touches only its own tile, level, shard or
 * member, so scheduling order cannot affect the results.
 */
struct GroupRun
{
    const RouteGroup *group = nullptr;
    std::size_t trace = 0;
    std::size_t tasks = 0;
    std::unique_ptr<BatchReplay> batch;
    std::unique_ptr<FusedReplay> fused;
    std::unique_ptr<ShardReplay> shard;
    std::unique_ptr<SinglePassEngine> singlePass;
    std::shared_ptr<const ShardedPackedTrace> sharded;
    /** Direct route with a probe: each member's finished Cache. */
    std::vector<std::unique_ptr<Cache>> caches;
    /** Direct, split and coherent routes: one summary per member. */
    std::vector<SweepResult> results;
};

std::vector<CacheConfig>
selectConfigs(const std::vector<CacheConfig> &configs,
              const std::vector<std::size_t> &indices)
{
    std::vector<CacheConfig> out;
    out.reserve(indices.size());
    for (const std::size_t i : indices)
        out.push_back(configs[i]);
    return out;
}

/** Build the engine of @p run and count its tasks. */
void
prepareGroup(GroupRun &run, const TraceInput &input,
             const std::vector<CacheConfig> &configs)
{
    const RouteGroup &group = *run.group;
    switch (group.route) {
    case Route::Batch:
        run.batch = std::make_unique<BatchReplay>(
            selectConfigs(configs, group.configs));
        run.tasks = run.batch->numTiles();
        return;
    case Route::Fused:
        run.fused = std::make_unique<FusedReplay>(
            selectConfigs(configs, group.configs), group.shards);
        if (group.shards == 1) {
            // Unsharded: one task drives the group pass straight off
            // the packed records, no partition copy.
            run.tasks = 1;
            return;
        }
        run.sharded = shardedTraceShared(input.packed,
                                         run.fused->blockBits(),
                                         run.fused->shardBits(),
                                         input.limit);
        run.tasks = group.shards;
        return;
    case Route::Shard:
        run.shard = std::make_unique<ShardReplay>(
            configs[group.configs.front()], group.shards);
        // Memoized per (trace, blockBits, shardBits): configs agreeing
        // on the block size share one partition.
        run.sharded = shardedTraceShared(input.packed,
                                         run.shard->blockBits(),
                                         run.shard->shardBits(),
                                         input.limit);
        run.tasks = group.shards;
        return;
    case Route::SinglePass:
        run.singlePass = std::make_unique<SinglePassEngine>(
            selectConfigs(configs, group.configs));
        run.tasks = run.singlePass->numLevels();
        return;
    case Route::Direct:
        run.caches.resize(group.configs.size());
        [[fallthrough]];
    case Route::Split:
    case Route::Coherent:
        run.results.resize(group.configs.size());
        run.tasks = group.configs.size();
        return;
    }
}

/** Run task @p task of @p run: a batch tile, a fused pass or shard, a
 *  set shard, a single-pass level, or one member config. */
void
runTask(GroupRun &run, std::size_t task, const TraceInput &input,
        const SweepRequest &request, bool keep_caches)
{
    const RouteGroup &group = *run.group;
    const std::uint64_t limit = input.limit;
    const auto n = static_cast<std::size_t>(limit);
    const std::size_t record_bytes =
        input.refs != nullptr ? sizeof(MemRef) : sizeof(PackedRecord);
    switch (group.route) {
    case Route::Batch:
        run.batch->runTile(task, *input.packed, limit);
        return;
    case Route::Fused:
        if (group.shards == 1)
            run.fused->run(input.packed->data(), n);
        else
            run.fused->runShard(task, *run.sharded);
        return;
    case Route::Shard:
        run.shard->runShard(task, *run.sharded);
        return;
    case Route::SinglePass:
        run.singlePass->runLevel(task, *input.refs, limit);
        return;
    case Route::Direct: {
        OCCSIM_TELEM_STAGE("engine.direct");
        const CacheConfig &config = request.configs[group.configs[task]];
        auto cache = std::make_unique<Cache>(config);
        const std::vector<MemRef> &refs = input.refs->refs();
        for (std::size_t r = 0; r < n; ++r)
            cache->access(refs[r]);
        cache->finalizeResidencies();
        run.results[task] = summarizeCache(*cache);
        if (keep_caches)
            run.caches[task] = std::move(cache);
        OCCSIM_TELEM_COUNT("engine.direct.refs", limit);
        OCCSIM_TELEM_COUNT("engine.direct.bytes", limit * record_bytes);
        return;
    }
    case Route::Split: {
        OCCSIM_TELEM_STAGE("engine.direct");
        const CacheConfig &config = request.configs[group.configs[task]];
        SplitCache pair = makeEvenSplit(config);
        if (input.refs != nullptr) {
            const std::vector<MemRef> &refs = input.refs->refs();
            for (std::size_t r = 0; r < n; ++r)
                pair.access(refs[r]);
        } else {
            pair.replayPacked(input.packed->data(), n);
        }
        pair.finalizeResidencies();
        run.results[task] = summarizeSplit(config, pair);
        OCCSIM_TELEM_COUNT("engine.direct.refs", limit);
        OCCSIM_TELEM_COUNT("engine.direct.bytes", limit * record_bytes);
        return;
    }
    case Route::Coherent: {
        OCCSIM_TELEM_STAGE("engine.coherent");
        const CacheConfig &config = request.configs[group.configs[task]];
        CoherentSystem system(request.scenario, config);
        if (input.refs != nullptr) {
            const std::vector<MemRef> &refs = input.refs->refs();
            for (std::size_t r = 0; r < n; ++r)
                system.access(refs[r]);
        } else {
            system.replayPacked(input.packed->data(), n);
        }
        system.finalize();
        run.results[task] = summarizeCoherent(config, system);
        OCCSIM_TELEM_COUNT("engine.coherent.refs", limit);
        OCCSIM_TELEM_COUNT("engine.coherent.bytes", limit * record_bytes);
        return;
    }
    }
}

/** Summaries of @p run's members, in group order. */
std::vector<SweepResult>
groupResults(const GroupRun &run)
{
    switch (run.group->route) {
    case Route::Batch:
        return run.batch->results();
    case Route::Fused:
        return run.fused->results();
    case Route::Shard:
        return {run.shard->result()};
    case Route::SinglePass:
        return run.singlePass->results();
    case Route::Direct:
    case Route::Split:
    case Route::Coherent:
        break;
    }
    return run.results;
}

/** How one config was routed across the traces of a sweep. */
struct ConfigRouting
{
    Route route = Route::Batch;
    bool fused = false;   ///< a fused pass priced it on >= 1 trace
    bool sharded = false; ///< the set-sharded engine did
    std::uint32_t shards = 1;
};

/** Sweep-wide engine activity, for the manifest. */
struct ExecInfo
{
    std::vector<ConfigRouting> routing;
    ShardTelemetry shards;
    std::size_t fusedRuns = 0;  ///< (trace, group) fused passes run
    std::size_t crossCheckSamples = 0;
};

/**
 * Run @p plan over the request's traces: every (trace, route group)
 * engine is built up front, then all of their tasks — plus one
 * shadow direct Cache per (trace, CrossCheck shadow) — run in a
 * single parallelFor. Afterwards the shadows are verified bitwise and
 * the probe sees each trace's finished Caches.
 */
std::uint64_t
executePlan(const SweepRequest &request, const RoutePlan &plan,
            const std::vector<TraceInput> &inputs, SweepReport &report,
            ExecInfo &info)
{
    const std::vector<CacheConfig> &configs = request.configs;
    const bool keep_caches = static_cast<bool>(request.probe);
    const std::size_t num_shadows = plan.shadows.size();

    std::vector<GroupRun> runs;
    for (std::size_t t = 0; t < inputs.size(); ++t) {
        for (const RouteGroup &group : plan.perTrace[t]) {
            GroupRun run;
            run.group = &group;
            run.trace = t;
            prepareGroup(run, inputs[t], configs);
            runs.push_back(std::move(run));
        }
    }

    // (run, task) pairs; a run of SIZE_MAX marks a shadow task whose
    // index is t * num_shadows + s.
    constexpr std::size_t kShadow = ~std::size_t{0};
    std::vector<std::pair<std::size_t, std::size_t>> tasks;
    for (std::size_t r = 0; r < runs.size(); ++r) {
        for (std::size_t k = 0; k < runs[r].tasks; ++k)
            tasks.emplace_back(r, k);
    }
    for (std::size_t k = 0; k < inputs.size() * num_shadows; ++k)
        tasks.emplace_back(kShadow, k);

    std::vector<SweepResult> shadow_results(inputs.size() * num_shadows);
    poolOrGlobal(request.pool)
        .parallelFor(tasks.size(), [&](std::size_t i) {
            const auto [r, k] = tasks[i];
            if (r != kShadow) {
                runTask(runs[r], k, inputs[runs[r].trace], request,
                        keep_caches);
                return;
            }
            OCCSIM_TELEM_STAGE("engine.shadow");
            const TraceInput &input = inputs[k / num_shadows];
            Cache cache(configs[plan.shadows[k % num_shadows]]);
            const std::vector<MemRef> &refs = input.refs->refs();
            for (std::uint64_t ref = 0; ref < input.limit; ++ref)
                cache.access(refs[ref]);
            cache.finalizeResidencies();
            shadow_results[k] = summarizeCache(cache);
            OCCSIM_TELEM_COUNT("engine.shadow.refs", input.limit);
            OCCSIM_TELEM_COUNT("engine.shadow.bytes",
                               input.limit * sizeof(MemRef));
        });

    report.perTrace.assign(inputs.size(),
                           std::vector<SweepResult>(configs.size()));
    info.routing.assign(configs.size(), ConfigRouting{});
    std::vector<std::vector<const Cache *>> caches(
        keep_caches ? inputs.size() : 0,
        std::vector<const Cache *>(configs.size(), nullptr));
    for (const GroupRun &run : runs) {
        const RouteGroup &group = *run.group;
        const std::vector<SweepResult> results = groupResults(run);
        for (std::size_t k = 0; k < group.configs.size(); ++k) {
            const std::size_t c = group.configs[k];
            report.perTrace[run.trace][c] = results[k];
            ConfigRouting &routing = info.routing[c];
            routing.route = group.route;
            routing.fused |= group.route == Route::Fused;
            routing.sharded |= group.route == Route::Shard;
            routing.shards = std::max(routing.shards, group.shards);
        }
        if (run.shard != nullptr)
            info.shards.accumulate(*run.shard);
        if (run.fused != nullptr) {
            ++info.fusedRuns;
            if (group.shards > 1)
                info.shards.accumulate(*run.fused);
        }
        for (std::size_t k = 0; keep_caches && k < group.configs.size();
             ++k) {
            const Cache *cache = run.batch != nullptr ? &run.batch->cache(k)
                                 : run.caches.empty() ? nullptr
                                                      : run.caches[k].get();
            caches[run.trace][group.configs[k]] = cache;
        }
    }

    // CrossCheck: the planned engines must reproduce every shadow's
    // summary bit for bit, on this very trace.
    for (std::size_t t = 0; t < inputs.size(); ++t) {
        for (std::size_t s = 0; s < num_shadows; ++s) {
            const std::size_t c = plan.shadows[s];
            if (sameSweepResult(report.perTrace[t][c],
                                shadow_results[t * num_shadows + s]))
                continue;
            const char *route = "batch";
            for (const RouteGroup &group : plan.perTrace[t]) {
                if (std::find(group.configs.begin(), group.configs.end(),
                              c) != group.configs.end())
                    route = routeName(group.route);
            }
            fatal("cross-check mismatch: %s engine disagrees with "
                  "direct simulation for config %s on trace %s",
                  route, configs[c].fullName().c_str(),
                  request.traces[t]->name().c_str());
        }
    }
    info.crossCheckSamples = inputs.size() * num_shadows;
    if (info.crossCheckSamples > 0)
        OCCSIM_TELEM_COUNT("cross_check.samples", info.crossCheckSamples);

    for (std::size_t t = 0; t < caches.size(); ++t)
        request.probe(t, caches[t]);

    std::uint64_t refs = 0;
    for (const TraceInput &input : inputs)
        refs += input.limit;
    return refs;
}

/** Sampling-engine activity of one sweep, for the manifest. */
struct SampleInfo
{
    std::size_t sampledRuns = 0;
    std::uint64_t units = 0;
    std::uint64_t measuredRefs = 0;
};

/**
 * Sampled path: one SampleReplay per trace over the shared packed
 * trace, run as two pool phases — every warming task (one per
 * (trace, block-size family), producing the live-point checkpoints),
 * then every measure task (one per (trace, config)). The barrier
 * between the phases is required: a measure task reads the
 * checkpoints its trace's warm tasks write.
 */
std::uint64_t
runSampledGrid(const SweepRequest &request, SweepReport &report,
               SampleInfo &sample_info)
{
    const auto &traces = request.traces;
    std::uint64_t refs = 0;

    std::vector<std::unique_ptr<SampleReplay>> engines;
    std::vector<std::shared_ptr<const PackedTrace>> packed;
    engines.reserve(traces.size());
    packed.reserve(traces.size());
    for (const auto &trace : traces) {
        packed.push_back(packedTraceShared(trace));
        engines.push_back(std::make_unique<SampleReplay>(
            request.configs, request.sample));
        engines.back()->prepare(*packed.back(), request.maxRefs);
        refs += capRefs(trace->size(), request.maxRefs);
    }

    std::vector<std::function<void()>> warm_tasks;
    for (std::size_t t = 0; t < traces.size(); ++t) {
        SampleReplay *eng = engines[t].get();
        const PackedTrace *trace = packed[t].get();
        for (std::size_t f = 0; f < eng->numWarmTasks(); ++f) {
            warm_tasks.push_back(
                [eng, trace, f] { eng->runWarmTask(f, *trace); });
        }
    }
    poolOrGlobal(request.pool)
        .parallelFor(warm_tasks.size(),
                     [&](std::size_t i) { warm_tasks[i](); });

    std::vector<std::function<void()>> measure_tasks;
    for (std::size_t t = 0; t < traces.size(); ++t) {
        SampleReplay *eng = engines[t].get();
        const PackedTrace *trace = packed[t].get();
        for (std::size_t c = 0; c < eng->numMeasureTasks(); ++c) {
            measure_tasks.push_back(
                [eng, trace, c] { eng->runMeasureTask(c, *trace); });
        }
    }
    poolOrGlobal(request.pool)
        .parallelFor(measure_tasks.size(),
                     [&](std::size_t i) { measure_tasks[i](); });

    report.perTrace.reserve(traces.size());
    for (std::size_t t = 0; t < traces.size(); ++t) {
        report.perTrace.push_back(engines[t]->results());
        sample_info.units += engines[t]->units().size();
        sample_info.measuredRefs += engines[t]->measuredRefs();
    }
    sample_info.sampledRuns = traces.size() * request.configs.size();
    return refs;
}

} // namespace

const char *
sweepEngineName(SweepEngine engine)
{
    switch (engine) {
    case SweepEngine::Auto:
        return "auto";
    case SweepEngine::DirectOnly:
        return "direct_only";
    case SweepEngine::CrossCheck:
        return "cross_check";
    case SweepEngine::Sampled:
        return "sampled";
    }
    return "unknown";
}

SweepReport
runSweep(const SweepRequest &request)
{
    const bool packed_path = !request.packedTraces.empty();
    occsim_assert(packed_path || !request.traces.empty(),
                  "no traces to sweep");
    occsim_assert(!packed_path || request.traces.empty(),
                  "traces and packedTraces are mutually exclusive");
    occsim_assert(!request.configs.empty(),
                  "sweep needs at least one config");
    for (const auto &trace : request.traces)
        occsim_assert(trace != nullptr, "null trace in sweep request");
    for (const auto &trace : request.packedTraces)
        occsim_assert(trace != nullptr,
                      "null packed trace in sweep request");
    const std::string scenario_error =
        validateScenario(request.scenario, request.configs);
    occsim_assert(scenario_error.empty(), "invalid scenario: %s",
                  scenario_error.c_str());
    const bool multicore = request.scenario.multicore();
    if (multicore) {
        occsim_assert(request.engine == SweepEngine::Auto,
                      "multicore scenarios route every config to the "
                      "coherent engine; the %s policy does not apply",
                      sweepEngineName(request.engine));
        occsim_assert(!request.probe,
                      "probe is incompatible with multicore scenarios "
                      "(no per-config Cache is retained)");
    }
    if (request.engine == SweepEngine::Sampled) {
        // A probe needs a finished full-trace Cache to inspect; the
        // sampling engine never has one.
        occsim_assert(!request.probe,
                      "probe is incompatible with SweepEngine::"
                      "Sampled (no full-trace Cache exists)");
        for (const CacheConfig &config : request.configs) {
            occsim_assert(config.partition == CachePartition::Unified,
                          "split I/D configs are not supported by the "
                          "sampling engine (%s)",
                          config.shortName().c_str());
        }
    }
    if (packed_path && !multicore) {
        // Packed records carry no MemRef stream, which the direct,
        // single-pass and shadow engines need.
        occsim_assert(request.engine == SweepEngine::Auto,
                      "packedTraces requires SweepEngine::Auto (the "
                      "%s policy needs a MemRef stream)",
                      sweepEngineName(request.engine));
        occsim_assert(!request.probe,
                      "probe is incompatible with packedTraces (no "
                      "per-config Cache is retained)");
    }

    const auto start = std::chrono::steady_clock::now();
    const std::uint64_t start_cpu_ns = obs::threadCpuNs();
    const unsigned threads =
        static_cast<unsigned>(poolOrGlobal(request.pool).size());

    SweepReport report;
    ExecInfo exec_info;
    SampleInfo sample_info;
    std::uint64_t refs = 0;
    if (request.engine == SweepEngine::Sampled) {
        refs = runSampledGrid(request, report, sample_info);
    } else {
        std::vector<TraceInput> inputs;
        std::vector<TraceShape> shapes;
        for (const auto &trace : request.traces) {
            inputs.push_back(
                {trace.get(), nullptr,
                 capRefs(trace->size(), request.maxRefs)});
        }
        for (const auto &trace : request.packedTraces) {
            inputs.push_back(
                {nullptr, trace, capRefs(trace->size(), request.maxRefs)});
        }
        for (const TraceInput &input : inputs)
            shapes.push_back({input.limit, input.refs != nullptr});
        const RoutePlan plan =
            planSweep(request.configs, request.engine, request.scenario,
                      shapes, threads, static_cast<bool>(request.probe));
        // MemRef inputs are decoded once for the packed-record
        // engines (memoized across sweeps sharing the trace).
        for (std::size_t t = 0; t < request.traces.size(); ++t) {
            for (const RouteGroup &group : plan.perTrace[t]) {
                if (group.route == Route::Batch ||
                    group.route == Route::Fused ||
                    group.route == Route::Shard) {
                    inputs[t].packed = packedTraceShared(request.traces[t]);
                    break;
                }
            }
        }
        refs = executePlan(request, plan, inputs, report, exec_info);
    }
    report.refs = refs;

    if (request.wantAverage)
        report.average = averageResults(report.perTrace);

    const double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    const std::uint64_t simulated =
        refs * static_cast<std::uint64_t>(request.configs.size());

    // Sweep-level telemetry: an explicit request sink records
    // unconditionally; otherwise the global registry (subject to the
    // global enable flag). The span's CPU time is the calling
    // thread's; the engine.* spans carry the pool workers'.
    const auto ns = static_cast<std::uint64_t>(wall_ms * 1e6);
    const std::uint64_t cpu_ns = obs::threadCpuNs() - start_cpu_ns;
    if (request.telemetry != nullptr) {
        request.telemetry->stageAdd("sweep", ns, cpu_ns);
        request.telemetry->counterAdd("sweep.refs", simulated);
    } else if (obs::telemetryEnabled()) {
        obs::telemetry().stageAdd("sweep", ns, cpu_ns);
        obs::telemetry().counterAdd("sweep.refs", simulated);
    }

    // Session manifest: trace identities, routing, and timing.
    for (const auto &trace : request.traces)
        obs::recordTrace(trace->name(), trace->refs().size());
    for (const auto &trace : request.packedTraces)
        obs::recordTrace(trace->name(), trace->size());

    obs::SweepRecord record;
    record.label = request.label.empty() ? "sweep" : request.label;
    record.engineMode = sweepEngineName(request.engine);
    record.threads = threads;
    record.numTraces =
        request.traces.size() + request.packedTraces.size();
    record.maxRefs = request.maxRefs;
    record.refsSimulated = simulated;
    record.wallMs = wall_ms;
    record.crossCheckSamples = exec_info.crossCheckSamples;
    record.shardedRuns = exec_info.shards.shardedRuns;
    record.shardMaxShards = exec_info.shards.maxShards;
    record.shardMaxRefs = exec_info.shards.maxShardRefs;
    record.shardMinRefs = exec_info.shards.minShardRefs;
    record.fusedRuns = exec_info.fusedRuns;
    record.fusedConfigs = static_cast<std::size_t>(
        std::count_if(exec_info.routing.begin(), exec_info.routing.end(),
                      [](const ConfigRouting &r) { return r.fused; }));
    record.sampledRuns = sample_info.sampledRuns;
    if (sample_info.sampledRuns > 0) {
        record.sampleUnitRefs = request.sample.unitRefs;
        record.sampleIntervalUnits = request.sample.intervalUnits;
        record.sampleWarmupRefs = request.sample.warmupRefs;
        record.sampleUnits = sample_info.units;
        record.sampleMeasuredRefs = sample_info.measuredRefs;
    }
    // Sampled manifests carry the per-config miss-ratio estimate
    // with its uncertainty (cross-trace combined, same arithmetic as
    // SweepReport::average); coherent manifests likewise carry the
    // per-config coherency-traffic columns.
    std::vector<SweepResult> sampled_avg;
    if (request.engine == SweepEngine::Sampled) {
        sampled_avg = request.wantAverage
                          ? report.average
                          : averageResults(report.perTrace);
    }
    std::vector<SweepResult> coherent_avg;
    if (multicore) {
        coherent_avg = request.wantAverage
                           ? report.average
                           : averageResults(report.perTrace);
        record.scenarioCores = request.scenario.cores;
        // Bus-counter totals over every (trace, config) run.
        for (const auto &trace_results : report.perTrace) {
            for (const SweepResult &result : trace_results) {
                const CoherencySummary &coh = result.coherency;
                record.cohBusReads += coh.busReads;
                record.cohBusReadForOwnership +=
                    coh.busReadForOwnership;
                record.cohBusUpgrades += coh.busUpgrades;
                record.cohInvalidations += coh.invalidations;
                record.cohCacheToCacheTransfers +=
                    coh.cacheToCacheTransfers;
                record.cohC2cWords += coh.c2cWords;
                record.cohSnoopWritebackWords +=
                    coh.snoopWritebackWords;
            }
        }
    }
    record.routes.reserve(request.configs.size());
    for (std::size_t c = 0; c < request.configs.size(); ++c) {
        const CacheConfig &config = request.configs[c];
        obs::ConfigRoute route;
        route.config = config.shortName();
        // A config sharded or fused on some traces only is named for
        // that route; its shard count is the largest it ran with.
        if (request.engine == SweepEngine::Sampled) {
            route.engine = "sample";
        } else {
            const ConfigRouting &routing = exec_info.routing[c];
            route.engine = routing.fused     ? "fused"
                           : routing.sharded ? "shard"
                                             : routeName(routing.route);
            route.shards = routing.shards;
        }
        if (!sampled_avg.empty() && sampled_avg[c].sampled.active) {
            route.sampled = true;
            route.missRatioMean =
                sampled_avg[c].sampled.missRatio.mean;
            route.missRatioStdErr =
                sampled_avg[c].sampled.missRatio.stdErr;
        }
        if (!coherent_avg.empty() &&
            coherent_avg[c].coherency.active) {
            route.coherent = true;
            route.cohInvalPerKiloRef =
                coherent_avg[c].coherency.invalidationsPerKiloRef;
            route.cohTrafficRatio =
                coherent_avg[c].coherency.coherenceTrafficRatio;
        }
        record.routes.push_back(route);
    }
    obs::recordSweep(record);

    report.manifest = obs::currentManifest();
    return report;
}

} // namespace occsim
