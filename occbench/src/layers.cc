/**
 * @file
 * The traced run: the workload's own phase untraced and then traced
 * (their difference is the tracing overhead), followed by probes that
 * time each layer's public functions from here. Every traced run
 * prints the same per-layer metric set, whatever its workload.
 */

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>

#include "serve/protocol.hh"
#include "serve_load.hh"
#include "trace/packed_trace.hh"
#include "util/str.hh"
#include "workload/suites.hh"
#include "workloads.hh"

using namespace occsim;
using namespace occsim::serve;

namespace occbench {

namespace {

/** Engines the paper grid's routes name (it never shards: its calls
 *  have more competing tasks than threads). */
const char *const kPaperRouteEngines[] = {"fused", "single_pass", "batch",
                                          "split", "coherent"};
/** Engines serve_mixed's fresh tiles are routed to. Fresh requests
 *  are single-cache, so never coherent, and 1-4 random configs
 *  almost never form a fused sibling group. */
const char *const kTileRouteEngines[] = {"single_pass", "batch", "split",
                                         "shard"};

/** Median wall time of @p reps calls of @p body, in seconds. */
double
medianSeconds(int reps, const std::function<void()> &body)
{
    std::vector<double> times;
    for (int r = 0; r < reps; ++r) {
        const double start = nowSec();
        body();
        times.push_back(nowSec() - start);
    }
    return median(times);
}

/** Total duration (ms) of spans named @p name recorded from index
 *  @p from on. */
double
spanMs(const Tracer &tracer, std::size_t from, const std::string &name)
{
    const std::vector<Span> spans = tracer.spans();
    double ms = 0.0;
    for (std::size_t i = from; i < spans.size(); ++i) {
        if (spans[i].name == name)
            ms += spans[i].durationMs();
    }
    return ms;
}

/** The manifest record runSweep wrote for @p call. */
const obs::SweepRecord *
recordOf(const CallRecord &call)
{
    const auto &sweeps = call.report.manifest.sweeps;
    for (auto it = sweeps.rbegin(); it != sweeps.rend(); ++it) {
        if (it->label == "occbench:" + call.name)
            return &*it;
    }
    return nullptr;
}

/** Add @p routes' per-engine config counts to @p counts. */
void
countRoutes(const std::vector<obs::ConfigRoute> &routes,
            std::map<std::string, double> &counts)
{
    for (const auto &[engine, configs] : routeSubgrids(routes))
        counts[engine] += static_cast<double>(configs.size());
}

void
paperLayers(const Options &options, Tracer &tracer, RunOutcome &out)
{
    std::map<std::string, double> routes;
    clearTraceCache();
    const std::size_t mark = tracer.spans().size();
    const PaperFixture fixture = buildPaperFixture(options.seed, &tracer);
    const double refs = static_cast<double>(fixture.builtRefs);
    out.add("workload.build_ns_per_ref", "ns/ref",
            spanMs(tracer, mark, "workload.build") * 1e6 / refs);
    std::uint64_t vm_refs = 0;
    for (const PaperSuite &suite : fixture.suites) {
        for (const auto &trace : suite.traces)
            vm_refs += trace->refs().size();
    }
    out.add("trace.pack_ns_per_ref", "ns/ref",
            spanMs(tracer, mark, "trace.pack") * 1e6 /
                static_cast<double>(vm_refs));

    // Engine speed and thread scaling are separate numbers: the
    // whole grid on nproc threads and on one, then each engine's
    // sub-grid re-timed alone on one thread.
    const std::vector<CallRecord> pass =
        runPaperGrid(fixture, nullptr, &tracer);
    ThreadPool one(1);
    const std::vector<CallRecord> serial =
        runPaperGrid(fixture, &one, nullptr);
    double wall_n = 0.0;
    double wall_1 = 0.0;
    for (std::size_t k = 0; k < pass.size(); ++k) {
        wall_n += pass[k].seconds;
        wall_1 += serial[k].seconds;
    }
    out.add("multi.thread_scaling", "x", wall_1 / wall_n);
    out.add("host.parallel_capacity", "x",
            parallelCapacity(benchThreads()));

    std::map<std::string, double> engine_s;
    std::map<std::string, double> engine_work;
    std::size_t call = 0;
    for (const PaperSuite &suite : fixture.suites) {
        for (std::size_t k = 0; k < suite.calls.size(); ++k, ++call) {
            const obs::SweepRecord *record = recordOf(pass[call]);
            if (record == nullptr ||
                record->routes.size() != suite.calls[k].size()) {
                out.fail("no manifest routes for " + pass[call].name);
                continue;
            }
            countRoutes(record->routes, routes);
            const std::vector<std::shared_ptr<const VectorTrace>> two(
                suite.traces.begin(), suite.traces.begin() + 2);
            for (const auto &[engine, indices] :
                 routeSubgrids(record->routes)) {
                SweepRequest sub;
                sub.traces = two;
                for (const std::size_t c : indices)
                    sub.configs.push_back(suite.calls[k][c]);
                sub.pool = &one;
                sub.wantAverage = false;
                sub.label = "occbench:subgrid";
                const double start = nowSec();
                const SweepReport report = runSweep(sub);
                engine_s[engine] += nowSec() - start;
                engine_work[engine] +=
                    static_cast<double>(report.refs) * indices.size();
                if (engine == "batch") {
                    // The simplest engine over the same configs.
                    sub.engine = SweepEngine::DirectOnly;
                    sub.traces.resize(1);
                    const double t0 = nowSec();
                    const SweepReport direct = runSweep(sub);
                    engine_s["direct"] += nowSec() - t0;
                    engine_work["direct"] +=
                        static_cast<double>(direct.refs) * indices.size();
                }
            }
        }
    }
    if (const obs::SweepRecord *mesi = recordOf(pass.back()))
        countRoutes(mesi->routes, routes);
    for (const char *engine : kPaperRouteEngines) {
        out.add(strfmt("multi.route.%s_configs", engine), "count",
                routes[engine]);
    }
    const CallRecord &mesi_1 = serial.back();
    engine_s["coherent"] = mesi_1.seconds;
    engine_work["coherent"] = static_cast<double>(mesi_1.cfgRefs);

    // Set-sharded replay: one packed 1M-ref trace, one shard-eligible
    // config, nproc threads — the serve fresh-tile shape (sharding
    // needs >= 2 threads, so this one engine is timed on the pool).
    {
        SweepRequest tile;
        tile.packedTraces = {
            packedTraceShared(fixture.suites[0].traces[0])};
        tile.configs = {makeConfig(4096, 16, 8, 2)};
        tile.wantAverage = false;
        tile.label = "occbench:shard_probe";
        std::string engine;
        const double seconds = medianSeconds(5, [&] {
            const SweepReport report = runSweep(tile);
            engine = report.manifest.sweeps.back().routes[0].engine;
        });
        if (engine == "shard") {
            engine_s["shard"] = seconds;
            engine_work["shard"] =
                static_cast<double>(tile.packedTraces[0]->size());
        } else {
            std::printf("shard probe routed to %s, not shard\n",
                        engine.c_str());
        }
    }
    for (const char *engine :
         {"fused", "single_pass", "batch", "direct", "split", "shard"}) {
        out.add(strfmt("multi.%s_ns_per_cfgref", engine), "ns/cfgref",
                nsPerCfgRef(engine_s[engine], engine_work[engine]));
    }
    out.add("coherence.ns_per_cfgref", "ns/cfgref",
            nsPerCfgRef(engine_s["coherent"], engine_work["coherent"]));
    std::uint64_t invalidations = 0;
    for (const auto &per_trace : pass.back().report.perTrace) {
        for (const SweepResult &result : per_trace)
            invalidations += result.coherency.invalidations;
    }
    out.add("coherence.invalidations_per_kref", "1/kref",
            static_cast<double>(invalidations) * 1e3 /
                static_cast<double>(pass.back().cfgRefs));
    std::printf("coherence share of the grid: %.1f%% of nproc wall\n",
                100.0 * pass.back().seconds / wall_n);

    // Single-config replay kernel through runSingle.
    {
        const auto &trace = fixture.suites[0].traces[0];
        std::vector<double> times;
        for (int r = 0; r < 3; ++r) {
            VectorTrace source(trace->name(), trace->refs());
            const double start = nowSec();
            runSingle(makeConfig(1024, 16, 8, 2), source);
            times.push_back(nowSec() - start);
        }
        const double seconds = median(times);
        out.add("cache.replay_ns_per_ref", "ns/ref",
                seconds * 1e9 / static_cast<double>(trace->refs().size()));
    }
    {
        // The pass's own sweep records and no served requests, so the
        // manifest's size does not depend on what else the process ran.
        obs::RunManifest manifest = pass.back().report.manifest;
        manifest.sweeps.clear();
        manifest.serves.clear();
        for (const CallRecord &record : pass) {
            if (const obs::SweepRecord *sweep = recordOf(record))
                manifest.sweeps.push_back(*sweep);
        }
        std::size_t bytes = 0;
        const double seconds = medianSeconds(
            9, [&] { bytes = manifest.toJson().size(); });
        std::printf("manifest JSON: %zu bytes, %zu sweep records\n",
                    bytes, manifest.sweeps.size());
        out.add("obs.manifest_json_ms", "ms", seconds * 1e3);
    }
}

/** Median per-call time of @p body over @p reps calls, in us. */
double
medianMicros(int reps, const std::function<void()> &body)
{
    return medianSeconds(reps, body) * 1e6;
}

} // namespace

void
addServeLayers(ServeFixture &fixture, double hot_p50_ms, Tracer &tracer,
               RunOutcome &out)
{
    out.add("trace.corpus_ingest_ms", "ms", median(fixture.ingestMs));

    TraceCorpus &corpus = fixture.server->corpus();
    std::vector<double> open_ms;
    const double open_start = nowSec();
    for (std::size_t i = 0; i < 200 && nowSec() - open_start < 4.0; ++i) {
        const double t0 = nowSec();
        auto mapped = corpus.open(fixture.hashes[i % fixture.hashes.size()]);
        open_ms.push_back((nowSec() - t0) * 1e3);
        if (!mapped)
            out.fail("corpus open failed");
    }
    out.add("trace.corpus_open_p50_ms", "ms", median(open_ms));
    out.add("trace.corpus_open_p99_ms", "ms", nearestRank(open_ms, 0.99));
    std::printf("corpus open: %zu samples, p50 %.3f ms\n", open_ms.size(),
                median(open_ms));

    const WireRequest &shape = fixture.hot.front();
    const std::string &payload = fixture.hotPayload.front();
    out.add("serve.parse_us", "us", medianMicros(2001, [&] {
                WireRequest parsed;
                parseWireRequest(payload, parsed);
            }));
    const SweepResult &cell = fixture.hotExpected.front().front();
    out.add("serve.encode_us", "us", medianMicros(2001, [&] {
                obs::JsonWriter w;
                writeResultJson(w, cell);
                (void)w.str();
            }));
    ResultCache &cache = fixture.server->cache();
    out.add("serve.cache_lookup_us", "us", medianMicros(2001, [&] {
                CachedResult hit;
                cache.lookup(ResultCache::key(fixture.hashes[0], 0,
                                              shape.configs[0]),
                             hit);
            }));

    const auto noop = [](const std::string &) { return true; };
    const double execute_ms =
        medianSeconds(31, [&] { fixture.server->execute(shape, noop); }) *
        1e3;
    out.add("serve.execute_hit_ms", "ms", execute_ms);
    // Socket round trip of a request whose execute costs ~nothing (a
    // ping): the wire share of a hit request.
    const int fd = connectUnix(fixture.socketPath);
    WireRequest ping;
    ping.op = "ping";
    const std::string ping_payload = wireRequestJson(ping);
    const double wire_ms = medianSeconds(101, [&] {
        std::string frame;
        writeFrame(fd, ping_payload);
        readFrame(fd, frame);
    }) * 1e3;
    ::close(fd);
    out.add("serve.wire_ms", "ms", wire_ms);

    // One hit request taken apart, layer by layer, under one request
    // id: the same public calls SweepServer makes for a hit.
    constexpr std::uint64_t kRequestId = 1;
    std::int64_t root = -1;
    {
        Tracer::Scope request(&tracer, "serve.hit_request", kRequestId);
        root = static_cast<std::int64_t>(tracer.spans().size()) - 1;
        WireRequest parsed;
        {
            Tracer::Scope span(&tracer, "serve.parse");
            parseWireRequest(payload, parsed);
        }
        std::string hash;
        {
            Tracer::Scope span(&tracer, "trace.corpus_resolve");
            hash = corpus.resolve(parsed.traces[0]);
        }
        std::shared_ptr<const PackedTrace> mapped;
        {
            Tracer::Scope span(&tracer, "trace.corpus_open");
            mapped = corpus.open(hash);
        }
        for (const CacheConfig &config : parsed.configs) {
            Tracer::Scope span(&tracer, "serve.cache_lookup");
            CachedResult hit;
            cache.lookup(ResultCache::key(hash, 0, config), hit);
        }
    }
    const std::vector<Span> spans = tracer.spans();
    double layers_ms = 0.0;
    std::string parts;
    for (std::size_t i = root + 1; i < spans.size(); ++i) {
        if (spans[i].parent == root) {
            layers_ms += spans[i].durationMs();
            parts += strfmt(" %s %.4f", spans[i].name.c_str(),
                            spans[i].durationMs());
        }
    }
    std::printf("hit request %llu:%s\n  sum of layers %.3f ms | "
                "serve.execute_hit_ms %.3f | req_p50_ms %.3f (closed "
                "loop, %u clients) | unexplained %.3f ms\n",
                static_cast<unsigned long long>(kRequestId), parts.c_str(),
                layers_ms, execute_ms, hot_p50_ms, benchThreads(),
                hot_p50_ms - layers_ms);
    out.add("serve.hit_layers_ms", "ms", layers_ms);
    out.add("serve.hit_unexplained_ms", "ms", hot_p50_ms - layers_ms);
}

RunOutcome
runWorkload(const Options &options, int setup_repeats, Tracer *tracer)
{
    if (options.workload == "paper_sweep")
        return runPaperSweep(options, setup_repeats, tracer);
    return runServe(options, setup_repeats, tracer);
}

RunOutcome
runTraced(const Options &options)
{
    Tracer tracer;
    RunOutcome out;
    const auto merge = [&](const RunOutcome &part) {
        out.attempted += part.attempted;
        out.failed += part.failed;
        out.correct = out.correct && part.correct;
    };

    // Tracing overhead: the same phase untraced, then traced, each
    // for half of --seconds so a traced run costs about one untraced.
    Options half = options;
    half.seconds = options.seconds / 2.0;
    std::printf("--- untraced phase ---\n");
    const RunOutcome plain = runWorkload(half, 1, nullptr);
    std::printf("--- traced phase ---\n");
    const RunOutcome traced = runWorkload(half, 1, &tracer);
    merge(plain);
    merge(traced);
    const bool sweep = options.workload == "paper_sweep";
    const char *primary = sweep ? "cfgref_per_s" : "req_p50_ms";
    double overhead = 0.0;
    for (std::size_t m = 0; m < plain.metrics.size(); ++m) {
        const Metric &a = plain.metrics[m];
        const Metric &b = traced.metrics[m];
        std::printf("e2e %-14s untraced %.6g  traced %.6g %s\n",
                    a.name.c_str(), a.value, b.value, a.unit.c_str());
        if (a.name == primary && a.value > 0.0) {
            overhead = sweep ? (a.value - b.value) / a.value * 100.0
                             : (b.value - a.value) / a.value * 100.0;
        }
    }

    std::printf("--- paper layers ---\n");
    paperLayers(options, tracer, out);

    std::printf("--- serve layers ---\n");
    clearTraceCache();
    RunOutcome serve_checks;
    auto fixture = setupServe("probe", &tracer);
    checkHotFrames(*fixture, serve_checks);
    const LoadResult hot =
        runHotLoop(*fixture, 3.0, options.seed, &tracer, serve_checks);
    const std::size_t sweeps_before = obs::currentManifest().sweeps.size();
    const LoadResult mixed =
        runMixedLoop(*fixture, 8.0, options.seed, &tracer, serve_checks);
    merge(serve_checks);
    // The fresh tiles the server ran during the burst.
    std::map<std::string, double> tile_routes;
    const obs::RunManifest manifest = obs::currentManifest();
    for (std::size_t i = sweeps_before; i < manifest.sweeps.size(); ++i)
        countRoutes(manifest.sweeps[i].routes, tile_routes);
    addServeLayers(*fixture, median(hot.latencyMs), tracer, out);
    out.add("serve.first_frame_ms", "ms", median(mixed.freshFirstMs));
    out.add("serve.queue_high_water", "jobs",
            static_cast<double>(mixed.queueHighWater));
    const double lookups = static_cast<double>(mixed.hits + mixed.misses);
    out.add("serve.cache_hit_ratio", "ratio",
            lookups > 0.0 ? static_cast<double>(mixed.hits) / lookups : 0.0);
    out.add("bench.generator_late_ms", "ms", nearestRank(mixed.lateMs, 0.99));
    for (const char *engine : kTileRouteEngines) {
        out.add(strfmt("serve.route.%s_configs", engine), "count",
                tile_routes[engine]);
    }
    out.add("bench.trace_overhead_pct", "%", overhead);

    if (!tracer.writeJsonLines("occbench-spans.jsonl"))
        std::printf("could not write the span file\n");
    std::printf("spans: %zu written to occbench-spans.jsonl\n",
                tracer.spans().size());
    return out;
}

} // namespace occbench
