/**
 * @file
 * Direct vs single-pass vs batched wall-clock comparison for a full
 * Table 1 size x associativity sweep: every power-of-two net size
 * from 64 B to 8 KB crossed with associativities 1/2/4/8 at the
 * paper's standard 8-byte block (sub-block == block), over every
 * trace of the PDP-11 suite.
 *
 * The three engine legs run on the same thread pool (OCCSIM_THREADS;
 * 1 when BENCH_single_pass.json is recorded):
 *
 *  - direct: one task per (trace, config), the reference path;
 *  - single-pass: Auto routes the whole grid to one SinglePassEngine
 *    per trace, one task per set-count level;
 *  - batched: one BatchReplay per trace driven directly, one task
 *    per tile. It is the simplest engine that covers these configs,
 *    so speedup_vs_batch is the ratio the single-pass engine has to
 *    earn its keep against.
 *
 * A fourth leg, pool, runs the single-pass grid again through Auto on
 * a pool of hardware width (effectiveHardwareThreads()), so thread
 * scaling is reported apart from engine speed: level_scaling =
 * single-pass ms / pool ms, beside speedup_vs_batch, never folded
 * into it.
 *
 * Each leg runs kTrials times, interleaved (direct, single-pass,
 * batched, pool, then again), and the JSON reports the median of
 * each. A bit-identity check of every fast result set against direct
 * makes the CI smoke run double as a correctness gate: exit status
 * is non-zero if any result disagrees. There is no timing gate.
 *
 * Prints a human-readable summary plus one machine-readable JSON
 * line (prefix "BENCH_JSON "). Trace generation and packing are
 * excluded from every timing; OCCSIM_TRACE_LEN and OCCSIM_THREADS
 * apply as usual.
 */

#include <chrono>
#include <cstdio>
#include <memory>
#include <utility>

#include "bench_reporter.hh"
#include "harness/experiment.hh"
#include "multi/batch_replay.hh"
#include "multi/sweep_api.hh"
#include "util/str.hh"
#include "workload/suites.hh"

using namespace occsim;
using bench::millisSince;

namespace {

constexpr int kTrials = 3;

std::vector<CacheConfig>
sizeAssocGrid(std::uint32_t word_size)
{
    constexpr std::uint32_t kBlock = 8;
    std::vector<CacheConfig> configs;
    for (std::uint32_t net = 64; net <= 8192; net *= 2) {
        for (const std::uint32_t assoc : {1u, 2u, 4u, 8u}) {
            CacheConfig config =
                makeConfig(net, kBlock, kBlock, word_size);
            config.assoc = assoc;
            configs.push_back(config);
        }
    }
    return configs;
}

/** The batched engine over every trace: one pool task per tile. */
std::vector<std::vector<SweepResult>>
batchGrid(const std::vector<std::shared_ptr<const PackedTrace>> &packed,
          const std::vector<CacheConfig> &configs)
{
    std::vector<std::unique_ptr<BatchReplay>> engines;
    std::vector<std::pair<std::size_t, std::size_t>> tasks;
    for (std::size_t t = 0; t < packed.size(); ++t) {
        engines.push_back(std::make_unique<BatchReplay>(configs));
        for (std::size_t tile = 0; tile < engines[t]->numTiles();
             ++tile)
            tasks.emplace_back(t, tile);
    }
    globalThreadPool().parallelFor(tasks.size(), [&](std::size_t i) {
        const auto [t, tile] = tasks[i];
        engines[t]->runTile(tile, *packed[t]);
    });
    std::vector<std::vector<SweepResult>> results;
    results.reserve(engines.size());
    for (const auto &engine : engines)
        results.push_back(engine->results());
    return results;
}

} // namespace

int
main()
{
    const Suite suite = pdp11Suite();
    const auto configs = sizeAssocGrid(suite.profile.wordSize);
    const unsigned threads = globalThreadPool().size();
    ThreadPool wide_pool(effectiveHardwareThreads());

    std::printf("single-pass sweep engine benchmark: %s suite, "
                "%zu traces x %zu configs (Table 1 size x assoc "
                "grid, 8-byte blocks), %llu refs/trace, %u threads "
                "(pool leg %u), median of %d interleaved trials\n",
                suite.profile.name.c_str(), suite.traces.size(),
                configs.size(),
                static_cast<unsigned long long>(defaultTraceLength()),
                threads, wide_pool.size(), kTrials);

    // Build and pack every trace up front (untimed; shared read-only
    // by all engines).
    const auto traces = buildSuiteTraces(suite);
    std::vector<std::shared_ptr<const PackedTrace>> packed;
    for (const auto &trace : traces)
        packed.push_back(packedTraceShared(trace));

    std::vector<double> direct_ms, fast_ms, batch_ms, pool_ms;
    std::size_t mismatches = 0;
    for (int trial = 0; trial < kTrials; ++trial) {
        // Reference: the per-config direct engine, forced for every
        // config.
        auto start = std::chrono::steady_clock::now();
        const auto direct_results = bench::sweepGrid(
            traces, configs, nullptr, SweepEngine::DirectOnly);
        direct_ms.push_back(millisSince(start));

        // Fast path: every config here is single-pass eligible, so
        // Auto routes the whole grid to one engine per trace.
        start = std::chrono::steady_clock::now();
        const auto fast_results = bench::sweepGrid(traces, configs);
        fast_ms.push_back(millisSince(start));

        start = std::chrono::steady_clock::now();
        const auto batch_results = batchGrid(packed, configs);
        batch_ms.push_back(millisSince(start));

        // The single-pass grid again, its level tasks spread over a
        // hardware-width pool.
        start = std::chrono::steady_clock::now();
        const auto pool_results =
            bench::sweepGrid(traces, configs, &wide_pool);
        pool_ms.push_back(millisSince(start));

        mismatches +=
            bench::diffResultSets(direct_results, fast_results) +
            bench::diffResultSets(direct_results, batch_results) +
            bench::diffResultSets(direct_results, pool_results);
    }
    const bool bit_identical = mismatches == 0;

    const double direct = bench::median(direct_ms);
    const double fast = bench::median(fast_ms);
    const double batch = bench::median(batch_ms);
    const double pool = bench::median(pool_ms);
    const double speedup = fast > 0.0 ? direct / fast : 0.0;
    const double speedup_vs_batch = fast > 0.0 ? batch / fast : 0.0;
    const double level_scaling = pool > 0.0 ? fast / pool : 0.0;
    std::printf("direct (per-config): %.1f ms\n"
                "single-pass:         %.1f ms\n"
                "batched:             %.1f ms\n"
                "single-pass, %2u thr: %.1f ms\n"
                "speedup vs direct:   %.2fx\n"
                "speedup vs batched:  %.2fx\n"
                "level scaling:       %.2fx (%u -> %u threads)\n"
                "bit-identical results: %s\n",
                direct, fast, batch, wide_pool.size(), pool, speedup,
                speedup_vs_batch, level_scaling, threads,
                wide_pool.size(), bit_identical ? "yes" : "NO");

    return bench::finishBench(
        "single_pass",
        strfmt("{\"bench\":\"single_pass\","
               "\"suite\":\"%s\",\"traces\":%zu,\"configs\":%zu,"
               "\"refs_per_trace\":%llu,\"threads\":%u,\"trials\":%d,"
               "\"direct_ms\":%.3f,\"fast_ms\":%.3f,"
               "\"batch_ms\":%.3f,\"speedup\":%.3f,"
               "\"speedup_vs_batch\":%.3f,\"pool_threads\":%u,"
               "\"pool_ms\":%.3f,\"level_scaling\":%.3f,"
               "\"bit_identical\":%s}",
               suite.profile.name.c_str(), suite.traces.size(),
               configs.size(),
               static_cast<unsigned long long>(defaultTraceLength()),
               threads, kTrials, direct, fast, batch, speedup,
               speedup_vs_batch, wide_pool.size(), pool, level_scaling,
               bit_identical ? "true" : "false"),
        /*gate_enforced=*/true, bit_identical);
}
