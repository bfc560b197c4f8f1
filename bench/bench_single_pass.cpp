/**
 * @file
 * Direct-vs-single-pass wall-clock comparison for a full Table 1
 * size x associativity sweep: every power-of-two net size from 64 B
 * to 8 KB crossed with associativities 1/2/4/8 at the paper's
 * standard 8-byte block (sub-block == block), over every trace of
 * the PDP-11 suite.
 *
 * Both engines run on the same thread pool (OCCSIM_THREADS): the
 * direct engine as one task per (trace, config) — PR 1's
 * parallelism — and the fast path as one SinglePassEngine per trace
 * with one task per set-count level, pricing the whole grid in one
 * trace pass per level. A bit-identity check between the two result
 * sets makes the CI smoke run double as a correctness gate: exit
 * status is non-zero if any result disagrees.
 *
 * Prints a human-readable summary plus one machine-readable JSON
 * line (prefix "BENCH_JSON "). Trace generation is excluded from
 * both timings; OCCSIM_TRACE_LEN and OCCSIM_THREADS apply as usual.
 */

#include <chrono>
#include <cstdio>

#include "bench_reporter.hh"
#include "harness/experiment.hh"
#include "multi/sweep_api.hh"
#include "util/str.hh"
#include "workload/suites.hh"

using namespace occsim;
using bench::millisSince;

namespace {

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

} // namespace

int
main()
{
    const Suite suite = pdp11Suite();
    const auto configs = sizeAssocGrid(suite.profile.wordSize);
    const unsigned threads = globalThreadPool().size();

    std::printf("single-pass sweep engine benchmark: %s suite, "
                "%zu traces x %zu configs (Table 1 size x assoc "
                "grid, 8-byte blocks), %llu refs/trace, %u threads\n",
                suite.profile.name.c_str(), suite.traces.size(),
                configs.size(),
                static_cast<unsigned long long>(defaultTraceLength()),
                threads);

    // Build every trace up front (untimed; shared read-only by both
    // engines).
    const auto traces = buildSuiteTraces(suite);

    // Reference: the per-config direct engine (PR 1's parallel
    // grid), forced for every config.
    const auto direct_start = std::chrono::steady_clock::now();
    const auto direct_results = bench::sweepGrid(
        traces, configs, nullptr, SweepEngine::DirectOnly);
    const double direct_ms = millisSince(direct_start);

    // Fast path: every config here is single-pass eligible, so Auto
    // routes the whole grid to one engine per trace, one task per
    // set-count level.
    const auto fast_start = std::chrono::steady_clock::now();
    const auto fast_results = bench::sweepGrid(traces, configs);
    const double fast_ms = millisSince(fast_start);

    const bool bit_identical =
        bench::diffResultSets(direct_results, fast_results) == 0;

    const double speedup = fast_ms > 0.0 ? direct_ms / fast_ms : 0.0;
    std::printf("direct (per-config): %.1f ms\n"
                "single-pass:         %.1f ms\n"
                "speedup:             %.2fx\n"
                "bit-identical results: %s\n",
                direct_ms, fast_ms, speedup,
                bit_identical ? "yes" : "NO");

    return bench::finishBench(
        "single_pass",
        strfmt("{\"bench\":\"single_pass\","
               "\"suite\":\"%s\",\"traces\":%zu,\"configs\":%zu,"
               "\"refs_per_trace\":%llu,\"threads\":%u,"
               "\"direct_ms\":%.3f,\"fast_ms\":%.3f,"
               "\"speedup\":%.3f,\"bit_identical\":%s}",
               suite.profile.name.c_str(), suite.traces.size(),
               configs.size(),
               static_cast<unsigned long long>(defaultTraceLength()),
               threads, direct_ms, fast_ms, speedup,
               bit_identical ? "true" : "false"),
        /*gate_enforced=*/true, bit_identical);
}
