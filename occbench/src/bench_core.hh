/**
 * @file
 * The benchmark's pure arithmetic: order statistics, the tail
 * percentile rule, open-loop latency, and the engine attribution
 * split built from a sweep manifest's routes. No clocks and no I/O,
 * so tests/test_bench_core.cc can pin every rule down exactly.
 */

#ifndef OCCBENCH_BENCH_CORE_HH
#define OCCBENCH_BENCH_CORE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/manifest.hh"

namespace occbench {

/** Median of @p values (mean of the two middle values for an even
 *  count; 0 for an empty set). */
double median(std::vector<double> values);

/** Nearest-rank percentile of @p values, @p q in (0, 1]. */
double nearestRank(std::vector<double> values, double q);

/** A tail percentile with the evidence behind it. */
struct TailPercentile
{
    double value = 0.0;       ///< nearest-rank percentile
    std::size_t samples = 0;  ///< sample count
    std::size_t beyond = 0;   ///< samples ranked above the value
    bool reportable = false;  ///< beyond >= the required minimum
};

/**
 * The tail rule: the @p q percentile (nearest rank) counts only when
 * at least @p min_beyond samples rank above it — p99 needs 1000
 * samples to be more than the largest few.
 */
TailPercentile tailPercentile(std::vector<double> values, double q,
                              std::size_t min_beyond = 10);

/** One open-loop request: when it was due, when the generator
 *  actually sent it, and when its final frame arrived (steady-clock
 *  seconds). done < 0 means it never finished. */
struct OpenLoopSample
{
    double due = 0.0;
    double sent = 0.0;
    double done = -1.0;
};

/** Latency of a finished open-loop request, in ms, measured from its
 *  due time (a late generator does not hide queueing). */
double openLoopLatencyMs(const OpenLoopSample &sample);

/** How late the generator sent a request, in ms (>= 0). */
double generatorLateMs(const OpenLoopSample &sample);

/**
 * Engine attribution: for every engine name a manifest route names,
 * the config indices (grid order) routed to it. Built from
 * obs::SweepRecord::routes, which runSweep records one per config.
 */
std::map<std::string, std::vector<std::size_t>>
routeSubgrids(const std::vector<occsim::obs::ConfigRoute> &routes);

/** Cost of timed work in ns per (config x reference): @p cfg_refs
 *  is the configs x references it priced in @p seconds (0 if none). */
double nsPerCfgRef(double seconds, double cfg_refs);

} // namespace occbench

#endif // OCCBENCH_BENCH_CORE_HH
