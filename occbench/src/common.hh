/**
 * @file
 * Shared plumbing of the benchmark driver: command-line options, the
 * metric list and its final JSON line, the memory high-water mark,
 * bitwise result comparison and the host parallel-capacity probe.
 */

#ifndef OCCBENCH_COMMON_HH
#define OCCBENCH_COMMON_HH

#include <cstdint>
#include <string>
#include <vector>

#include "multi/sweep_runner.hh"
#include "tracer.hh"

namespace occbench {

/** Parsed command line. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

/** One printed metric. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
};

/** What one workload run reports. */
struct RunOutcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool correct = true;  ///< every correctness check passed
    std::vector<Metric> metrics;

    void add(const std::string &name, const std::string &unit,
             double value)
    {
        metrics.push_back({name, unit, value});
    }
    /** Record one correctness failure with its reason on stdout. */
    void fail(const std::string &why);
};

/** Threads and client connections the benchmark may use (nproc). */
unsigned benchThreads();

/** Seconds since the first call (steady clock). */
double nowSec();

/** Reset the kernel's resident-set high-water mark (VmHWM) to the
 *  current resident size. @return false if that is not possible. */
bool resetPeakRss();

/** The kernel's resident-set high-water mark (VmHWM) in MB: exact,
 *  as the kernel records it before every release of pages. */
double peakRssMb();

/** Bitwise equality of every exact field of two sweep results,
 *  the coherency counters included. */
bool identicalResults(const occsim::SweepResult &a,
                      const occsim::SweepResult &b);

/** FNV-1a over @p bytes, chained from @p seed. */
std::uint64_t fnv1a(const std::string &bytes,
                    std::uint64_t seed = 0xcbf29ce484222325ull);

/**
 * Delivered parallelism of the host right now: @p tasks identical
 * CPU-bound tasks run one after another, then all at once on their
 * own threads; returns the sequential / concurrent wall-time ratio
 * (the speedup the host actually delivered, at most @p tasks).
 */
double parallelCapacity(unsigned tasks);

/** Print the run's final JSON line (the benchmark's result). */
void printResult(const RunOutcome &outcome);

} // namespace occbench

#endif // OCCBENCH_COMMON_HH
