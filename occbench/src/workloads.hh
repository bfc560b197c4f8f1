/**
 * @file
 * The benchmark's workloads and the per-layer probes of the traced
 * run. Each workload function sets up (several times, for the
 * setup_s median), measures for Options::seconds, then checks every
 * output outside the timed phase. With Options::trace it reports the
 * per-layer metrics instead of the end-to-end ones.
 */

#ifndef OCCBENCH_WORKLOADS_HH
#define OCCBENCH_WORKLOADS_HH

#include <memory>
#include <string>
#include <vector>

#include "cache/cache_config.hh"
#include "common.hh"
#include "multi/sweep_api.hh"
#include "tracer.hh"
#include "util/thread_pool.hh"

namespace occbench {

/** Set-ups timed per run; setup_s is their median. A serve set-up
 *  is cheap and touches the disk, so it is repeated more often. */
constexpr int kSweepSetupRepeats = 3;
constexpr int kServeSetupRepeats = 7;

/** One architecture's traces and its share of the paper grid. */
struct PaperSuite
{
    std::string name;
    std::uint32_t wordSize = 2;
    std::vector<std::shared_ptr<const occsim::VectorTrace>> traces;
    /** The grid as separate runSweep calls, in pass order: Table 7
     *  sector grid demand + load-forward, LRU size x assoc, policy
     *  points (FIFO / Random / copy-back / split I/D). */
    std::vector<std::vector<occsim::CacheConfig>> calls;
    std::vector<std::string> callNames;
};

/** Everything paper_sweep sweeps: two VM suites plus the three
 *  seeded parallel traces of the 4-core MESI scenario. */
struct PaperFixture
{
    std::vector<PaperSuite> suites;
    std::vector<std::shared_ptr<const occsim::VectorTrace>> parallel;
    std::vector<occsim::CacheConfig> mesiConfigs;
    std::uint64_t builtRefs = 0;  ///< VM + parallel refs generated
};

/** Build (not time) the fixture; @p seed drives only the parallel
 *  traces' interleaving — the VM suite traces are deterministic. */
PaperFixture buildPaperFixture(std::uint64_t seed, Tracer *tracer);

/** The 4-core scenario the MESI call prices. */
occsim::ScenarioConfig mesiScenario();

/** One runSweep call of a grid pass. */
struct CallRecord
{
    std::string name;
    double seconds = 0.0;
    std::uint64_t cfgRefs = 0;
    occsim::SweepReport report;
};

/** Run every call of the paper grid once on @p pool (nullptr =
 *  global pool). */
std::vector<CallRecord> runPaperGrid(const PaperFixture &fixture,
                                     occsim::ThreadPool *pool,
                                     Tracer *tracer);

/** Run a workload: @p setup_repeats timed set-ups, then the timed
 *  phase; @p tracer (nullable) records spans around layer calls. */
RunOutcome runPaperSweep(const Options &options, int setup_repeats,
                         Tracer *tracer);
RunOutcome runServe(const Options &options, int setup_repeats,
                    Tracer *tracer);

/** Dispatch options.workload to its run function. */
RunOutcome runWorkload(const Options &options, int setup_repeats,
                       Tracer *tracer);

/** The traced run of options.workload (layers.cc): the workload's
 *  own phase untraced then traced, plus every layer probe. */
RunOutcome runTraced(const Options &options);


} // namespace occbench

#endif // OCCBENCH_WORKLOADS_HH
