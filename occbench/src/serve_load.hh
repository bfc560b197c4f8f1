/**
 * @file
 * The serve workloads' fixture and load loops, shared by runServe and
 * the traced run's serve-layer probes.
 */

#ifndef OCCBENCH_SERVE_LOAD_HH
#define OCCBENCH_SERVE_LOAD_HH

#include <memory>
#include <string>
#include <vector>

#include "bench_core.hh"
#include "common.hh"
#include "serve/server.hh"
#include "tracer.hh"

namespace occbench {

/** A running server over a fresh corpus of 1M-reference traces, and
 *  the hot request shapes whose cells its set-up cached. */
struct ServeFixture
{
    std::vector<std::shared_ptr<const occsim::VectorTrace>> traces;
    std::vector<std::string> hashes;
    std::string corpusDir;
    std::string socketPath;
    std::unique_ptr<occsim::serve::SweepServer> server;

    std::vector<occsim::serve::WireRequest> hot;
    std::vector<std::size_t> hotTrace;       ///< trace index per shape
    std::vector<std::string> hotPayload;     ///< request frame payload
    /** Result frames the warm-up pass received, per shape. */
    std::vector<std::vector<std::string>> hotFrames;
    /** Direct runSweep of every hot cell (the reference). */
    std::vector<std::vector<occsim::SweepResult>> hotExpected;

    std::vector<double> ingestMs;  ///< per-trace ingest times

    ~ServeFixture();
};

/** Build, ingest, start and warm (the timed set-up). The result
 *  cache holds the hot cells but fewer than a serve_mixed run
 *  inserts. */
std::unique_ptr<ServeFixture> setupServe(const std::string &tag,
                                         Tracer *tracer);

/** Check the warm-up frames against direct runSweep (untimed). */
void checkHotFrames(ServeFixture &fixture, RunOutcome &out);

/** What a load loop measured. */
struct LoadResult
{
    std::vector<double> latencyMs;   ///< finished requests
    double seconds = 0.0;            ///< measured wall time
    std::uint64_t cells = 0;         ///< result cells received
    // Open loop only.
    std::vector<double> lateMs;          ///< generator lateness
    std::vector<double> freshFirstMs;    ///< due -> first frame
    std::vector<double> freshLatencyMs;  ///< due -> done, fresh only
    std::uint64_t freshRequests = 0;
    // Server stats over the measured phase.
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t queueHighWater = 0;
};

/** Closed loop: benchThreads() clients repeat hot shapes (the
 *  traced run's hit-path probe). */
LoadResult runHotLoop(ServeFixture &fixture, double seconds,
                      std::uint64_t seed, Tracer *tracer,
                      RunOutcome &out);

/** Open loop at kMixedRate from one generator thread: hot shapes
 *  plus a seeded share of never-seen cells. */
LoadResult runMixedLoop(ServeFixture &fixture, double seconds,
                        std::uint64_t seed, Tracer *tracer,
                        RunOutcome &out);

/** The per-layer probes of the serve path (layers.cc). @p hot_p50_ms
 *  is the closed-loop hit-request median to explain. */
void addServeLayers(ServeFixture &fixture, double hot_p50_ms,
                    Tracer &tracer, RunOutcome &out);

} // namespace occbench

#endif // OCCBENCH_SERVE_LOAD_HH
