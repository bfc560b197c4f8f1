/**
 * @file
 * paper_sweep: offline, in-process runSweep (Auto) calls over the
 * paper's grids at 1M references per trace, on two suites whose
 * working sets differ against the modelled caches (PDP-11, word 2;
 * System/370, word 4), plus a 4-core MESI scenario over the three
 * seeded parallel-workload traces.
 */

#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <map>

#include "bench_core.hh"
#include "check/coherence_check.hh"
#include "coherence/coherent_system.hh"
#include "harness/experiment.hh"
#include "multi/sweep_runner.hh"
#include "trace/packed_trace.hh"
#include "util/random.hh"
#include "util/str.hh"
#include "workload/parallel.hh"
#include "workload/suites.hh"
#include "workloads.hh"

using namespace occsim;

namespace occbench {

namespace {

constexpr std::uint64_t kRefs = 1'000'000;  ///< the paper's length
constexpr std::uint32_t kMesiCores = 4;
constexpr std::size_t kDirectSamples = 6;     ///< cells per run
constexpr std::size_t kOraclePrefix = 30'000; ///< refs per MESI cell

std::vector<CacheConfig>
sectorCalls(std::uint32_t word)
{
    // Table 7's sector grid at 1 KB, demand and load-forward.
    std::vector<CacheConfig> grid = table7Grid(1024, word);
    const std::size_t demand = grid.size();
    for (std::size_t i = 0; i < demand; ++i) {
        CacheConfig lf = grid[i];
        lf.fetch = FetchPolicy::LoadForward;
        grid.push_back(lf);
    }
    return grid;
}

std::vector<CacheConfig>
sizeAssocGrid(std::uint32_t word)
{
    std::vector<CacheConfig> grid;
    for (std::uint32_t size = 256; size <= 8192; size *= 2) {
        for (const std::uint32_t assoc : {1u, 2u, 4u, 8u}) {
            CacheConfig c = makeConfig(size, 16, 16, word);
            c.assoc = assoc;
            grid.push_back(c);
        }
    }
    return grid;
}

std::vector<CacheConfig>
policyPoints(std::uint32_t word)
{
    std::vector<CacheConfig> grid;
    for (const std::uint32_t size : {1024u, 4096u}) {
        CacheConfig fifo = makeConfig(size, 16, 8, word);
        fifo.replacement = ReplacementPolicy::FIFO;
        CacheConfig random = makeConfig(size, 16, 16, word);
        random.replacement = ReplacementPolicy::Random;
        CacheConfig copy_back = makeConfig(size, 16, 8, word);
        copy_back.write = WritePolicy::CopyBack;
        CacheConfig split = makeConfig(size * 2, 16, 8, word);
        split.partition = CachePartition::SplitID;
        grid.insert(grid.end(), {fifo, random, copy_back, split});
    }
    CacheConfig random_sector = makeConfig(1024, 32, 8, word);
    random_sector.replacement = ReplacementPolicy::Random;
    grid.push_back(random_sector);
    return grid;
}

PaperSuite
makeSuite(const Suite &suite, Tracer *tracer)
{
    PaperSuite out;
    out.name = suite.profile.name;
    out.wordSize = suite.profile.wordSize;
    {
        Tracer::Scope span(tracer, "workload.build");
        out.traces = buildSuiteTraces(suite, kRefs);
    }
    {
        // Pack every trace now: the engines memoize the packed form
        // per trace, so this is the pack layer of the whole run.
        Tracer::Scope span(tracer, "trace.pack");
        for (const auto &trace : out.traces)
            packedTraceShared(trace);
    }
    out.calls = {sectorCalls(out.wordSize), sizeAssocGrid(out.wordSize),
                 policyPoints(out.wordSize)};
    out.callNames = {"sector", "size_assoc", "policy"};
    return out;
}

std::uint64_t
totalRefs(const std::vector<std::shared_ptr<const VectorTrace>> &traces)
{
    std::uint64_t refs = 0;
    for (const auto &trace : traces)
        refs += trace->refs().size();
    return refs;
}

/** Seeded sample of grid cells checked against DirectOnly. */
void
checkDirectSample(const PaperFixture &fixture,
                  const std::vector<CallRecord> &pass,
                  std::uint64_t seed, RunOutcome &out)
{
    Rng rng(seed ^ 0xd1ec7ull);
    std::size_t call = 0;
    for (const PaperSuite &suite : fixture.suites) {
        for (std::size_t k = 0; k < suite.calls.size(); ++k, ++call) {
            const auto &configs = suite.calls[k];
            const std::size_t samples =
                std::max<std::size_t>(1, kDirectSamples /
                                             (fixture.suites.size() *
                                              suite.calls.size()));
            for (std::size_t s = 0; s < samples; ++s) {
                const std::size_t t = rng.below(suite.traces.size());
                const std::size_t c = rng.below(configs.size());
                SweepRequest direct;
                direct.traces = {suite.traces[t]};
                direct.configs = {configs[c]};
                direct.engine = SweepEngine::DirectOnly;
                direct.wantAverage = false;
                direct.label = "occbench:direct_check";
                const SweepResult want =
                    runSweep(direct).perTrace[0][0];
                const SweepResult &got =
                    pass[call].report.perTrace[t][c];
                ++out.attempted;
                if (!identicalResults(got, want)) {
                    ++out.failed;
                    out.fail(strfmt("%s %s on %s differs from "
                                    "DirectOnly",
                                    suite.name.c_str(),
                                    configs[c].fullName().c_str(),
                                    suite.traces[t]->name().c_str()));
                }
            }
        }
    }
}

/**
 * MESI cells. Every cell the timed pass priced is compared bitwise
 * with a CoherentSystem driven here, serially, over the whole trace;
 * the coherent engine itself is checked against the flat-snooping
 * oracle on a prefix.
 */
void
checkMesiCells(const PaperFixture &fixture, const CallRecord &mesi,
               RunOutcome &out)
{
    for (std::size_t t = 0; t < fixture.parallel.size(); ++t) {
        const VectorTrace &trace = *fixture.parallel[t];
        for (std::size_t c = 0; c < fixture.mesiConfigs.size(); ++c) {
            const CacheConfig &config = fixture.mesiConfigs[c];
            CoherentSystem system(mesiScenario(), config);
            for (const MemRef &ref : trace.refs())
                system.access(ref);
            system.finalize();
            ++out.attempted;
            if (mesi.report.perTrace.size() != fixture.parallel.size() ||
                mesi.report.perTrace[t].size() !=
                    fixture.mesiConfigs.size() ||
                !identicalResults(mesi.report.perTrace[t][c],
                                  summarizeCoherent(config, system))) {
                ++out.failed;
                out.fail(strfmt("MESI %s on %s differs from a directly "
                                "driven CoherentSystem",
                                config.fullName().c_str(),
                                trace.name().c_str()));
            }
        }
    }

    for (const auto &trace : fixture.parallel) {
        const std::vector<MemRef> &refs = trace->refs();
        const std::vector<MemRef> prefix(
            refs.begin(),
            refs.begin() + std::min(refs.size(), kOraclePrefix));
        for (const CacheConfig &config : fixture.mesiConfigs) {
            const CoherenceCaseReport report = runCoherencyCase(
                mesiScenario(), config, prefix, trace->name());
            ++out.attempted;
            if (report.mismatch()) {
                ++out.failed;
                out.fail(strfmt("MESI %s on %s: %s",
                                config.shortName().c_str(),
                                trace->name().c_str(),
                                report.diffs.front().c_str()));
            }
        }
    }
}

} // namespace

ScenarioConfig
mesiScenario()
{
    ScenarioConfig scenario;
    scenario.cores = kMesiCores;
    return scenario;
}

PaperFixture
buildPaperFixture(std::uint64_t seed, Tracer *tracer)
{
    PaperFixture fixture;
    fixture.suites.push_back(makeSuite(pdp11Suite(), tracer));
    fixture.suites.push_back(makeSuite(s370Suite(), tracer));

    ParallelWorkloadParams params;
    params.cores = kMesiCores;
    params.refsPerCore = kRefs / kMesiCores;
    params.wordSize = 2;
    params.seed = seed;
    {
        Tracer::Scope span(tracer, "workload.build");
        std::vector<VectorTrace> traces(3);
        globalThreadPool().parallelFor(3, [&](std::size_t k) {
            traces[k] = makeParallelTrace(
                static_cast<ParallelWorkloadKind>(k), params);
        });
        for (VectorTrace &trace : traces) {
            fixture.parallel.push_back(
                std::make_shared<const VectorTrace>(std::move(trace)));
        }
    }
    for (const std::uint32_t size : {1024u, 4096u}) {
        CacheConfig config = makeConfig(size, 16, 8, 2);
        config.write = WritePolicy::CopyBack;  // the MESI subset
        fixture.mesiConfigs.push_back(config);
    }
    for (const PaperSuite &suite : fixture.suites)
        fixture.builtRefs += totalRefs(suite.traces);
    fixture.builtRefs += totalRefs(fixture.parallel);
    return fixture;
}

std::vector<CallRecord>
runPaperGrid(const PaperFixture &fixture, ThreadPool *pool,
             Tracer *tracer)
{
    std::vector<CallRecord> pass;
    const auto run = [&](const std::string &name,
                         SweepRequest request) {
        request.pool = pool;
        request.wantAverage = false;
        request.label = "occbench:" + name;
        CallRecord record;
        record.name = name;
        const double start = nowSec();
        {
            Tracer::Scope span(tracer, "multi.run_sweep");
            record.report = runSweep(request);
        }
        record.seconds = nowSec() - start;
        record.cfgRefs = record.report.refs * request.configs.size();
        pass.push_back(std::move(record));
    };
    for (const PaperSuite &suite : fixture.suites) {
        for (std::size_t k = 0; k < suite.calls.size(); ++k) {
            SweepRequest request;
            request.traces = suite.traces;
            request.configs = suite.calls[k];
            run(suite.name + ":" + suite.callNames[k], request);
        }
    }
    SweepRequest mesi;
    mesi.traces = fixture.parallel;
    mesi.configs = fixture.mesiConfigs;
    mesi.scenario = mesiScenario();
    run("mesi4", mesi);
    return pass;
}

RunOutcome
runPaperSweep(const Options &options, int setup_repeats, Tracer *tracer)
{
    RunOutcome out;
    std::printf("paper_sweep: seed %llu (drives the parallel-trace "
                "interleaving; the VM suite traces are deterministic "
                "and do not depend on it), %u threads\n",
                static_cast<unsigned long long>(options.seed),
                benchThreads());

    // Set-up: trace build + pack + one warm-up grid pass, timed
    // kSetupRepeats times from a cold trace cache.
    std::vector<double> setups;
    PaperFixture fixture;
    for (int r = 0; r < setup_repeats; ++r) {
        fixture = PaperFixture();
        clearTraceCache();
        const double start = nowSec();
        fixture = buildPaperFixture(options.seed, tracer);
        runPaperGrid(fixture, nullptr, nullptr);
        setups.push_back(nowSec() - start);
        std::printf("setup %d: %.3f s\n", r, setups.back());
    }

    // Timed phase: whole grid passes until the time is up. A pass is
    // one paper_sweep request: the whole grid, priced once.
    std::vector<double> pass_ms;
    std::vector<double> pass_rates;
    std::map<std::string, std::vector<double>> call_ms;
    std::vector<CallRecord> last;
    std::uint64_t cfg_refs = 0;
    ::malloc_trim(0);  // set-up garbage is not the phase's memory
    if (!resetPeakRss())
        out.fail("cannot reset the resident-set high-water mark");
    double measured = 0.0;
    while (pass_ms.empty() || measured < options.seconds) {
        const double pass_start = nowSec();
        last = runPaperGrid(fixture, nullptr, tracer);
        const double pass_s = nowSec() - pass_start;
        measured += pass_s;
        std::uint64_t pass_refs = 0;
        for (const CallRecord &call : last) {
            pass_refs += call.cfgRefs;
            call_ms[call.name].push_back(call.seconds * 1e3);
        }
        cfg_refs += pass_refs;
        pass_ms.push_back(pass_s * 1e3);
        pass_rates.push_back(static_cast<double>(pass_refs) / pass_s);
    }
    const double peak_mb = peakRssMb();

    // Correctness, outside the timed phase.
    checkDirectSample(fixture, last, options.seed, out);
    checkMesiCells(fixture, last.back(), out);

    std::string calls;
    for (const CallRecord &call : last)
        calls += strfmt(" %s %.1f", call.name.c_str(),
                        median(call_ms[call.name]));
    std::printf("call medians (ms):%s\n", calls.c_str());
    std::printf("timed: %zu passes, %.3e config-refs in %.3f s; "
                "fail_frac %.6f\n",
                pass_ms.size(), static_cast<double>(cfg_refs), measured,
                static_cast<double>(out.failed) /
                    static_cast<double>(out.attempted));
    out.add("setup_s", "s", median(setups));
    out.add("cfgref_per_s", "config-refs/s", median(pass_rates));
    out.add("req_per_s", "req/s",
            static_cast<double>(pass_ms.size()) / measured);
    out.add("req_p50_ms", "ms", median(pass_ms));
    // Every pass prices every cell afresh: nothing here is cached.
    out.add("fresh_p50_ms", "ms", median(pass_ms));
    out.add("peak_rss_mb", "MB", peak_mb);
    return out;
}

} // namespace occbench
