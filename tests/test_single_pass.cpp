/**
 * @file
 * Exactness tests for the single-pass multi-configuration sweep
 * engine: for every (net size, associativity) point of the paper
 * grid at a fixed block size, the engine's counts (misses, cold
 * misses, traffic words) and its SweepResult doubles must equal
 * direct Cache simulation bit-for-bit — on real library programs, on
 * a synthetic adversarial trace, and through the runSweep fast-path
 * integration with mixed (eligible and ineligible) config lists.
 * Every level's bounded-stack distance histogram must also equal one
 * built from the unbounded SetLruTracker, which serves as its oracle.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "cache/cache.hh"
#include "cache/cache_geometry.hh"
#include "harness/experiment.hh"
#include "multi/single_pass.hh"
#include "multi/stack_analyzer.hh"
#include "multi/sweep_api.hh"
#include "util/bitops.hh"
#include "util/random.hh"
#include "workload/suites.hh"
#include "workload/synthetic.hh"

using namespace occsim;

namespace {

/** Suite sweep through the unified API; returns the per-trace grid. */
std::vector<std::vector<occsim::SweepResult>>
sweepGrid(const std::vector<std::shared_ptr<const occsim::VectorTrace>>
              &traces,
          const std::vector<occsim::CacheConfig> &configs,
          occsim::ThreadPool *pool,
          occsim::SweepEngine engine = occsim::SweepEngine::Auto)
{
    occsim::SweepRequest request;
    request.traces = traces;
    request.configs = configs;
    request.pool = pool;
    request.engine = engine;
    request.wantAverage = false;
    return occsim::runSweep(request).perTrace;
}

constexpr std::uint64_t kRefs = 30000;

/** Bit-identical comparison of two SweepResults (exact doubles). */
void
expectIdentical(const SweepResult &a, const SweepResult &b)
{
    EXPECT_EQ(a.config, b.config);
    EXPECT_EQ(a.grossBytes, b.grossBytes);
    EXPECT_EQ(a.missRatio, b.missRatio);
    EXPECT_EQ(a.warmMissRatio, b.warmMissRatio);
    EXPECT_EQ(a.trafficRatio, b.trafficRatio);
    EXPECT_EQ(a.warmTrafficRatio, b.warmTrafficRatio);
    EXPECT_EQ(a.nibbleTrafficRatio, b.nibbleTrafficRatio);
    EXPECT_EQ(a.warmNibbleTrafficRatio, b.warmNibbleTrafficRatio);
}

/**
 * The paper grid restricted to single-pass form: every power-of-two
 * net size in [min_net, max_net] crossed with associativities
 * 1..16 at one block (== sub-block) size.
 */
std::vector<CacheConfig>
sizeAssocGrid(std::uint32_t block, std::uint32_t min_net,
              std::uint32_t max_net, std::uint32_t word_size)
{
    std::vector<CacheConfig> configs;
    for (std::uint32_t net = min_net; net <= max_net; net *= 2) {
        for (std::uint32_t assoc : {1u, 2u, 4u, 8u, 16u}) {
            CacheConfig config = makeConfig(net, block, block,
                                            word_size);
            config.assoc = assoc;
            configs.push_back(config);
        }
    }
    return configs;
}

/**
 * Assert the engine's per-config counts and summaries equal a direct
 * Cache simulation of every config over the same trace.
 */
void
expectMatchesDirect(const std::vector<CacheConfig> &configs,
                    const VectorTrace &trace)
{
    SinglePassEngine engine(configs);
    engine.processTrace(trace);
    const auto results = engine.results();
    ASSERT_EQ(results.size(), configs.size());

    for (std::size_t i = 0; i < configs.size(); ++i) {
        Cache cache(configs[i]);
        for (const MemRef &ref : trace.refs())
            cache.access(ref);
        cache.finalizeResidencies();

        const CacheStats &direct = cache.stats();
        const auto counts = engine.countsFor(i);
        const std::string label = configs[i].fullName();

        EXPECT_EQ(counts.accesses, direct.accesses()) << label;
        EXPECT_EQ(counts.misses, direct.misses()) << label;
        EXPECT_EQ(counts.coldMisses, direct.coldMisses()) << label;
        EXPECT_EQ(counts.ifetchAccesses, direct.ifetchAccesses())
            << label;
        EXPECT_EQ(counts.ifetchMisses, direct.ifetchMisses()) << label;
        EXPECT_EQ(counts.writeAccesses, direct.writeAccesses())
            << label;
        EXPECT_EQ(counts.writeMisses, direct.writeMisses()) << label;

        // Traffic totals in words: read fetches, cold share, write
        // fetches, write-through stores.
        const std::uint32_t words =
            cache.geometry().wordsPerSubBlock();
        EXPECT_EQ(counts.misses * words, direct.wordsFetched())
            << label;
        EXPECT_EQ(counts.coldMisses * words,
                  direct.coldWordsFetched())
            << label;
        EXPECT_EQ(counts.writeMisses * words,
                  direct.writeWordsFetched())
            << label;
        EXPECT_EQ(counts.writeAccesses, direct.storeWords()) << label;

        expectIdentical(results[i], summarizeCache(cache));
    }
}

/**
 * A trace built to stress the stack-distance structures: cyclic
 * sweeps over a large footprint (anti-LRU, every distance deep, lots
 * of dead tracker entries → compaction, full bounded stacks), tight
 * MRU loops (fast path), a
 * ping-pong pair, and interleaved writes and instruction fetches.
 */
VectorTrace
adversarialTrace()
{
    VectorTrace trace("adversarial");
    const std::uint32_t block = 16;
    auto push = [&](Addr block_index, RefKind kind) {
        trace.append(block_index * block, kind, 2);
    };

    // Phase 1: three cyclic sweeps over 600 blocks. Under LRU every
    // reuse distance is 600 — misses at every small capacity, and the
    // per-set time arrays accumulate dead entries.
    for (int pass = 0; pass < 3; ++pass) {
        for (Addr b = 0; b < 600; ++b)
            push(b, pass == 1 ? RefKind::DataWrite : RefKind::DataRead);
    }
    // Phase 2: tight loop over 4 blocks (MRU fast path, distances
    // 1..4), with instruction fetches.
    for (int i = 0; i < 2000; ++i)
        push(static_cast<Addr>(i % 4), RefKind::Ifetch);
    // Phase 3: ping-pong between two far-apart blocks that map to the
    // same set at every power-of-two set count.
    for (int i = 0; i < 500; ++i) {
        push(i % 2 == 0 ? 1024 : 2048, RefKind::DataRead);
        push(3072, RefKind::DataWrite);
    }
    // Phase 4: revisit phase-1 blocks in reverse (deep distances
    // straight after compaction).
    for (Addr b = 600; b-- > 0;)
        push(b, RefKind::DataRead);
    return trace;
}

} // namespace

TEST(TouchTimeSet, MatchesLinearStackOracle)
{
    // SetLruTracker distances vs a brute-force per-set linear LRU
    // stack, over a stream with enough churn to trigger compaction.
    constexpr std::uint32_t kSets = 4;
    SetLruTracker tracker(kSets);
    std::vector<std::vector<Addr>> stacks(kSets);  // MRU at back

    std::uint64_t state = 12345;
    auto next_block = [&]() -> Addr {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        // Mix tight reuse (16 blocks) with a long tail (4096 blocks).
        return (state >> 33) % 2 == 0
                   ? static_cast<Addr>((state >> 40) % 16)
                   : static_cast<Addr>((state >> 40) % 4096);
    };

    for (int i = 0; i < 60000; ++i) {
        const Addr block = next_block();
        auto &stack = stacks[block % kSets];
        std::uint64_t expected = SetLruTracker::kFirstTouch;
        for (std::size_t j = stack.size(); j-- > 0;) {
            if (stack[j] == block) {
                expected = stack.size() - j;
                stack.erase(stack.begin() +
                            static_cast<std::ptrdiff_t>(j));
                break;
            }
        }
        stack.push_back(block);
        ASSERT_EQ(tracker.touch(block), expected) << "ref " << i;
    }
}

TEST(SinglePassEngine, MatchesDirectOnLibraryPrograms)
{
    // The full size x associativity grid at the paper's standard
    // block sizes, on three library programs (PDP-11 suite).
    const Suite suite = pdp11Suite();
    ASSERT_GE(suite.traces.size(), 3u);
    for (std::size_t p = 0; p < 3; ++p) {
        const auto trace = buildTraceShared(suite.traces[p], kRefs);
        for (const std::uint32_t block : {4u, 16u}) {
            expectMatchesDirect(
                sizeAssocGrid(block, 64, 4096,
                              suite.profile.wordSize),
                *trace);
        }
    }
}

TEST(SinglePassEngine, MatchesDirectOnAdversarialTrace)
{
    const VectorTrace trace = adversarialTrace();
    expectMatchesDirect(sizeAssocGrid(16, 64, 16384, 2), trace);
}

TEST(SinglePassEngine, MatchesDirectOnSyntheticWrites)
{
    // Synthetic workload with its natural read/write/ifetch mix.
    SyntheticParams params;
    params.seed = 77;
    const VectorTrace trace = makeSyntheticTrace(params, 40000);
    expectMatchesDirect(sizeAssocGrid(8, 32, 2048, 2), trace);
}

TEST(SinglePassEngine, LevelsAreIndependentTasks)
{
    // Running levels out of order (as the parallel integration does)
    // changes nothing.
    const VectorTrace trace = adversarialTrace();
    const auto configs = sizeAssocGrid(16, 64, 4096, 2);

    SinglePassEngine sequential(configs);
    sequential.processTrace(trace);

    SinglePassEngine shuffled(configs);
    for (std::size_t l = shuffled.numLevels(); l-- > 0;)
        shuffled.runLevel(l, trace);

    const auto a = sequential.results();
    const auto b = shuffled.results();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        expectIdentical(a[i], b[i]);
}

TEST(SinglePassEngine, LevelsRunConcurrentlyMatchSequential)
{
    // Every level of one engine driven from pool tasks at once, in
    // reverse order, on a grid with LRU and FIFO points: the counts
    // and histograms each task publishes must equal a sequential
    // processTrace of a second engine. The trace is long enough for
    // the level passes to overlap in time.
    const Suite suite = pdp11Suite();
    const auto trace = buildTraceShared(suite.traces.front(), 200000);
    auto configs = sizeAssocGrid(16, 64, 4096, suite.profile.wordSize);
    for (const std::uint32_t net : {256u, 1024u}) {
        CacheConfig fifo = makeConfig(net, 16, 16,
                                      suite.profile.wordSize);
        fifo.assoc = 4;
        fifo.replacement = ReplacementPolicy::FIFO;
        configs.push_back(fifo);
    }

    SinglePassEngine sequential(configs);
    sequential.processTrace(*trace);

    SinglePassEngine concurrent(configs);
    const std::size_t levels = concurrent.numLevels();
    ASSERT_GE(levels, 4u);
    ThreadPool pool(4);
    pool.parallelFor(levels, [&](std::size_t i) {
        concurrent.runLevel(levels - 1 - i, *trace);
    });

    for (std::size_t c = 0; c < configs.size(); ++c) {
        SCOPED_TRACE(configs[c].fullName());
        const auto a = sequential.countsFor(c);
        const auto b = concurrent.countsFor(c);
        EXPECT_EQ(a.accesses, b.accesses);
        EXPECT_EQ(a.misses, b.misses);
        EXPECT_EQ(a.coldMisses, b.coldMisses);
        EXPECT_EQ(a.ifetchAccesses, b.ifetchAccesses);
        EXPECT_EQ(a.ifetchMisses, b.ifetchMisses);
        EXPECT_EQ(a.writeAccesses, b.writeAccesses);
        EXPECT_EQ(a.writeMisses, b.writeMisses);
    }
    for (std::size_t l = 0; l < levels; ++l) {
        const std::uint32_t sets = sequential.levelSets(l);
        EXPECT_EQ(concurrent.distanceHistogram(sets),
                  sequential.distanceHistogram(sets))
            << sets << " sets";
    }
}

TEST(SinglePassEngine, RunSweepFastPathMatchesSequentialDirect)
{
    // runSweep in Auto mode vs sequential direct Cache simulation on
    // a mixed list: paperGrid contains both eligible (sub == block)
    // and ineligible (sub < block) configs.
    const Suite suite = pdp11Suite();
    const auto trace = buildTraceShared(suite.traces.front(), kRefs);
    const auto configs = paperGrid(1024, suite.profile.wordSize);

    std::vector<SweepResult> expected;
    for (const CacheConfig &config : configs) {
        VectorTrace copy = *trace;
        expected.push_back(runSingle(config, copy));
    }

    ThreadPool pool(4);
    const auto actual = sweepGrid({trace}, configs, &pool)[0];

    // The plan routes exactly the eligible configs single-pass, and
    // the grid really exercises both paths.
    const RoutePlan plan =
        planSweep(configs, SweepEngine::Auto, ScenarioConfig{},
                  {{trace->size(), true}}, pool.size());
    std::vector<char> fast_pathed(configs.size(), 0);
    std::size_t fast_path_count = 0;
    for (const RouteGroup &group : plan.perTrace[0]) {
        if (group.route != Route::SinglePass)
            continue;
        for (const std::size_t c : group.configs) {
            fast_pathed[c] = 1;
            ++fast_path_count;
        }
    }
    EXPECT_GT(fast_path_count, 0u);
    EXPECT_LT(fast_path_count, configs.size());

    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        expectIdentical(actual[i], expected[i]);
        EXPECT_EQ(fast_pathed[i] != 0, singlePassEligible(configs[i]));
    }

    // A probe sees a Cache for every batched config and none for the
    // single-pass ones (fused and sharded configs have no single
    // Cache, so a probe plans without them).
    SweepRequest probed;
    probed.traces = {trace};
    probed.configs = configs;
    probed.pool = &pool;
    probed.probe = [&](std::size_t,
                       const std::vector<const Cache *> &caches) {
        for (std::size_t i = 0; i < configs.size(); ++i) {
            EXPECT_EQ(caches[i] == nullptr, fast_pathed[i] != 0) << i;
            if (caches[i] != nullptr) {
                EXPECT_EQ(caches[i]->config(), configs[i]);
            }
        }
    };
    const auto probed_results = runSweep(probed).perTrace[0];
    for (std::size_t i = 0; i < expected.size(); ++i)
        expectIdentical(probed_results[i], expected[i]);
}

TEST(SinglePassEngine, RunSweepAutoMatchesDirectOnly)
{
    const Suite suite = z8000Suite();
    const auto configs = paperGrid(512, suite.profile.wordSize);

    std::vector<std::shared_ptr<const VectorTrace>> traces;
    for (std::size_t t = 0; t < 2; ++t)
        traces.push_back(buildTraceShared(suite.traces[t], kRefs));

    ThreadPool pool(4);
    const auto direct =
        sweepGrid(traces, configs, &pool, SweepEngine::DirectOnly);
    const auto fast = sweepGrid(traces, configs, &pool);

    ASSERT_EQ(fast.size(), direct.size());
    for (std::size_t t = 0; t < direct.size(); ++t) {
        ASSERT_EQ(fast[t].size(), direct[t].size());
        for (std::size_t c = 0; c < direct[t].size(); ++c)
            expectIdentical(fast[t][c], direct[t][c]);
    }
}

TEST(SinglePassEngine, DistanceHistogramPoolsAtCap)
{
    // Histogram sanity: hits for associativity A = sum of
    // hist[1..A]; the buckets sum to the counted refs, first touches
    // included; and hist[cap] pools exactly the misses of the
    // level's largest-associativity LRU point.
    const VectorTrace trace = adversarialTrace();
    const auto configs = sizeAssocGrid(16, 1024, 1024, 2);
    SinglePassEngine engine(configs);
    engine.processTrace(trace);

    std::size_t largest_points = 0;
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const CacheGeometry geom(configs[i]);
        const auto &hist = engine.distanceHistogram(geom.numSets());
        const auto counts = engine.countsFor(i);
        std::uint64_t hits = 0;
        for (std::uint32_t d = 1;
             d <= geom.assoc() && d < hist.size(); ++d)
            hits += hist[d];
        EXPECT_EQ(counts.accesses - counts.misses, hits)
            << configs[i].fullName();

        std::uint64_t mass = 0;
        for (std::size_t d = 1; d < hist.size(); ++d)
            mass += hist[d];
        EXPECT_EQ(counts.accesses, mass) << configs[i].fullName();

        // cap = hist.size() - 1 = the level's largest assoc + 1.
        if (geom.assoc() + 2 == hist.size()) {
            EXPECT_EQ(hist.back(), counts.misses)
                << configs[i].fullName();
            ++largest_points;
        }
    }
    EXPECT_EQ(largest_points, engine.numLevels());
}

namespace {

/**
 * Assert every level's distanceHistogram equals one built from the
 * unbounded SetLruTracker: counted (read) references only, with
 * distances at or beyond cap and first touches (infinite distance)
 * pooled in hist[cap].
 */
void
expectHistogramsMatchTracker(const std::vector<CacheConfig> &configs,
                             const VectorTrace &trace)
{
    SinglePassEngine engine(configs);
    engine.processTrace(trace);
    const std::uint32_t block_bits = floorLog2(engine.blockSize());
    ASSERT_GT(engine.numLevels(), 1u);

    for (std::size_t l = 0; l < engine.numLevels(); ++l) {
        const std::uint32_t sets = engine.levelSets(l);
        const auto &hist = engine.distanceHistogram(sets);
        const std::uint64_t cap = hist.size() - 1;

        SetLruTracker tracker(sets);
        std::vector<std::uint64_t> want(hist.size(), 0);
        for (const MemRef &ref : trace.refs()) {
            const std::uint64_t d = tracker.touch(ref.addr >> block_bits);
            if (ref.isWrite())
                continue;
            ++want[d == SetLruTracker::kFirstTouch ? cap
                                                   : std::min(d, cap)];
        }
        EXPECT_EQ(hist, want) << sets << " sets";
    }
}

} // namespace

TEST(SinglePassEngine, HistogramsMatchUnboundedTrackerOnAdversarial)
{
    expectHistogramsMatchTracker(sizeAssocGrid(16, 64, 16384, 2),
                                 adversarialTrace());
}

TEST(SinglePassEngine, HistogramsMatchUnboundedTrackerOnPdp11)
{
    const Suite suite = pdp11Suite();
    const auto trace = buildTraceShared(suite.traces.front(), 200000);
    expectHistogramsMatchTracker(
        sizeAssocGrid(8, 64, 8192, suite.profile.wordSize), *trace);
}

TEST(SinglePassEngine, DenseAndMixedLevelsMatchDirectOnly)
{
    // Per block size: a 1-set 128-way level, levels that carry LRU
    // and FIFO points side by side, and both write policies — every
    // cell must equal the forced direct engine bit for bit.
    const Suite suite = pdp11Suite();
    const auto pdp = buildTraceShared(suite.traces.front(), kRefs);
    const auto adversarial =
        std::make_shared<const VectorTrace>(adversarialTrace());
    ThreadPool pool(2);

    for (const std::uint32_t block : {4u, 16u, 64u}) {
        std::vector<CacheConfig> configs;
        for (const WritePolicy write :
             {WritePolicy::WriteThrough, WritePolicy::CopyBack}) {
            for (const ReplacementPolicy policy :
                 {ReplacementPolicy::LRU, ReplacementPolicy::FIFO}) {
                // Fully associative: one set, 128 ways.
                CacheConfig dense = makeConfig(128 * block, block,
                                               block, 2);
                dense.assoc = 128;
                dense.replacement = policy;
                dense.write = write;
                configs.push_back(dense);
                // 16 sets at 2 and 4 ways, LRU and FIFO.
                for (const std::uint32_t assoc : {2u, 4u}) {
                    CacheConfig config = makeConfig(
                        16 * assoc * block, block, block, 2);
                    config.assoc = assoc;
                    config.replacement = policy;
                    config.write = write;
                    configs.push_back(config);
                }
            }
        }
        for (const auto &trace : {pdp, adversarial}) {
            SinglePassEngine engine(configs);
            ASSERT_EQ(engine.numLevels(), 2u) << block;
            engine.processTrace(*trace);
            const auto fast = engine.results();
            const auto direct = sweepGrid({trace}, configs, &pool,
                                          SweepEngine::DirectOnly)[0];
            ASSERT_EQ(fast.size(), direct.size());
            for (std::size_t c = 0; c < direct.size(); ++c) {
                SCOPED_TRACE(configs[c].fullName() + " on " +
                             trace->name());
                expectIdentical(fast[c], direct[c]);
            }
        }
    }
}

// ---------------------------------------------------------------- //
// TouchTimeSet compaction-boundary edge cases (PR 3). The structure
// lazily drops superseded entries once the backing array reaches 64
// entries AND more than half of it is dead; these tests pin the
// behavior exactly at and around that boundary against a naive
// linear model.
// ---------------------------------------------------------------- //

namespace {

/** Transparent reference model: a plain list of live times. */
class NaiveTouchSet
{
  public:
    void insertNew(std::uint64_t t) { live_.push_back(t); }

    std::uint64_t touch(std::uint64_t prev, std::uint64_t t)
    {
        std::uint64_t deeper = 0;
        for (std::uint64_t &v : live_) {
            if (v > prev)
                ++deeper;
        }
        live_.erase(std::find(live_.begin(), live_.end(), prev));
        live_.push_back(t);
        return deeper;
    }

    std::uint64_t live() const { return live_.size(); }

  private:
    std::vector<std::uint64_t> live_;
};

} // namespace

TEST(TouchTimeSet, AgreesWithNaiveModelAcrossCompaction)
{
    // A round-robin re-touch pattern over few blocks keeps the live
    // count small while the array grows one dead entry per touch —
    // the densest compaction workload possible. Sized to cross the
    // 64-entry threshold (and subsequent ones) many times.
    for (const std::size_t blocks : {1u, 2u, 3u, 31u, 32u, 33u}) {
        TouchTimeSet fast;
        NaiveTouchSet naive;
        std::vector<std::uint64_t> last(blocks);
        std::uint64_t clock = 0;
        for (std::size_t b = 0; b < blocks; ++b) {
            last[b] = ++clock;
            fast.insertNew(clock);
            naive.insertNew(clock);
        }
        for (int round = 0; round < 600; ++round) {
            const std::size_t b = round % blocks;
            ++clock;
            const std::uint64_t got = fast.touch(last[b], clock);
            const std::uint64_t want = naive.touch(last[b], clock);
            ASSERT_EQ(got, want)
                << blocks << " blocks, round " << round;
            ASSERT_EQ(fast.live(), naive.live());
            last[b] = clock;
        }
    }
}

TEST(TouchTimeSet, RandomizedAgreesWithNaiveModel)
{
    // Interleaved inserts and random re-touches: live set drifts up
    // and down across the size-64 boundary instead of pinning it.
    Rng rng(0x70c4ull);
    TouchTimeSet fast;
    NaiveTouchSet naive;
    std::vector<std::uint64_t> last;
    std::uint64_t clock = 0;
    for (int op = 0; op < 4000; ++op) {
        if (last.empty() || rng.chance(0.125)) {
            last.push_back(++clock);
            fast.insertNew(clock);
            naive.insertNew(clock);
        } else {
            const std::size_t i = rng.below(last.size());
            ++clock;
            ASSERT_EQ(fast.touch(last[i], clock),
                      naive.touch(last[i], clock))
                << "op " << op;
            last[i] = clock;
        }
        ASSERT_EQ(fast.live(), naive.live());
    }
}

TEST(TouchTimeSet, ExactBoundaryStepAroundSixtyFour)
{
    // Walk the array size one step at a time through 63, 64, 65
    // entries with exactly half of them dead, checking the reported
    // depth at every step: compaction must never perturb ranks.
    TouchTimeSet fast;
    NaiveTouchSet naive;
    std::vector<std::uint64_t> last;
    std::uint64_t clock = 0;
    // 20 live entries, then re-touch the oldest one 60 times: array
    // length passes through every size in [21, 80] while live stays
    // 20, crossing the (>= 64 entries, > 2x live) compaction gate
    // exactly at 64 and again after each compaction.
    for (int i = 0; i < 20; ++i) {
        last.push_back(++clock);
        fast.insertNew(clock);
        naive.insertNew(clock);
    }
    for (int step = 0; step < 60; ++step) {
        // Oldest live entry: depth must always be live - 1.
        const auto oldest =
            std::min_element(last.begin(), last.end());
        ++clock;
        const std::uint64_t got = fast.touch(*oldest, clock);
        ASSERT_EQ(got, naive.touch(*oldest, clock)) << "step " << step;
        ASSERT_EQ(got, fast.live() - 1);
        *oldest = clock;
    }
}
