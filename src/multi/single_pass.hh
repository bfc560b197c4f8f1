/**
 * @file
 * Single-pass multi-configuration sweep engine (generalized stack
 * simulation).
 *
 * The paper chose LRU precisely because "LRU permits more efficient
 * simulation" (Mattson et al., reference [16]): one pass over a trace
 * can price every cache size at once. This engine generalizes that
 * observation to the full (net size, associativity) grid of a sweep
 * at a fixed block size, for configurations where the Cache model is
 * a pure per-set LRU stack:
 *
 *     LRU replacement + demand fetch + sub-block == block
 *     + write-allocate
 *
 * FIFO replacement under the same fetch/write conditions also rides
 * the engine: FIFO has no stack-inclusion property, so each FIFO grid
 * point simulates its own per-set residency ring during the same
 * trace pass (one tag scan per reference) instead of sharing the
 * distance computation — still one pass per set count for the whole
 * grid.
 *
 * Under those conditions a reference hits a cache with S sets and
 * associativity A exactly when fewer than A distinct blocks of its
 * set have been touched since its own last touch (the per-set LRU
 * stack-distance inclusion property), and the miss is a cold miss
 * exactly when it is among the first A fills of its set. Both facts
 * are config-independent functions of the reference stream, so ONE
 * pass per set count yields exact cold-start and warm-start miss
 * counts — and, because demand fetch moves exactly one block per
 * miss and write-through stores exactly one word per write, the
 * paper's traffic metrics — for every grid point at once.
 *
 * Set refinement ties the grid together: the set index for S sets is
 * a suffix of the index for 2S sets (block & (S-1)), so every level
 * shares the same block stream and differs only in how many index
 * bits it keeps.
 *
 * A level never needs exact stack depths: it only compares the
 * distance d against its own associativities, the largest of which
 * is A_max, and pools everything deeper. So each level keeps just the
 * top A_max entries of every set's LRU stack — one contiguous
 * set-major array of block addresses, MRU first, which is exactly the
 * content of an A_max-way LRU cache. A hit at stack position p gives
 * d = p + 1; a miss means d > A_max, a miss at every grid point,
 * which the histogram pools in hist[A_max + 1] whether it is a deep
 * reuse or a first touch (Mattson's "infinite distance"). The scan
 * touches at most A_max adjacent words, and there is no per-block
 * hash probe or tree update anywhere. (Mattson analyzers that need
 * unbounded distances use SetLruTracker, stack_analyzer.hh.)
 *
 * Each level is one task that owns its mutable state outright: the
 * constructor only plans levels and grid points, and runLevel
 * allocates the MRU stack, FIFO rings and fill counts on its own
 * thread, keeps every counter and the histogram in locals, and
 * publishes the totals to its Level once, at the end. Concurrently
 * running levels therefore never write a shared cache line per
 * reference, so level tasks scale with the pool.
 *
 * Results are bit-identical to direct Cache simulation: the engine's
 * totals are loaded into a CacheStats (CacheStats::loadDemandRun)
 * and summarized through the very same derived-metric code paths
 * (summarizeStats) the direct engines use.
 */

#ifndef OCCSIM_MULTI_SINGLE_PASS_HH
#define OCCSIM_MULTI_SINGLE_PASS_HH

#include <cstdint>
#include <vector>

#include "multi/sweep_runner.hh"
#include "trace/trace.hh"
#include "util/bitops.hh"

namespace occsim {

/**
 * @return true when @p config can be priced by the single-pass
 * engine: LRU or FIFO replacement + demand fetch + sub-block == block
 * + write-allocate. (The write policy is free: SweepResult metrics
 * count reads only, and tag/replacement state is write-policy
 * independent.) LRU points share the stack-distance machinery; FIFO
 * has no inclusion property, so FIFO points each carry their own
 * per-set resident rings, but still ride the same trace pass.
 */
bool singlePassEligible(const CacheConfig &config);

/**
 * The single-pass sweep engine. Construction takes the configs of
 * one sweep — all singlePassEligible and sharing one block size —
 * and groups them into LEVELS, one per distinct (effective) set
 * count; each level holds one grid POINT per distinct (set count,
 * effective associativity) pair. One pass over a trace per level
 * produces exact counted miss, cold-miss, write-miss and traffic
 * totals for every point at once.
 *
 * Levels are fully independent: runLevel builds a level's stacks,
 * rings and counters on the calling thread and writes the level's
 * totals once when it returns, so callers may run distinct levels
 * concurrently — runLevel(i, trace) from one task per level — or
 * call processTrace for the sequential all-levels convenience. Each
 * level must see the trace exactly once.
 *
 * Exactness caveat: eviction-side bookkeeping that SweepResult does
 * not consume (residency histograms, copy-back write-back traffic)
 * is not modelled; write-through store traffic and all read-side
 * metrics are exact.
 */
class SinglePassEngine
{
  public:
    /** Raw per-config totals (for tests and instrumentation). */
    struct Counts
    {
        std::uint64_t accesses = 0;       ///< counted (read) refs
        std::uint64_t misses = 0;         ///< counted misses
        std::uint64_t coldMisses = 0;     ///< counted cold misses
        std::uint64_t ifetchAccesses = 0;
        std::uint64_t ifetchMisses = 0;
        std::uint64_t writeAccesses = 0;
        std::uint64_t writeMisses = 0;
    };

    /**
     * @param configs the sweep's fast-path configs; all must satisfy
     * singlePassEligible and share one block size.
     */
    explicit SinglePassEngine(const std::vector<CacheConfig> &configs);

    std::size_t size() const { return configs_.size(); }
    std::uint32_t blockSize() const { return 1u << blockBits_; }

    /** Number of set-count levels (independent trace passes). */
    std::size_t numLevels() const { return levels_.size(); }

    /** Set count of level @p level. */
    std::uint32_t levelSets(std::size_t level) const;

    /**
     * Drive level @p level over @p trace (up to @p max_refs refs,
     * 0 = all). The pass runs on task-local state and publishes the
     * level's totals once, on return; distinct levels may run
     * concurrently. A level can only be run once.
     * @return references consumed.
     */
    std::uint64_t runLevel(std::size_t level, const VectorTrace &trace,
                           std::uint64_t max_refs = 0);

    /** Run every level sequentially (convenience). */
    std::uint64_t processTrace(const VectorTrace &trace,
                               std::uint64_t max_refs = 0);

    /**
     * Summaries in config order, bit-identical to direct Cache
     * simulation of each config over the same references. Requires
     * every level to have run over the same trace.
     */
    std::vector<SweepResult> results() const;

    /** Raw totals for config @p config_index (tests). */
    Counts countsFor(std::size_t config_index) const;

    /**
     * Counted-reference LRU stack-distance histogram of the level
     * with @p num_sets sets: hist[d] = counted refs at per-set
     * distance d, for d in [1, cap); hist[cap] pools every counted
     * ref that misses the level's bounded stack — deeper reuses and
     * first touches alike (Mattson's infinite distance) — where
     * cap = max associativity of the level + 1, so it equals the
     * misses of the level's largest-associativity LRU point.
     * hist[0] is unused; the buckets sum to the counted refs.
     */
    const std::vector<std::uint64_t> &
    distanceHistogram(std::uint32_t num_sets) const;

    /** References consumed per level (0 before running). */
    std::uint64_t refs() const;

  private:
    /** One (set count, associativity, replacement) grid point and
     *  its published totals. */
    struct GridPoint
    {
        std::uint32_t assoc = 0;
        ReplacementPolicy policy = ReplacementPolicy::LRU;
        std::uint64_t misses = 0;        ///< counted misses
        std::uint64_t coldMisses = 0;    ///< counted cold misses
        std::uint64_t ifetchMisses = 0;
        std::uint64_t writeMisses = 0;
    };

    /**
     * One set count: its plan (geometry and grid points) plus the
     * totals runLevel publishes when the level's pass ends. No field
     * is written during the pass, so adjacent levels never share a
     * written cache line while their tasks run.
     */
    struct Level
    {
        std::uint32_t numSets = 0;
        std::uint32_t minAssoc = 0;  ///< fast hit-everywhere cutoff
        bool hasFifo = false;  ///< disables the min-assoc shortcut
        std::uint32_t cap = 0;       ///< max assoc + 1: pooling depth
        bool ran = false;
        std::vector<GridPoint> points;
        std::vector<std::uint64_t> hist;
        std::uint64_t refs = 0;
        std::uint64_t counted = 0;
        std::uint64_t ifetches = 0;
        std::uint64_t writes = 0;

        explicit Level(std::uint32_t num_sets) : numSets(num_sets) {}
    };

    /** A point's task-local pass state (single_pass.cc). */
    struct PointPass;

    std::vector<CacheConfig> configs_;
    std::uint32_t blockBits_;
    std::vector<Level> levels_;
    /** Per config: (level index, point index). */
    std::vector<std::pair<std::size_t, std::size_t>> configPoint_;
};

} // namespace occsim

#endif // OCCSIM_MULTI_SINGLE_PASS_HH
