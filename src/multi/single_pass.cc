#include "multi/single_pass.hh"

#include <algorithm>

#include "cache/cache_geometry.hh"
#include "obs/telemetry.hh"
#include "util/logging.hh"

namespace occsim {

namespace {

/** FIFO ring sentinel: no block (block addresses have at least one
 *  high zero bit since blockSize >= 2). */
constexpr Addr kEmptyFrame = ~Addr(0);

/**
 * Touch @p block in one set's MRU-first stack of @p depth slots, of
 * which @p occupied are live: move it to the front, or insert it
 * there on a miss, evicting the LRU entry when the stack is full.
 * @return the 1-based LRU stack distance, or 0 when the block was
 *         not among the live entries.
 */
inline std::uint32_t
touchMruStack(Addr *stack, std::uint32_t &occupied, std::uint32_t depth,
              Addr block)
{
    std::uint32_t p = 0;
    while (p < occupied && stack[p] != block)
        ++p;
    const std::uint32_t distance = p < occupied ? p + 1 : 0;
    if (distance == 0) {
        if (occupied < depth)
            ++occupied;
        p = occupied - 1;
    }
    for (; p > 0; --p)
        stack[p] = stack[p - 1];
    stack[0] = block;
    return distance;
}

} // namespace

/**
 * A grid point's pass state, owned by the task running its level:
 * running totals plus per-set replacement state. The totals are
 * published to the level's GridPoint when the pass ends.
 */
struct SinglePassEngine::PointPass
{
    GridPoint point;
    /** LRU points: per-set fill count, saturated at assoc — a miss is
     *  cold while its set still has never-filled frames. */
    std::vector<std::uint32_t> fills;
    /** FIFO points: resident block address per frame (set-major,
     *  kEmptyFrame when never filled). FIFO has no stack inclusion,
     *  so each point simulates its own residency. */
    std::vector<Addr> ring;
    /** FIFO points: per-set fill sequence number. The frame filled by
     *  the n-th miss of a set is n % assoc — first-invalid-way fills
     *  followed by round-robin FIFO victims, exactly the direct
     *  Cache's order — and the miss is cold iff n < assoc. */
    std::vector<std::uint64_t> fillSeq;
};

bool
singlePassEligible(const CacheConfig &config)
{
    return (config.replacement == ReplacementPolicy::LRU ||
            config.replacement == ReplacementPolicy::FIFO) &&
           config.fetch == FetchPolicy::Demand &&
           config.subBlockSize == config.blockSize &&
           config.writeAllocate &&
           config.partition == CachePartition::Unified;
}

SinglePassEngine::SinglePassEngine(
    const std::vector<CacheConfig> &configs)
    : configs_(configs)
{
    occsim_assert(!configs_.empty(),
                  "engine needs at least one config");
    blockBits_ = floorLog2(configs_.front().blockSize);
    configPoint_.reserve(configs_.size());

    for (const CacheConfig &config : configs_) {
        occsim_assert(singlePassEligible(config),
                      "config %s is not single-pass eligible",
                      config.shortName().c_str());
        occsim_assert(config.blockSize == configs_.front().blockSize,
                      "engine configs must share one block size");
        const CacheGeometry geom(config);
        const std::uint32_t sets = geom.numSets();
        const std::uint32_t assoc = geom.assoc();
        const ReplacementPolicy policy = config.replacement;

        std::size_t li = levels_.size();
        for (std::size_t l = 0; l < levels_.size(); ++l) {
            if (levels_[l].numSets == sets) {
                li = l;
                break;
            }
        }
        if (li == levels_.size())
            levels_.emplace_back(sets);
        Level &lv = levels_[li];

        std::size_t pi = lv.points.size();
        for (std::size_t p = 0; p < lv.points.size(); ++p) {
            if (lv.points[p].assoc == assoc &&
                lv.points[p].policy == policy) {
                pi = p;
                break;
            }
        }
        if (pi == lv.points.size()) {
            lv.points.push_back(GridPoint{assoc, policy});
            lv.hasFifo |= policy == ReplacementPolicy::FIFO;
        }
        configPoint_.emplace_back(li, pi);
    }

    for (Level &lv : levels_) {
        std::uint32_t min_assoc = ~0u;
        std::uint32_t max_assoc = 0;
        for (const GridPoint &p : lv.points) {
            min_assoc = std::min(min_assoc, p.assoc);
            max_assoc = std::max(max_assoc, p.assoc);
        }
        lv.minAssoc = min_assoc;
        lv.cap = max_assoc + 1;
        lv.hist.assign(lv.cap + 1, 0);
    }
}

std::uint32_t
SinglePassEngine::levelSets(std::size_t level) const
{
    occsim_assert(level < levels_.size(), "level out of range");
    return levels_[level].numSets;
}

std::uint64_t
SinglePassEngine::runLevel(std::size_t level, const VectorTrace &trace,
                          std::uint64_t max_refs)
{
    occsim_assert(level < levels_.size(), "level out of range");
    OCCSIM_TELEM_STAGE("engine.single_pass");
    Level &lv = levels_[level];
    occsim_assert(!lv.ran, "level %zu already ran", level);
    const std::vector<MemRef> &refs = trace.refs();
    const std::uint64_t limit =
        max_refs == 0
            ? refs.size()
            : std::min<std::uint64_t>(max_refs, refs.size());
    const std::uint32_t block_bits = blockBits_;
    const Addr set_mask = lv.numSets - 1;
    const std::uint32_t depth = lv.cap - 1;
    const std::uint32_t cap = lv.cap;
    const std::uint32_t min_assoc = lv.minAssoc;
    const bool has_fifo = lv.hasFifo;

    // Everything the pass writes is allocated here, on the task's own
    // thread, and published to lv only after the last reference.
    const std::size_t num_sets = lv.numSets;
    std::vector<Addr> stack(num_sets * depth, 0);
    std::vector<std::uint32_t> occupancy(num_sets, 0);
    std::vector<std::uint64_t> hist(cap + 1, 0);
    std::vector<PointPass> points(lv.points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        PointPass &p = points[i];
        p.point = lv.points[i];
        if (p.point.policy == ReplacementPolicy::FIFO) {
            p.ring.assign(num_sets * p.point.assoc, kEmptyFrame);
            p.fillSeq.assign(num_sets, 0);
        } else {
            p.fills.assign(num_sets, 0);
        }
    }
    std::uint64_t counted = 0;
    std::uint64_t ifetches = 0;
    std::uint64_t writes = 0;

    for (std::uint64_t r = 0; r < limit; ++r) {
        const MemRef &ref = refs[r];
        const Addr block = ref.addr >> block_bits;
        const bool is_write = ref.isWrite();
        const bool is_ifetch = ref.isInstruction();
        const auto set = static_cast<std::uint32_t>(block & set_mask);

        // d in [1, cap]: cap means "deeper than every associativity
        // of this level" (a deep reuse or a first touch), a miss at
        // every point.
        std::uint32_t d =
            touchMruStack(stack.data() + std::size_t{set} * depth,
                          occupancy[set], depth, block);
        if (d == 0)
            d = cap;

        if (!is_write) {
            ++counted;
            if (is_ifetch)
                ++ifetches;
            ++hist[d];
        } else {
            ++writes;
        }

        // FIFO points can miss at any LRU distance, so the level-wide
        // shortcut only applies to pure-LRU levels.
        if (!has_fifo && d <= min_assoc)
            continue;  // hit at every grid point of this level

        for (PointPass &pass : points) {
            GridPoint &p = pass.point;
            // A miss is cold exactly while its set still has
            // never-filled frames: invalid ways are filled before the
            // replacement victim, and both read and write misses
            // allocate (write-allocate is an eligibility condition),
            // so the first `assoc` misses of a set each claim a fresh
            // frame. Only counted (read) misses are charged as cold
            // in the stats, matching Cache exactly.
            bool cold = false;
            if (p.policy == ReplacementPolicy::FIFO) {
                // No inclusion property: probe this point's own
                // resident ring for the set.
                Addr *ways =
                    pass.ring.data() + std::size_t{set} * p.assoc;
                bool hit = false;
                for (std::uint32_t w = 0; w < p.assoc; ++w) {
                    if (ways[w] == block) {
                        hit = true;
                        break;
                    }
                }
                if (hit)
                    continue;
                // The n-th miss of a set fills frame n % assoc: the
                // first assoc misses claim the invalid ways in order,
                // then onFill's move-to-back makes the FIFO victim
                // walk the ways round-robin from way 0 — the direct
                // Cache's exact sequence.
                std::uint64_t &seq = pass.fillSeq[set];
                ways[seq % p.assoc] = block;
                cold = seq < p.assoc;
                ++seq;
            } else {
                if (d <= p.assoc)
                    continue;  // hit at this associativity
                std::uint32_t &filled = pass.fills[set];
                if (filled < p.assoc) {
                    ++filled;
                    cold = true;
                }
            }
            if (is_write) {
                ++p.writeMisses;
            } else {
                ++p.misses;
                if (is_ifetch)
                    ++p.ifetchMisses;
                if (cold)
                    ++p.coldMisses;
            }
        }
    }

    // Publish: the only writes this task makes to shared state.
    for (std::size_t i = 0; i < points.size(); ++i)
        lv.points[i] = points[i].point;
    lv.hist = std::move(hist);
    lv.refs = limit;
    lv.counted = counted;
    lv.ifetches = ifetches;
    lv.writes = writes;
    lv.ran = true;
    OCCSIM_TELEM_COUNT("engine.single_pass.refs",
                       limit * lv.points.size());
    OCCSIM_TELEM_COUNT("engine.single_pass.bytes",
                       limit * sizeof(MemRef));
    return limit;
}

std::uint64_t
SinglePassEngine::processTrace(const VectorTrace &trace,
                               std::uint64_t max_refs)
{
    std::uint64_t consumed = 0;
    for (std::size_t l = 0; l < levels_.size(); ++l)
        consumed = runLevel(l, trace, max_refs);
    return consumed;
}

std::vector<SweepResult>
SinglePassEngine::results() const
{
    for (const Level &lv : levels_) {
        occsim_assert(lv.refs == levels_.front().refs,
                      "levels observed different reference counts");
    }
    std::vector<SweepResult> out;
    out.reserve(configs_.size());
    for (std::size_t i = 0; i < configs_.size(); ++i) {
        const CacheConfig &config = configs_[i];
        const auto [li, pi] = configPoint_[i];
        const Level &lv = levels_[li];
        const GridPoint &p = lv.points[pi];
        const CacheGeometry geom(config);
        const std::uint32_t words = geom.wordsPerSubBlock();
        CacheStats stats(geom.subBlocksPerBlock(),
                         geom.subBlocksPerBlock() * words);
        stats.loadDemandRun(lv.counted, lv.ifetches, p.misses,
                            p.ifetchMisses, p.coldMisses, lv.writes,
                            p.writeMisses,
                            config.write == WritePolicy::WriteThrough,
                            words);
        out.push_back(summarizeStats(config, geom.grossBytes(), stats));
    }
    return out;
}

SinglePassEngine::Counts
SinglePassEngine::countsFor(std::size_t config_index) const
{
    occsim_assert(config_index < configs_.size(),
                  "config index out of range");
    const auto [li, pi] = configPoint_[config_index];
    const Level &lv = levels_[li];
    const GridPoint &p = lv.points[pi];
    Counts counts;
    counts.accesses = lv.counted;
    counts.misses = p.misses;
    counts.coldMisses = p.coldMisses;
    counts.ifetchAccesses = lv.ifetches;
    counts.ifetchMisses = p.ifetchMisses;
    counts.writeAccesses = lv.writes;
    counts.writeMisses = p.writeMisses;
    return counts;
}

const std::vector<std::uint64_t> &
SinglePassEngine::distanceHistogram(std::uint32_t num_sets) const
{
    for (const Level &lv : levels_) {
        if (lv.numSets == num_sets)
            return lv.hist;
    }
    panic("no level with %u sets in this engine", num_sets);
}

std::uint64_t
SinglePassEngine::refs() const
{
    return levels_.front().refs;
}

} // namespace occsim
