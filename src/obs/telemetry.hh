/**
 * @file
 * Engine telemetry: named monotonic counters and stage spans (wall
 * time and the recording thread's CPU time), recorded through
 * per-thread sinks and merged on snapshot.
 *
 * Design constraints (see DESIGN.md §11):
 *
 *  - Near-zero cost when disabled: every hook first performs one
 *    relaxed atomic load (telemetryEnabled()) and returns. Hooks are
 *    placed at STAGE granularity (one per tile / level / sweep, never
 *    per reference), so even the enabled path is far below 1% of any
 *    engine's runtime.
 *  - Thread-safe without contention: each worker thread records into
 *    its own sink (registered once per (thread, Telemetry) pair);
 *    sinks are merged under their own short-lived locks only when a
 *    snapshot is taken.
 *  - Compiled out entirely when OCCSIM_NO_TELEMETRY is defined: the
 *    OCCSIM_TELEM_* macros expand to nothing (bench_obs quantifies
 *    all three regimes).
 *
 * The global telemetry() instance is what the engine hooks feed and
 * what RunManifest snapshots; tests and embedders can also construct
 * private Telemetry instances and record into them directly (e.g.
 * through SweepRequest::telemetry).
 */

#ifndef OCCSIM_OBS_TELEMETRY_HH
#define OCCSIM_OBS_TELEMETRY_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace occsim::obs {

/** One merged counter value. */
struct CounterSnapshot
{
    std::string name;
    std::uint64_t value = 0;
};

/** One merged stage span: invocation count + accumulated wall time
 *  and thread CPU time, both summed across threads (so concurrent
 *  stages can exceed the process wall clock). Wall well above CPU
 *  means the span's thread waited or was time-sliced off its core;
 *  CPU time that grows with the thread count at a fixed amount of
 *  work means slower in-core execution (e.g. cache-line sharing). */
struct StageSnapshot
{
    std::string name;
    std::uint64_t calls = 0;
    double wallMs = 0.0;
    double cpuMs = 0.0;  ///< CLOCK_THREAD_CPUTIME_ID of the spans
};

/** Registry of named monotonic counters and stage spans. */
class Telemetry
{
  public:
    /** Per-thread recording buffer (implementation detail, public
     *  only so the thread-local sink directory can name it). */
    struct Sink;

    Telemetry();
    ~Telemetry();

    Telemetry(const Telemetry &) = delete;
    Telemetry &operator=(const Telemetry &) = delete;

    bool enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }
    void setEnabled(bool enabled)
    {
        enabled_.store(enabled, std::memory_order_relaxed);
    }

    /** Add @p delta to counter @p name (creates it at zero). */
    void counterAdd(std::string_view name, std::uint64_t delta);

    /** Record one invocation of stage @p name lasting @p ns of wall
     *  time and @p cpu_ns of the recording thread's CPU time. */
    void stageAdd(std::string_view name, std::uint64_t ns,
                  std::uint64_t cpu_ns = 0);

    /** Merge every per-thread sink into one sorted-by-name list. */
    std::vector<CounterSnapshot> counters() const;
    std::vector<StageSnapshot> stages() const;

    /** Zero every counter and stage (benchmarks and tests). */
    void reset();

  private:
    Sink &localSink();

    /** Process-unique instance id, so thread-local sink lookups can
     *  never alias a dead Telemetry re-allocated at the same
     *  address. */
    std::uint64_t id_;
    std::atomic<bool> enabled_{true};
    mutable std::mutex mutex_;  ///< guards sinks_
    std::vector<std::unique_ptr<Sink>> sinks_;
};

/** The process-wide telemetry registry fed by the engine hooks.
 *  Starts DISABLED; enabled by setManifestPath() (including the
 *  OCCSIM_MANIFEST environment hook) or explicitly. */
Telemetry &telemetry();

/** Fast global-enable check for instrumentation sites: one relaxed
 *  atomic load, no function-local-static guard. */
bool telemetryEnabled();

/** Enable/disable the global registry (and the fast flag). */
void setTelemetryEnabled(bool enabled);

/** Hook form of Telemetry::counterAdd on the global registry: no-op
 *  unless telemetryEnabled(). */
inline void counterAdd(std::string_view name, std::uint64_t delta);

/** CPU time the calling thread has consumed, in ns. */
inline std::uint64_t
threadCpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000u +
           static_cast<std::uint64_t>(ts.tv_nsec);
}

/**
 * RAII span: steady-clock wall time plus the thread's CPU time.
 * Records into @p sink (or the global registry when null) on
 * destruction; when constructed against the global registry while
 * telemetry is disabled it arms nothing and costs one atomic load.
 * An explicit sink records unconditionally.
 */
class StageTimer
{
  public:
    explicit StageTimer(const char *stage, Telemetry *sink = nullptr)
        : stage_(stage), sink_(sink),
          armed_(sink != nullptr || telemetryEnabled())
    {
        if (armed_) {
            start_ = std::chrono::steady_clock::now();
            startCpuNs_ = threadCpuNs();
        }
    }

    ~StageTimer() { stop(); }

    StageTimer(const StageTimer &) = delete;
    StageTimer &operator=(const StageTimer &) = delete;

    /** End the span early (idempotent). */
    void stop()
    {
        if (!armed_)
            return;
        armed_ = false;
        const std::uint64_t cpu_ns = threadCpuNs() - startCpuNs_;
        const auto ns =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - start_)
                .count();
        Telemetry &target = sink_ != nullptr ? *sink_ : telemetry();
        target.stageAdd(stage_, static_cast<std::uint64_t>(ns), cpu_ns);
    }

  private:
    const char *stage_;
    Telemetry *sink_;
    bool armed_;
    std::chrono::steady_clock::time_point start_;
    std::uint64_t startCpuNs_ = 0;
};

inline void
counterAdd(std::string_view name, std::uint64_t delta)
{
    if (telemetryEnabled())
        telemetry().counterAdd(name, delta);
}

// Instrumentation macros: stage-granularity hooks that disappear
// when OCCSIM_NO_TELEMETRY is defined (bench_obs's compiled-out
// regime) and cost one relaxed load when compiled in but disabled.
#if defined(OCCSIM_NO_TELEMETRY)
#define OCCSIM_TELEM_STAGE(name) \
    do {                         \
    } while (0)
#define OCCSIM_TELEM_COUNT(name, delta) \
    do {                                \
    } while (0)
#else
#define OCCSIM_TELEM_CONCAT2(a, b) a##b
#define OCCSIM_TELEM_CONCAT(a, b) OCCSIM_TELEM_CONCAT2(a, b)
/** Time the rest of the enclosing scope as stage @p name. */
#define OCCSIM_TELEM_STAGE(name)                 \
    ::occsim::obs::StageTimer OCCSIM_TELEM_CONCAT( \
        occsim_stage_timer_, __LINE__)(name)
/** Bump global counter @p name by @p delta. */
#define OCCSIM_TELEM_COUNT(name, delta) \
    ::occsim::obs::counterAdd((name), (delta))
#endif

} // namespace occsim::obs

#endif // OCCSIM_OBS_TELEMETRY_HH
