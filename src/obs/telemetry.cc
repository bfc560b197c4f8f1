#include "obs/telemetry.hh"

#include <algorithm>
#include <unordered_map>

#include "obs/manifest.hh"

namespace occsim::obs {

namespace {

/** Global fast-path flag mirroring telemetry().enabled(). */
std::atomic<bool> g_enabled{false};

std::atomic<std::uint64_t> g_nextTelemetryId{1};

/** Anchors the manifest TU (and its OCCSIM_MANIFEST environment
 *  hook) into every binary that links any instrumentation — static
 *  archives drop unreferenced TUs otherwise. */
[[maybe_unused]] const bool g_manifestHooked = manifestEnvHook();

} // namespace

/** Per-thread recording buffer. The owning thread is the only
 *  writer; the sink mutex makes merges (snapshots from another
 *  thread) safe. */
struct Telemetry::Sink
{
    struct StageAgg
    {
        std::uint64_t calls = 0;
        std::uint64_t ns = 0;
        std::uint64_t cpuNs = 0;
    };

    std::mutex mutex;
    std::unordered_map<std::string, std::uint64_t> counters;
    std::unordered_map<std::string, StageAgg> stages;
};

namespace {

/** Thread-local sink directory: one entry per Telemetry instance
 *  this thread has recorded into. Entries for dead instances are
 *  harmless — ids are process-unique, so they can never match a new
 *  registry. */
struct SinkRef
{
    std::uint64_t id;
    Telemetry::Sink *sink;
};

thread_local std::vector<SinkRef> t_sinks;

} // namespace

Telemetry::Telemetry()
    : id_(g_nextTelemetryId.fetch_add(1, std::memory_order_relaxed))
{
}

Telemetry::~Telemetry() = default;

Telemetry::Sink &
Telemetry::localSink()
{
    for (const SinkRef &ref : t_sinks) {
        if (ref.id == id_)
            return *ref.sink;
    }
    auto sink = std::make_unique<Sink>();
    Sink *raw = sink.get();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        sinks_.push_back(std::move(sink));
    }
    t_sinks.push_back(SinkRef{id_, raw});
    return *raw;
}

void
Telemetry::counterAdd(std::string_view name, std::uint64_t delta)
{
    Sink &sink = localSink();
    std::lock_guard<std::mutex> lock(sink.mutex);
    sink.counters[std::string(name)] += delta;
}

void
Telemetry::stageAdd(std::string_view name, std::uint64_t ns,
                    std::uint64_t cpu_ns)
{
    Sink &sink = localSink();
    std::lock_guard<std::mutex> lock(sink.mutex);
    Sink::StageAgg &agg = sink.stages[std::string(name)];
    agg.calls += 1;
    agg.ns += ns;
    agg.cpuNs += cpu_ns;
}

std::vector<CounterSnapshot>
Telemetry::counters() const
{
    std::unordered_map<std::string, std::uint64_t> merged;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &sink : sinks_) {
            std::lock_guard<std::mutex> sink_lock(sink->mutex);
            for (const auto &[name, value] : sink->counters)
                merged[name] += value;
        }
    }
    std::vector<CounterSnapshot> out;
    out.reserve(merged.size());
    for (const auto &[name, value] : merged)
        out.push_back(CounterSnapshot{name, value});
    std::sort(out.begin(), out.end(),
              [](const CounterSnapshot &a, const CounterSnapshot &b) {
                  return a.name < b.name;
              });
    return out;
}

std::vector<StageSnapshot>
Telemetry::stages() const
{
    std::unordered_map<std::string, Sink::StageAgg> merged;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &sink : sinks_) {
            std::lock_guard<std::mutex> sink_lock(sink->mutex);
            for (const auto &[name, agg] : sink->stages) {
                Sink::StageAgg &into = merged[name];
                into.calls += agg.calls;
                into.ns += agg.ns;
                into.cpuNs += agg.cpuNs;
            }
        }
    }
    std::vector<StageSnapshot> out;
    out.reserve(merged.size());
    for (const auto &[name, agg] : merged) {
        out.push_back(StageSnapshot{
            name, agg.calls, static_cast<double>(agg.ns) / 1e6,
            static_cast<double>(agg.cpuNs) / 1e6});
    }
    std::sort(out.begin(), out.end(),
              [](const StageSnapshot &a, const StageSnapshot &b) {
                  return a.name < b.name;
              });
    return out;
}

void
Telemetry::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &sink : sinks_) {
        std::lock_guard<std::mutex> sink_lock(sink->mutex);
        sink->counters.clear();
        sink->stages.clear();
    }
}

Telemetry &
telemetry()
{
    // Never destroyed: worker threads and atexit manifest emission
    // may record/snapshot after main() returns.
    static Telemetry *global = new Telemetry();
    return *global;
}

bool
telemetryEnabled()
{
    return g_enabled.load(std::memory_order_relaxed);
}

void
setTelemetryEnabled(bool enabled)
{
    telemetry().setEnabled(enabled);
    g_enabled.store(enabled, std::memory_order_relaxed);
}

} // namespace occsim::obs
