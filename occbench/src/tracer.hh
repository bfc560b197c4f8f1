/**
 * @file
 * In-memory span tracer for the traced benchmark run.
 *
 * The benchmark times calls into occsim's public functions from its
 * own code, so nothing under src/ carries a hook. A span records its
 * name, start, end, parent span and request id; spans stay in memory
 * while the run measures and are written out once at exit. Self time
 * is a span's duration minus the union of its children's intervals.
 */

#ifndef OCCBENCH_TRACER_HH
#define OCCBENCH_TRACER_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace occbench {

/** Monotonic clock in nanoseconds. */
std::int64_t nowNs();

/** One closed span. Times are nowNs() readings. */
struct Span
{
    std::string name;
    std::int64_t start = 0;
    std::int64_t end = 0;
    std::int64_t parent = -1;    ///< index into the span list, -1 = root
    std::uint64_t request = 0;   ///< request id, 0 = none

    double durationMs() const { return (end - start) / 1e6; }
};

/**
 * Self time of every span in @p spans, in ns: its duration minus the
 * union of its children's intervals, each clipped to the parent (so
 * overlapping children on other threads are not subtracted twice).
 */
std::vector<std::int64_t> selfTimesNs(const std::vector<Span> &spans);

class Tracer
{
  public:
    /** RAII span: opened on construction, closed on destruction. A
     *  null tracer makes it a no-op, so untraced runs pay one branch.
     *  The parent is the innermost open scope on this thread. */
    class Scope
    {
      public:
        Scope(Tracer *tracer, const char *name,
              std::uint64_t request = 0);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer *tracer_;
        std::int64_t index_ = -1;
        std::int64_t saved_parent_ = -1;
    };

    /** Record a closed span directly (e.g. one timed across threads
     *  or reconstructed from client-side timestamps). @return its
     *  index, usable as a parent. */
    std::int64_t record(Span span);

    /** Copy of every span recorded so far. */
    std::vector<Span> spans() const;

    /** Write every span as one JSON object per line. */
    bool writeJsonLines(const std::string &path) const;

  private:
    std::int64_t open(const char *name, std::int64_t parent,
                      std::uint64_t request);
    void close(std::int64_t index);

    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

} // namespace occbench

#endif // OCCBENCH_TRACER_HH
