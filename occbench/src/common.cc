#include "common.hh"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>

namespace occbench {

void
RunOutcome::fail(const std::string &why)
{
    correct = false;
    std::printf("CHECK FAILED: %s\n", why.c_str());
}

unsigned
benchThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

double
nowSec()
{
    static const auto origin = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - origin)
        .count();
}

bool
resetPeakRss()
{
    std::FILE *clear = std::fopen("/proc/self/clear_refs", "w");
    if (clear == nullptr)
        return false;
    const bool written = std::fputs("5", clear) >= 0;
    return std::fclose(clear) == 0 && written;
}

double
peakRssMb()
{
    std::FILE *status = std::fopen("/proc/self/status", "r");
    if (status == nullptr)
        return 0.0;
    char line[256];
    unsigned long kb = 0;
    while (std::fgets(line, sizeof line, status) != nullptr) {
        if (std::sscanf(line, "VmHWM: %lu kB", &kb) == 1)
            break;
    }
    std::fclose(status);
    return static_cast<double>(kb) / 1024.0;
}

namespace {

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

} // namespace

bool
identicalResults(const occsim::SweepResult &a,
                 const occsim::SweepResult &b)
{
    const occsim::CoherencySummary &x = a.coherency;
    const occsim::CoherencySummary &y = b.coherency;
    return a.config == b.config && a.grossBytes == b.grossBytes &&
           sameBits(a.missRatio, b.missRatio) &&
           sameBits(a.warmMissRatio, b.warmMissRatio) &&
           sameBits(a.trafficRatio, b.trafficRatio) &&
           sameBits(a.warmTrafficRatio, b.warmTrafficRatio) &&
           sameBits(a.nibbleTrafficRatio, b.nibbleTrafficRatio) &&
           sameBits(a.warmNibbleTrafficRatio,
                    b.warmNibbleTrafficRatio) &&
           x.active == y.active && x.busReads == y.busReads &&
           x.busReadForOwnership == y.busReadForOwnership &&
           x.busUpgrades == y.busUpgrades &&
           x.invalidations == y.invalidations &&
           x.cacheToCacheTransfers == y.cacheToCacheTransfers &&
           x.c2cWords == y.c2cWords &&
           x.snoopWritebackWords == y.snoopWritebackWords;
}

std::uint64_t
fnv1a(const std::string &bytes, std::uint64_t seed)
{
    std::uint64_t h = seed;
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

namespace {

/** A fixed CPU-bound task: an LCG chain the compiler cannot fold. */
std::uint64_t
spin(std::uint64_t seed)
{
    std::uint64_t x = seed;
    for (int i = 0; i < 20'000'000; ++i)
        x = x * 6364136223846793005ull + 1442695040888963407ull;
    return x;
}

} // namespace

double
parallelCapacity(unsigned tasks)
{
    std::vector<std::uint64_t> sink(tasks);
    const double t0 = nowSec();
    for (unsigned i = 0; i < tasks; ++i)
        sink[i] = spin(i + 1);
    const double sequential = nowSec() - t0;

    const double t1 = nowSec();
    {
        std::vector<std::thread> threads;
        for (unsigned i = 0; i < tasks; ++i)
            threads.emplace_back([&sink, i] { sink[i] = spin(i + 7); });
        for (std::thread &thread : threads)
            thread.join();
    }
    const double concurrent = nowSec() - t1;
    std::uint64_t fold = 0;
    for (const std::uint64_t v : sink)
        fold ^= v;
    std::printf("capacity probe: %u tasks, %.3f s sequential, %.3f s "
                "concurrent (fold %llx)\n",
                tasks, sequential, concurrent,
                static_cast<unsigned long long>(fold));
    return concurrent > 0.0 ? sequential / concurrent : 0.0;
}

void
printResult(const RunOutcome &outcome)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                outcome.correct && outcome.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(outcome.attempted),
                static_cast<unsigned long long>(outcome.failed));
    for (std::size_t i = 0; i < outcome.metrics.size(); ++i) {
        const Metric &m = outcome.metrics[i];
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", m.name.c_str(), m.value,
                    m.unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

} // namespace occbench
