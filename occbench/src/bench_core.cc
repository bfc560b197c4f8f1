#include "bench_core.hh"

#include <algorithm>
#include <cmath>

namespace occbench {

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

namespace {

/** Zero-based nearest-rank index of quantile @p q among @p n. */
std::size_t
rankIndex(std::size_t n, double q)
{
    const auto rank =
        static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
    return std::clamp<std::size_t>(rank, 1, n) - 1;
}

} // namespace

double
nearestRank(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    return values[rankIndex(values.size(), q)];
}

TailPercentile
tailPercentile(std::vector<double> values, double q,
               std::size_t min_beyond)
{
    TailPercentile tail;
    tail.samples = values.size();
    if (values.empty())
        return tail;
    std::sort(values.begin(), values.end());
    const std::size_t k = rankIndex(values.size(), q);
    tail.value = values[k];
    tail.beyond = values.size() - 1 - k;
    tail.reportable = tail.beyond >= min_beyond;
    return tail;
}

double
openLoopLatencyMs(const OpenLoopSample &sample)
{
    return (sample.done - sample.due) * 1e3;
}

double
generatorLateMs(const OpenLoopSample &sample)
{
    return std::max(0.0, (sample.sent - sample.due) * 1e3);
}

std::map<std::string, std::vector<std::size_t>>
routeSubgrids(const std::vector<occsim::obs::ConfigRoute> &routes)
{
    std::map<std::string, std::vector<std::size_t>> out;
    for (std::size_t c = 0; c < routes.size(); ++c)
        out[routes[c].engine].push_back(c);
    return out;
}

double
nsPerCfgRef(double seconds, double cfg_refs)
{
    return cfg_refs > 0.0 ? seconds * 1e9 / cfg_refs : 0.0;
}

} // namespace occbench
