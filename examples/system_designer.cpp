/**
 * @file
 * system_designer: the paper's metrics turned into system-level
 * answers. Given technology timings (cache access, memory first/next
 * word — Section 3.2's t_eff model, Section 4.3's nibble-mode
 * figures) this example sweeps the design grid on one architecture
 * suite and reports, for each design point:
 *
 *  - effective access time t_eff = t_cache(1-m) + t_mem*m;
 *  - how many processors a shared bus can carry before saturating
 *    (the multiprocessor motivation from the paper's introduction).
 *
 * Then it prints the winners under two design regimes: latency-first
 * (mainframe-like, pick min t_eff) and bus-first (multi-micro, pick
 * max processors subject to reasonable t_eff).
 *
 *   ./system_designer [arch 0-3] [net_size]
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "harness/experiment.hh"
#include "mem/access_time.hh"
#include "util/str.hh"
#include "util/table.hh"
#include "util/thread_pool.hh"

using namespace occsim;

int
main(int argc, char **argv)
{
    const int arch_index = argc > 1 ? std::atoi(argv[1]) : 0;
    const std::uint32_t net =
        argc > 2 ? static_cast<std::uint32_t>(std::atoi(argv[2])) : 512;
    if (arch_index < 0 || arch_index > 3) {
        std::fprintf(stderr, "arch must be 0..3\n");
        return 1;
    }

    const Suite suite = suiteFor(static_cast<Arch>(arch_index));
    const std::uint32_t word = suite.profile.wordSize;

    // Technology assumptions (Bursky's nibble-mode memory parts).
    AccessTimeParams tech;
    tech.tCache = 100.0;    // ns, on-chip hit
    tech.tMemFirst = 460.0; // ns, first word incl. bus transaction
    tech.tMemNext = 160.0;  // ns, subsequent burst words
    const double t_processor = 250.0;  // ns per reference issued
    const double t_bus_word = 160.0;   // ns of bus occupancy per word

    std::printf("architecture %s, net %u bytes; t_cache=%.0fns, "
                "t_mem=%.0f+%.0fns/word (parallel sweep engine, "
                "%u threads)\n\n",
                suite.profile.name.c_str(), net, tech.tCache,
                tech.tMemFirst, tech.tMemNext,
                globalThreadPool().size());

    const auto configs = paperGrid(net, word);
    const SuiteRun run = runSuite(suite, configs);

    struct Row
    {
        const SweepResult *result;
        double teff;
        double processors;
    };
    std::vector<Row> rows;
    for (const SweepResult &result : run.average) {
        const std::uint32_t burst_words =
            result.config.subBlockSize / word;
        Row row;
        row.result = &result;
        row.teff = effectiveAccessTime(tech, result.missRatio,
                                       burst_words);
        row.processors = maxBusProcessors(result.trafficRatio,
                                          t_processor, t_bus_word);
        rows.push_back(row);
    }

    std::sort(rows.begin(), rows.end(),
              [](const Row &a, const Row &b) { return a.teff < b.teff; });

    TableWriter table({"config", "gross", "miss", "traffic",
                       "t_eff (ns)", "max CPUs on bus"});
    for (const Row &row : rows) {
        table.addRow({row.result->config.shortName(),
                      std::to_string(row.result->grossBytes),
                      strfmt("%.4f", row.result->missRatio),
                      strfmt("%.4f", row.result->trafficRatio),
                      strfmt("%.1f", row.teff),
                      strfmt("%.1f", row.processors)});
    }
    table.print(std::cout);

    const Row &latency_win = rows.front();
    const Row &bus_win = *std::max_element(
        rows.begin(), rows.end(), [&](const Row &a, const Row &b) {
            // Bus-first: maximize processors among designs within
            // 1.5x of the best latency.
            const double limit = 1.5 * rows.front().teff;
            const double pa = a.teff <= limit ? a.processors : -1.0;
            const double pb = b.teff <= limit ? b.processors : -1.0;
            return pa < pb;
        });

    std::printf("\nlatency-first pick:  %s  (t_eff %.1f ns)\n",
                latency_win.result->config.shortName().c_str(),
                latency_win.teff);
    std::printf("bus-first pick:      %s  (%.1f processors, t_eff "
                "%.1f ns)\n",
                bus_win.result->config.shortName().c_str(),
                bus_win.processors, bus_win.teff);
    std::printf("\nThe two picks differ exactly when the sub-block "
                "tradeoff matters — the paper's thesis.\n");
    return 0;
}
