/**
 * @file
 * Design-space exploration with the sub-block cache model: the
 * paper's central engineering message is that, for a fixed block
 * size, varying the sub-block size trades miss ratio (latency)
 * against traffic ratio (bus load). This example sweeps a full
 * design grid for one architecture suite and reports, for a set of
 * bus-load budgets, the design point with the lowest miss ratio
 * whose traffic ratio fits the budget — i.e. it answers the
 * system designer's actual question.
 *
 *   ./design_space_explorer [arch 0-3] [net_size]
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "harness/experiment.hh"
#include "util/str.hh"
#include "util/table.hh"
#include "util/thread_pool.hh"

using namespace occsim;

int
main(int argc, char **argv)
{
    const int arch_index = argc > 1 ? std::atoi(argv[1]) : 0;
    const std::uint32_t net =
        argc > 2 ? static_cast<std::uint32_t>(std::atoi(argv[2])) : 1024;
    if (arch_index < 0 || arch_index > 3) {
        std::fprintf(stderr, "arch must be 0 (PDP-11), 1 (Z8000), "
                             "2 (VAX-11) or 3 (System/370)\n");
        return 1;
    }

    const Suite suite = suiteFor(static_cast<Arch>(arch_index));
    std::printf("architecture: %s, net cache size: %u bytes "
                "(parallel sweep engine, %u threads; set "
                "OCCSIM_THREADS to change)\n\n",
                suite.profile.name.c_str(), net,
                globalThreadPool().size());

    const auto configs = paperGrid(net, suite.profile.wordSize);
    const SuiteRun run = runSuite(suite, configs);

    // Print the whole grid, sorted by miss ratio.
    auto sorted = run.average;
    std::sort(sorted.begin(), sorted.end(),
              [](const SweepResult &a, const SweepResult &b) {
                  return a.missRatio < b.missRatio;
              });
    TableWriter grid({"block,sub", "gross", "miss", "traffic"});
    grid.setTitle("full design grid (best miss ratio first)");
    for (const SweepResult &result : sorted) {
        grid.addRow({result.config.shortName(),
                     std::to_string(result.grossBytes),
                     strfmt("%.4f", result.missRatio),
                     strfmt("%.4f", result.trafficRatio)});
    }
    grid.print(std::cout);

    // For each bus budget, the lowest-miss design that fits.
    TableWriter picks({"traffic budget", "best design", "miss",
                       "traffic", "gross"});
    picks.setTitle("\nbest design per bus-traffic budget");
    for (const double budget : {0.1, 0.2, 0.4, 0.8, 1.0}) {
        const SweepResult *best = nullptr;
        for (const SweepResult &result : run.average) {
            if (result.trafficRatio > budget)
                continue;
            if (best == nullptr || result.missRatio < best->missRatio)
                best = &result;
        }
        if (best != nullptr) {
            picks.addRow({strfmt("%.2f", budget),
                          best->config.shortName(),
                          strfmt("%.4f", best->missRatio),
                          strfmt("%.4f", best->trafficRatio),
                          std::to_string(best->grossBytes)});
        } else {
            picks.addRow({strfmt("%.2f", budget), "none fits", "-",
                          "-", "-"});
        }
    }
    picks.print(std::cout);
    return 0;
}
