/**
 * @file
 * occbench: occsim's benchmark driver.
 *
 *   occbench --workload <paper_sweep|serve_mixed>
 *            --seed <n> --seconds <s> --trace <0|1>
 *
 * Prints progress lines, then one JSON object as the last line:
 * {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
 * metrics are the end-to-end ones; with --trace 1 the per-layer ones.
 * Exits 1 when any correctness check failed.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.hh"
#include "workloads.hh"

using namespace occbench;

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "occbench: %s\nusage: occbench --workload "
                 "<paper_sweep|serve_mixed> --seed <n> "
                 "--seconds <s> --trace <0|1>\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage("missing value");
        const char *value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            options.workload = value;
        } else if (arg == "--seed") {
            options.seed = std::strtoull(value, &end, 10);
        } else if (arg == "--seconds") {
            options.seconds = std::strtod(value, &end);
        } else if (arg == "--trace") {
            options.trace = std::strcmp(value, "1") == 0;
        } else {
            usage("unknown argument");
        }
        if (end != nullptr && *end != '\0')
            usage("bad number");
    }
    if (options.workload != "paper_sweep" &&
        options.workload != "serve_mixed")
        usage("unknown workload");
    if (!(options.seconds > 0.0))
        usage("--seconds must be positive");
    return options;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options options = parseArgs(argc, argv);
    RunOutcome out;
    if (!options.trace) {
        out = runWorkload(options,
                          options.workload == "paper_sweep"
                              ? kSweepSetupRepeats
                              : kServeSetupRepeats,
                          nullptr);
    } else {
        out = runTraced(options);
    }
    printResult(out);
    return out.correct && out.failed == 0 ? 0 : 1;
}
