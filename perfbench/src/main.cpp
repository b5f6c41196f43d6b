/**
 * @file
 * perfbench: the repository's layered benchmark program.
 *
 *   perfbench --workload compile|paper-sweep|traffic --seed N
 *             --seconds S --trace 0|1 [--reference DIR]
 *             [--trace-seed T] [--trace-out FILE]
 *   perfbench --write-reference DIR
 *
 * Prints a human-readable report and, as its last stdout line, one JSON
 * object {correct, attempted, failed, metrics, pass_norm_samples}. An
 * untraced invocation sets the workload up once, cold, then times whole
 * passes for --seconds. perfbench/run.py builds this program, runs it
 * in several processes, each with a private empty NOL_CODEGEN_DIR, and
 * pools their samples.
 */
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "perfbench.hpp"

using namespace perfbench;

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "compile|paper-sweep|traffic --seed N --seconds S "
                 "--trace 0|1 [--reference DIR] [--trace-seed T] "
                 "[--trace-out FILE]\n"
                 "       perfbench --write-reference DIR\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + arg).c_str());
            return argv[++i];
        };
        if (arg == "--workload")
            opts.workload = value();
        else if (arg == "--seed")
            opts.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (arg == "--seconds")
            opts.seconds = std::atof(value().c_str());
        else if (arg == "--trace")
            opts.trace = value() == "1";
        else if (arg == "--trace-seed")
            opts.traceSeed = std::strtoull(value().c_str(), nullptr, 10);
        else if (arg == "--reference")
            opts.reference = value();
        else if (arg == "--trace-out")
            opts.traceOut = value();
        else if (arg == "--write-reference")
            opts.writeReference = value();
        else
            usage(("unknown argument " + arg).c_str());
    }
    if (opts.writeReference.empty() && opts.workload != "compile" &&
        opts.workload != "paper-sweep" && opts.workload != "traffic")
        usage("--workload must be compile, paper-sweep or traffic");
    if (!(opts.seconds > 0))
        usage("--seconds must be positive");
    return opts;
}

/** Refuse to run unless the artifact cache is private and empty. */
bool
privateCodegenDir()
{
    const char *dir = std::getenv("NOL_CODEGEN_DIR");
    if (dir == nullptr || *dir == '\0')
        return false;
    std::error_code ec;
    return std::filesystem::is_directory(dir, ec) &&
           std::filesystem::is_empty(dir, ec);
}

void
printJson(const Result &result)
{
    std::string metrics;
    for (const auto &[name, metric] : result.metrics) {
        if (!metrics.empty())
            metrics += ", ";
        metrics += format("\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                          name.c_str(), metric.value, metric.unit.c_str());
    }
    std::string passes;
    for (double s : result.passNorm)
        passes += format("%s%.17g", passes.empty() ? "" : ", ", s);
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}, \"pass_norm_samples\": [%s]}\n",
                result.tally.failed() == 0 ? "true" : "false",
                static_cast<unsigned long long>(result.tally.attempted()),
                static_cast<unsigned long long>(result.tally.failed()),
                metrics.c_str(), passes.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts = parseArgs(argc, argv);
    if (!privateCodegenDir()) {
        std::fprintf(stderr, "perfbench: NOL_CODEGEN_DIR must name an "
                             "empty directory private to this run\n");
        return 2;
    }
    if (!opts.writeReference.empty())
        return writeReference(opts.writeReference);
    Oracle oracle = Oracle::load(opts.reference);
    if (oracle.empty()) {
        std::fprintf(stderr, "perfbench: no reference outputs in %s\n",
                     opts.reference.c_str());
        return 2;
    }

    Result result;
    if (opts.trace)
        runLayers(opts, oracle, result);
    else
        runWorkload(opts, oracle, result);

    for (const std::string &line : result.lines)
        std::printf("%s\n", line.c_str());
    double failed_frac =
        result.tally.attempted() == 0
            ? 1.0
            : static_cast<double>(result.tally.failed()) /
                  static_cast<double>(result.tally.attempted());
    std::printf("  %-24s %14.6f frac (%llu of %llu operations)\n",
                "failed_frac", failed_frac,
                static_cast<unsigned long long>(result.tally.failed()),
                static_cast<unsigned long long>(result.tally.attempted()));
    for (const std::string &why : result.tally.reasons())
        std::printf("  FAILED: %s\n", why.c_str());
    for (const auto &[name, metric] : result.metrics)
        std::printf("  %-34s %18.9g %s\n", name.c_str(), metric.value,
                    metric.unit.c_str());
    printJson(result);
    return 0;
}
