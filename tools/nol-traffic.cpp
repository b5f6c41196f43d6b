/**
 * @file
 * Command-line front end for the open-loop traffic stack: generate a
 * seed-deterministic trace over the built-in three-class mix, drive it
 * through one admission policy, and print the TrafficReport (and,
 * optionally, the raw trace). Explores the load points and mixes that
 * bench_extensions does not run.
 *
 *   nol-traffic [--arrivals N] [--rate R] [--policy fifo|priority|
 *               spjf|fair] [--process poisson|diurnal] [--seed S]
 *               [--churn F] [--alpha A] [--slots K] [--autoscale]
 *               [--network 802.11n|802.11ac] [--mix builtin|suite]
 *               [--backend interp|native] [--dump-trace]
 *
 * --mix suite swaps the three-class built-in mix for the full
 * 17-program SPEC-shaped evaluation suite (one traffic class per
 * Table 4 workload). --backend native runs every session on the
 * compiled native-C backend — simulated metrics are bit-identical to
 * the interpreter, only host wall-clock changes.
 */
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "net/simnetwork.hpp"
#include "traffic/mix.hpp"

using namespace nol;
using namespace nol::traffic;

namespace {

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--arrivals N] [--rate R] [--policy fifo|priority|"
        "spjf|fair]\n           [--process poisson|diurnal] [--seed S] "
        "[--churn F] [--alpha A]\n           [--slots K] [--autoscale] "
        "[--network 802.11n|802.11ac]\n           [--mix builtin|suite] "
        "[--backend interp|native] [--dump-trace]\n",
        argv0);
    std::exit(2);
}

/** True if all of @p text is a decimal integer no greater than @p max. */
bool
parseUnsigned(const char *text, uint64_t max, uint64_t *out)
{
    if (!std::isdigit(static_cast<unsigned char>(text[0])))
        return false;
    char *end = nullptr;
    errno = 0;
    unsigned long long value = std::strtoull(text, &end, 10);
    if (*end != '\0' || errno == ERANGE || value > max)
        return false;
    *out = value;
    return true;
}

/** True if all of @p text is a finite number. */
bool
parseFinite(const char *text, double *out)
{
    char *end = nullptr;
    double value = std::strtod(text, &end);
    if (end == text || *end != '\0' || !std::isfinite(value))
        return false;
    *out = value;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    TraceConfig trace_config;
    trace_config.arrivals = 256;
    trace_config.ratePerSecond = 0.05;
    runtime::AdmissionConfig admission;
    admission.maxConcurrentSessions = 4;
    admission.maxQueueWaitSeconds = 1e9;
    std::string network_name = "802.11ac";
    std::string mix_name = "builtin";
    interp::BackendKind backend = interp::BackendKind::Interpreter;
    bool dump_trace = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        // Malformed values end in the usage text, never in a panic
        // deep inside the simulation.
        auto count = [&]() {
            uint64_t n = 0;
            if (!parseUnsigned(value(), UINT32_MAX, &n) || n == 0)
                usage(argv[0]);
            return static_cast<uint32_t>(n);
        };
        auto real = [&](double lo, double hi) {
            double x = 0;
            if (!parseFinite(value(), &x) || x < lo || x > hi)
                usage(argv[0]);
            return x;
        };
        if (arg == "--arrivals")
            trace_config.arrivals = count();
        else if (arg == "--rate") {
            trace_config.ratePerSecond = real(0, HUGE_VAL);
            if (trace_config.ratePerSecond == 0)
                usage(argv[0]);
        } else if (arg == "--seed") {
            if (!parseUnsigned(value(), UINT64_MAX, &trace_config.seed))
                usage(argv[0]);
        } else if (arg == "--churn")
            trace_config.churnFraction = real(0, 1);
        else if (arg == "--alpha")
            trace_config.mixAlpha = real(-HUGE_VAL, HUGE_VAL);
        else if (arg == "--slots")
            admission.maxConcurrentSessions = count();
        else if (arg == "--autoscale")
            admission.autoscale = true;
        else if (arg == "--network")
            network_name = value();
        else if (arg == "--mix")
            mix_name = value();
        else if (arg == "--backend") {
            if (!interp::parseBackendKind(value(), &backend))
                usage(argv[0]);
        }
        else if (arg == "--dump-trace")
            dump_trace = true;
        else if (arg == "--process") {
            std::string p = value();
            if (p == "poisson")
                trace_config.process = ArrivalProcess::Poisson;
            else if (p == "diurnal")
                trace_config.process = ArrivalProcess::Diurnal;
            else
                usage(argv[0]);
        } else if (arg == "--policy") {
            std::string p = value();
            if (p == "fifo")
                admission.kind = runtime::AdmissionPolicyKind::Fifo;
            else if (p == "priority")
                admission.kind = runtime::AdmissionPolicyKind::Priority;
            else if (p == "spjf")
                admission.kind =
                    runtime::AdmissionPolicyKind::ShortestPredictedFirst;
            else if (p == "fair")
                admission.kind = runtime::AdmissionPolicyKind::FairShare;
            else
                usage(argv[0]);
        } else
            usage(argv[0]);
    }
    if (network_name != "802.11n" && network_name != "802.11ac")
        usage(argv[0]);
    if (mix_name != "builtin" && mix_name != "suite")
        usage(argv[0]);

    net::NetworkSpec network = network_name == "802.11n"
                                   ? net::makeWifi80211n()
                                   : net::makeWifi80211ac();
    BuiltinMix mix = mix_name == "suite" ? makeSuiteMix(network, backend)
                                         : makeBuiltinMix(network, backend);
    Trace trace = generateTrace(trace_config, mix.programs.size());
    if (dump_trace)
        std::fputs(serializeTrace(trace).c_str(), stdout);

    TrafficReport report = runOpenLoop(trace, mix.programs, admission);
    std::fputs(serializeTrafficReport(report).c_str(), stdout);
    return 0;
}
