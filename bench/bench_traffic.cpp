/**
 * @file
 * Extension: open-loop traffic at production scale. The paper's fleet
 * experiments are closed-loop (N clients, each one request); this
 * bench drives the seed-deterministic trace generator (src/traffic)
 * through the admission-policy layer at thousands of Poisson arrivals
 * and compares FIFO, priority, shortest-predicted-job-first and
 * fair-share admission on tail latency at fixed offered loads.
 *
 * Offered load is calibrated, not guessed: an unloaded warm-up run
 * measures the mix's mean session time, capacity is slots / mean
 * service, and every load point is a utilization multiple rho of that.
 * Each rho reuses one trace (same seed) across all four policies, so
 * a policy row differs from its neighbours only by queue discipline.
 *
 * Expected shape: below saturation the policies tie (queues barely
 * form); near and above it FIFO lets the heavy-tailed mix's long jobs
 * wedge short jobs behind them, while SPJF (fed by the decision
 * engine's Eq. 1 hold predictions) and priority reorder around them —
 * strictly better p99 at at least one load point. Fair-share sits
 * between. One extra FIFO cell runs with the autoscaling slot pool to
 * show what capacity elasticity does at the highest load.
 *
 * Every cell executes on the native-C backend when a host toolchain
 * is present (simulated metrics are backend-independent, so only wall
 * clock moves).
 *
 * Results land in BENCH_traffic.json next to the table.
 * Usage: bench_traffic [arrivals] [--suite]
 *   (default 2000 arrivals; CI smoke uses 64. --suite swaps the
 *    three-class built-in mix for the 17-program SPEC-shaped suite.)
 */
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/benchlib.hpp"
#include "codegen/artifact.hpp"
#include "net/simnetwork.hpp"
#include "support/logging.hpp"
#include "support/strings.hpp"
#include "traffic/mix.hpp"

using namespace nol;
using namespace nol::bench;
using namespace nol::traffic;

namespace {

constexpr uint32_t kSlots = 4;         ///< base admission slot pool
constexpr double kChurnFraction = 0.03;///< sessions that drop mid-offload
constexpr uint64_t kTraceSeed = 1987;

/**
 * Zipf skew of the job mix. 4.5 makes the heavy tail *rare* (~95%
 * short / ~4% medium / ~0.7% long): the p99 latency statistic then
 * sits in the short/medium population that a size-aware policy can
 * actually rescue from behind an elephant. With a fat long-class share
 * (say alpha ~1) the 99th percentile job IS a long job in every
 * policy, and SPJF's reordering only shows up in mean/p50.
 */
constexpr double kMixAlpha = 4.5;

struct Cell {
    double rho = 0;        ///< offered load as a multiple of capacity
    bool autoscaled = false;
    TrafficReport report;
};

runtime::AdmissionConfig
admissionFor(runtime::AdmissionPolicyKind kind, bool autoscale)
{
    runtime::AdmissionConfig admission;
    admission.kind = kind;
    admission.maxConcurrentSessions = kSlots;
    // Patient clients: queueing shows up as latency, not denials, so
    // the policies are compared on the metric they actually shape.
    admission.maxQueueWaitSeconds = 1e9;
    admission.autoscale = autoscale;
    return admission;
}

Trace
traceFor(uint32_t arrivals, double rate, size_t program_count)
{
    TraceConfig config;
    config.seed = kTraceSeed;
    config.arrivals = arrivals;
    config.process = ArrivalProcess::Poisson;
    config.ratePerSecond = rate;
    config.mixAlpha = kMixAlpha;
    config.churnFraction = kChurnFraction;
    return generateTrace(config, program_count);
}

} // namespace

int
main(int argc, char **argv)
{
    uint32_t arrivals = 2000;
    bool suite = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--suite")
            suite = true;
        else
            arrivals = static_cast<uint32_t>(std::atoi(argv[i]));
    }
    NOL_ASSERT(arrivals >= 8, "need at least 8 arrivals, got %u", arrivals);

    const bool native = codegen::toolchainAvailable();
    const interp::BackendKind backend = native
                                            ? interp::BackendKind::NativeC
                                            : interp::BackendKind::Interpreter;
    net::NetworkSpec network = net::makeWifi80211ac();
    std::fprintf(stderr, "[traffic] compiling %s mix ...\n",
                 suite ? "17-program suite" : "builtin");
    BuiltinMix mix = suite ? makeSuiteMix(network, backend)
                           : makeBuiltinMix(network, backend);

    // Calibration: per-class serial probes (handcrafted traces, one
    // class each, arrivals spaced far beyond the longest service) so
    // the rare heavy class still contributes its true weight to the
    // mean — a sampled trace at this alpha can easily miss it.
    std::fprintf(stderr, "[traffic] calibrating capacity ...\n");
    std::vector<double> weights =
        zipfWeights(mix.programs.size(), kMixAlpha);
    double mean_service = 0;
    for (size_t i = 0; i < mix.programs.size(); ++i) {
        Trace probe;
        probe.config.seed = kTraceSeed;
        probe.config.arrivals = 2;
        probe.config.ratePerSecond = 1.0 / 3600.0;
        for (uint32_t j = 0; j < probe.config.arrivals; ++j) {
            TraceEntry entry;
            entry.index = j;
            entry.startSeconds = j * 3600.0;
            entry.programIndex = static_cast<uint32_t>(i);
            probe.entries.push_back(entry);
        }
        TrafficReport serial = runOpenLoop(
            probe, mix.programs,
            admissionFor(runtime::AdmissionPolicyKind::Fifo, false));
        std::printf("class %-7s serial %8.3fs  (mix share %.1f%%)\n",
                    mix.programs[i].name.c_str(), serial.latency.mean,
                    weights[i] * 100.0);
        mean_service += weights[i] * serial.latency.mean;
    }
    NOL_ASSERT(mean_service > 0, "calibration produced no latencies");
    double capacity = static_cast<double>(kSlots) / mean_service;
    std::printf("mix mean session %.4fs -> serial capacity ~%.2f "
                "arrivals/s at %u slots\n",
                mean_service, capacity, kSlots);

    // Utilization labels are relative to the *serial* capacity above;
    // the shared medium saturates earlier under concurrency, so 1.0
    // is already past the knee and 0.55 sits just below it.
    const std::vector<double> rhos = {0.55, 1.0};
    const std::vector<runtime::AdmissionPolicyKind> kinds = {
        runtime::AdmissionPolicyKind::Fifo,
        runtime::AdmissionPolicyKind::Priority,
        runtime::AdmissionPolicyKind::ShortestPredictedFirst,
        runtime::AdmissionPolicyKind::FairShare,
    };

    std::vector<Cell> cells;
    for (double rho : rhos) {
        double rate = rho * capacity;
        Trace trace = traceFor(arrivals, rate, mix.programs.size());
        for (runtime::AdmissionPolicyKind kind : kinds) {
            std::fprintf(stderr, "[traffic] rho=%.2f policy=%s ...\n", rho,
                         runtime::admissionPolicyKindName(kind));
            Cell cell;
            cell.rho = rho;
            cell.report =
                runOpenLoop(trace, mix.programs, admissionFor(kind, false));
            cells.push_back(std::move(cell));
        }
    }
    // Capacity elasticity: FIFO again at the top load, but allowed to
    // grow the slot pool when the backlog passes the depth threshold.
    {
        double rho = rhos.back();
        Trace trace =
            traceFor(arrivals, rho * capacity, mix.programs.size());
        std::fprintf(stderr, "[traffic] rho=%.2f policy=fifo+autoscale "
                             "...\n", rho);
        Cell cell;
        cell.rho = rho;
        cell.autoscaled = true;
        cell.report =
            runOpenLoop(trace, mix.programs,
                        admissionFor(runtime::AdmissionPolicyKind::Fifo,
                                     true));
        cells.push_back(std::move(cell));
    }

    TextTable table;
    table.header({"rho", "policy", "p50", "p99", "p999", "max", "makespan",
                  "done/s", "waits", "wait s", "peak q", "pool",
                  "failovers"});
    for (const Cell &cell : cells) {
        const TrafficReport &r = cell.report;
        std::string policy = r.policyName;
        if (cell.autoscaled)
            policy += "+auto";
        table.row({fixed(cell.rho, 2), policy,
                   fixed(r.latency.p50, 3) + "s",
                   fixed(r.latency.p99, 3) + "s",
                   fixed(r.latency.p999, 3) + "s",
                   fixed(r.latency.max, 3) + "s",
                   fixed(r.makespanSeconds, 2) + "s",
                   fixed(r.completionsPerSecond, 2),
                   std::to_string(r.admissionWaits),
                   fixed(r.admissionWaitSeconds, 1),
                   std::to_string(r.peakQueueDepth),
                   std::to_string(r.peakSlotPool),
                   std::to_string(r.totalFailovers)});
    }
    std::printf("%u Poisson arrivals per cell, %.1f%% churn, "
                "mix alpha %.1f\n%s\n",
                arrivals, kChurnFraction * 100.0, kMixAlpha,
                table.render().c_str());

    // The acceptance check the CI smoke greps for: a size-aware policy
    // must strictly beat FIFO on p99 at at least one offered load.
    bool tail_win = false;
    for (double rho : rhos) {
        const Cell *fifo = nullptr;
        for (const Cell &cell : cells)
            if (cell.rho == rho && !cell.autoscaled &&
                cell.report.policyName == "fifo")
                fifo = &cell;
        for (const Cell &cell : cells) {
            if (cell.rho != rho || cell.autoscaled || fifo == nullptr)
                continue;
            if (cell.report.policyName == "fifo")
                continue;
            if (cell.report.latency.p99 < fifo->report.latency.p99) {
                std::printf("%s beats fifo on p99 at rho=%.2f "
                            "(%.3fs vs %.3fs)\n",
                            cell.report.policyName.c_str(), rho,
                            cell.report.latency.p99,
                            fifo->report.latency.p99);
                tail_win = true;
            }
        }
    }
    if (!tail_win)
        std::printf("WARNING: no policy beat fifo on p99 at any load\n");

    FILE *json = std::fopen("BENCH_traffic.json", "w");
    NOL_ASSERT(json != nullptr, "cannot write BENCH_traffic.json");
    std::fprintf(json,
                 "{\n  \"arrivals\": %u, \"slots\": %u, "
                 "\"mix\": \"%s\", \"backend\": \"%s\", "
                 "\"mean_service_s\": %.6f, \"capacity_per_s\": %.6f, "
                 "\"churn_fraction\": %.4f, \"tail_win\": %s,\n"
                 "  \"cells\": [\n",
                 arrivals, kSlots, suite ? "suite" : "builtin",
                 interp::backendKindName(backend), mean_service, capacity,
                 kChurnFraction, tail_win ? "true" : "false");
    for (size_t i = 0; i < cells.size(); ++i) {
        const TrafficReport &r = cells[i].report;
        std::fprintf(
            json,
            "    {\"rho\": %.2f, \"policy\": \"%s\", \"autoscale\": %s, "
            "\"rate_per_s\": %.6f, \"latency_p50_s\": %.6f, "
            "\"latency_p99_s\": %.6f, \"latency_p999_s\": %.6f, "
            "\"latency_mean_s\": %.6f, \"latency_max_s\": %.6f, "
            "\"makespan_s\": %.6f, \"completions_per_s\": %.6f, "
            "\"admission_waits\": %llu, \"admission_wait_s\": %.6f, "
            "\"admission_denials\": %llu, \"peak_queue_depth\": %u, "
            "\"peak_slot_pool\": %u, \"total_offloads\": %llu, "
            "\"total_local_runs\": %llu, \"total_failovers\": %llu, "
            "\"churned_sessions\": %llu}%s\n",
            cells[i].rho, r.policyName.c_str(),
            cells[i].autoscaled ? "true" : "false",
            r.offeredRatePerSecond, r.latency.p50, r.latency.p99,
            r.latency.p999, r.latency.mean, r.latency.max,
            r.makespanSeconds, r.completionsPerSecond,
            static_cast<unsigned long long>(r.admissionWaits),
            r.admissionWaitSeconds,
            static_cast<unsigned long long>(r.admissionDenials),
            r.peakQueueDepth, r.peakSlotPool,
            static_cast<unsigned long long>(r.totalOffloads),
            static_cast<unsigned long long>(r.totalLocalRuns),
            static_cast<unsigned long long>(r.totalFailovers),
            static_cast<unsigned long long>(r.churnedSessions),
            i + 1 < cells.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::printf("wrote BENCH_traffic.json\n");
    return 0;
}
