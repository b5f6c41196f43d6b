/**
 * @file
 * Shared infrastructure for the table/figure benches: compiles every
 * workload and runs it under the paper's four configurations (local
 * baseline, 802.11n "slow", 802.11ac "fast", ideal offloading).
 */
#ifndef NOL_BENCH_BENCHLIB_HPP
#define NOL_BENCH_BENCHLIB_HPP

#include <memory>
#include <string>
#include <vector>

#include "core/nativeoffloader.hpp"
#include "support/stats.hpp"
#include "workloads/workloads.hpp"

namespace nol::bench {

/** All four runs of one workload. */
struct WorkloadRuns {
    const workloads::WorkloadSpec *spec = nullptr;
    std::shared_ptr<core::Program> program;
    runtime::RunReport local;
    runtime::RunReport slow;  ///< 802.11n
    runtime::RunReport fast;  ///< 802.11ac
    runtime::RunReport ideal; ///< zero-overhead offloading

    /** Offload events of the paper's listed target only. */
    int primaryInvocations(const runtime::RunReport &report) const;

    /** Wire traffic per primary invocation in paper-equivalent MB. */
    double primaryTrafficMb(const runtime::RunReport &report) const;
};

/** Compile one workload through the full pipeline; @p fieldSensitive
 *  false selects the field-insensitive oracle compile. */
core::Program compileWorkload(const workloads::WorkloadSpec &spec,
                              bool fieldSensitive = true);

/** Run @p spec under one runtime configuration. */
runtime::RunReport runConfig(const core::Program &program,
                             const workloads::WorkloadSpec &spec,
                             const runtime::SystemConfig &config);

/** The standard four-configuration sweep over all 17 workloads. */
std::vector<WorkloadRuns> runFullSweep(bool verbose = true);

/** Sweep over a named subset. */
std::vector<WorkloadRuns> runSweep(const std::vector<std::string> &ids,
                                   bool verbose = true);

/** Geometric mean of @p values (must be positive). */
double geomean(const std::vector<double> &values);

/**
 * Per-client latency quantiles of a fleet run via the shared
 * nearest-rank helper (support/stats.hpp) — the one percentile
 * definition every bench table and the server itself agree on.
 */
LatencySummary fleetLatencySummary(const runtime::FleetReport &fleet);

} // namespace nol::bench

#endif // NOL_BENCH_BENCHLIB_HPP
