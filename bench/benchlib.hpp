/**
 * @file
 * Shared infrastructure for the table/figure benches: compiles every
 * workload and runs it under the paper's four configurations (local
 * baseline, 802.11n "slow", 802.11ac "fast", ideal offloading).
 */
#ifndef NOL_BENCH_BENCHLIB_HPP
#define NOL_BENCH_BENCHLIB_HPP

#include <memory>
#include <vector>

#include "core/nativeoffloader.hpp"
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

/**
 * The sweep's 802.11ac configuration of @p spec; the other three sweep
 * configurations and every ablation change one setting of it.
 */
runtime::SystemConfig sweepConfig(const workloads::WorkloadSpec &spec);

/** The four-configuration sweep over all 17 workloads, in id order;
 *  progress goes to stderr. */
std::vector<WorkloadRuns> runSweep();

/** Geometric mean of @p values (must be positive). */
double geomean(const std::vector<double> &values);

} // namespace nol::bench

#endif // NOL_BENCH_BENCHLIB_HPP
