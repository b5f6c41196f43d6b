/**
 * @file
 * The evaluation workload suite: 17 MiniC programs, one per SPEC
 * CPU2000/CPU2006 C program the paper offloads (Table 4), plus the
 * chess running example (Table 1 / Table 3 / Fig. 3).
 *
 * SPEC sources and reference inputs are licensed and unavailable here,
 * so each workload is a from-scratch miniature of the same algorithm
 * shaped to match its paper row: offload-target granularity (function
 * vs loop), coverage, invocation count, communication footprint,
 * remote-I/O intensity and function-pointer intensity. Each workload
 * carries its own memory scale factor k: its buffers are 1/k of the
 * paper program's communicated volume and every run divides network
 * bandwidth by the same k, preserving all time ratios of Eq. 1.
 */
#ifndef NOL_WORKLOADS_WORKLOADS_HPP
#define NOL_WORKLOADS_WORKLOADS_HPP

#include <string>
#include <vector>

#include "core/nativeoffloader.hpp"
#include "profile/profiler.hpp"
#include "runtime/offload.hpp"

namespace nol::workloads {

/** Reference numbers from the paper (Table 4 and Sec. 5 text). */
struct PaperRef {
    double execSeconds = 0;   ///< smartphone time, evaluation input
    double coveragePct = 0;   ///< offloaded-region coverage
    int invocations = 0;      ///< offload target invocations
    double trafficMb = 0;     ///< communication per invocation (MB)
    std::string target;       ///< the paper's reported target name
    double locThousands = 0;  ///< SPEC program size (kLoC)
    bool offloadedOnSlow = true; ///< false: '*' in Fig. 6 (e.g. gzip)
};

/** One runnable workload. */
struct WorkloadSpec {
    std::string id;           ///< e.g. "164.gzip"
    std::string description;  ///< e.g. "Compression"
    std::string source;       ///< MiniC program text
    profile::ProfileInput profilingInput; ///< compile-time input
    runtime::RunInput evalInput;          ///< evaluation input
    double memScale = 64.0;   ///< per-workload scale factor k
    std::string expectedTarget; ///< target name our compiler selects
    PaperRef paper;
};

/** All 17 SPEC-shaped workloads, in Table 4 order. */
const std::vector<WorkloadSpec> &allWorkloads();

/** Workload by id ("164.gzip"); nullptr if unknown. */
const WorkloadSpec *workloadById(const std::string &id);

/**
 * The chess running example of the paper (Fig. 3, Tables 1 and 3).
 * @p max_depth is the AI thinking depth ("difficulty level").
 */
WorkloadSpec makeChess(int max_depth);

/**
 * The request the suite is evaluated with: @p spec's source and
 * profiling input, with the static estimator assuming the best network
 * the deployment might see (802.11ac, 844 Mbps), scaled by the
 * workload's memory scale k like its byte counts. Generating the
 * offloading-enabled code is cheap; the runtime's per-invocation
 * decision makes the real call (paper Sec. 4).
 */
core::CompileRequest evaluationRequest(const WorkloadSpec &spec);

} // namespace nol::workloads

#endif // NOL_WORKLOADS_WORKLOADS_HPP
