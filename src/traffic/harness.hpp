/**
 * @file
 * The open-loop stress harness: turns a Trace (trace.hpp) into a
 * ServerRuntime fleet run and distills the result into a
 * TrafficReport — per-request latency quantiles (p50/p99/p999),
 * makespan, throughput, admission accounting and the queue-depth time
 * series sampled from every loadSnapshot() republication.
 *
 * Each arrival becomes one FleetClient: its program comes from the
 * trace's Zipf mix over the harness's TrafficProgram list (mixed
 * workloads share one server — the content-addressed page cache makes
 * that safe), its priority from the program class, and churned
 * sessions get a deterministic per-session FaultPlan (disconnect at
 * message k, reconnect after r failed attempts) derived from the
 * trace's fault seed, exercising the failover/reconnect machinery
 * under load.
 *
 * The report is deterministic: same trace + same programs + same
 * admission config → byte-identical serializeTrafficReport() output.
 */
#ifndef NOL_TRAFFIC_HARNESS_HPP
#define NOL_TRAFFIC_HARNESS_HPP

#include <string>
#include <vector>

#include "runtime/server.hpp"
#include "support/stats.hpp"
#include "traffic/trace.hpp"

namespace nol::traffic {

/** One entry of the workload mix the trace indexes into. */
struct TrafficProgram {
    std::string name;
    const compiler::CompiledProgram *program = nullptr;
    runtime::SystemConfig config; ///< per-class base config (network...)
    runtime::RunInput input;
    int priority = 0; ///< admission priority of this class
};

/** One sample of the server's load ledger (queue-depth time series). */
struct QueueDepthSample {
    double seconds = 0;
    uint32_t queueDepth = 0;
    uint32_t activeSessions = 0;
    uint32_t slotPool = 0;
};

/** What one open-loop run produced. */
struct TrafficReport {
    std::string policyName;    ///< admission policy that ran
    uint32_t arrivals = 0;
    double offeredRatePerSecond = 0;
    double makespanSeconds = 0;
    double completionsPerSecond = 0; ///< arrivals / makespan
    LatencySummary latency;    ///< per-request (per-session) quantiles
    uint64_t totalOffloads = 0;
    uint64_t totalLocalRuns = 0;
    uint64_t totalFailovers = 0;
    uint64_t admissionWaits = 0;
    uint64_t admissionDenials = 0;
    double admissionWaitSeconds = 0;
    uint32_t peakConcurrentSessions = 0;
    uint32_t peakSlotPool = 0;  ///< > config pool only when autoscaled
    uint32_t peakQueueDepth = 0;
    uint64_t churnedSessions = 0; ///< sessions the trace gave a fault plan
    std::vector<QueueDepthSample> queueDepth;
    runtime::FleetReport fleet; ///< the full underlying fleet report
};

/**
 * Drive @p trace against one server running @p admission. The server's
 * default program is programs[0]; every client overrides per its mix
 * index. Blocks until the fleet drains.
 */
TrafficReport runOpenLoop(const Trace &trace,
                          const std::vector<TrafficProgram> &programs,
                          const runtime::AdmissionConfig &admission);

/**
 * Canonical text rendering of everything deterministic in the report
 * (latency quantiles, counters, the full queue-depth series). The
 * determinism property test compares two runs byte-for-byte with this.
 */
std::string serializeTrafficReport(const TrafficReport &report);

} // namespace nol::traffic

#endif // NOL_TRAFFIC_HARNESS_HPP
