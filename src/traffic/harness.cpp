#include "traffic/harness.hpp"

#include <algorithm>
#include <cstdio>

#include "support/logging.hpp"

namespace nol::traffic {

TrafficReport
runOpenLoop(const Trace &trace, const std::vector<TrafficProgram> &programs,
            const runtime::AdmissionConfig &admission)
{
    NOL_ASSERT(!programs.empty(), "open-loop run without programs");
    NOL_ASSERT(!trace.entries.empty(), "open-loop run without arrivals");
    for (const TrafficProgram &program : programs) {
        NOL_ASSERT(program.program != nullptr,
                   "traffic program \"%s\" has no compiled program",
                   program.name.c_str());
    }

    TrafficReport report;
    report.arrivals = static_cast<uint32_t>(trace.entries.size());
    report.policyName = admissionPolicyKindName(admission.kind);
    report.offeredRatePerSecond = trace.config.ratePerSecond;

    std::vector<runtime::FleetClient> clients;
    clients.reserve(trace.entries.size());
    for (const TraceEntry &entry : trace.entries) {
        NOL_ASSERT(entry.programIndex < programs.size(),
                   "trace mix index %u out of range", entry.programIndex);
        const TrafficProgram &cls = programs[entry.programIndex];
        runtime::FleetClient client;
        client.name = "t" + std::to_string(entry.index) + "-" + cls.name;
        client.config = cls.config;
        client.input = cls.input;
        client.startSeconds = entry.startSeconds;
        client.priority = cls.priority;
        client.program = cls.program;
        if (entry.churned) {
            // Deterministic per-session churn: the link dies partway
            // through the offload conversation and (optionally) heals
            // so the retry/failover machinery reconnects.
            client.config.faultPlan.enabled = true;
            client.config.faultPlan.seed = entry.faultSeed;
            client.config.faultPlan.disconnectAtMessage =
                kChurnDisconnectAtMessage;
            client.config.faultPlan.reconnectAfterAttempts =
                kChurnReconnectAfterAttempts;
            ++report.churnedSessions;
        }
        clients.push_back(std::move(client));
    }

    runtime::ServerRuntime server(*programs[0].program, admission);
    server.setLoadObserver(
        [&report](double now_ns, const decision::LoadSnapshot &load) {
            QueueDepthSample sample;
            sample.seconds = now_ns * 1e-9;
            sample.queueDepth = load.queueDepth;
            sample.activeSessions = load.activeSessions;
            sample.slotPool = load.slotPool;
            report.peakSlotPool =
                std::max(report.peakSlotPool, load.slotPool);
            report.peakQueueDepth =
                std::max(report.peakQueueDepth, load.queueDepth);
            // Coalesce repeats: publishLoad fires on every admission
            // event, but the series only needs the change points.
            if (!report.queueDepth.empty()) {
                const QueueDepthSample &last = report.queueDepth.back();
                if (last.queueDepth == sample.queueDepth &&
                    last.activeSessions == sample.activeSessions &&
                    last.slotPool == sample.slotPool)
                    return;
            }
            report.queueDepth.push_back(sample);
        });

    report.fleet = server.run(clients);
    server.setLoadObserver(nullptr);

    const runtime::FleetReport &fleet = report.fleet;
    report.makespanSeconds = fleet.makespanSeconds;
    report.totalOffloads = fleet.totalOffloads;
    report.totalLocalRuns = fleet.totalLocalRuns;
    report.totalFailovers = fleet.totalFailovers;
    report.admissionWaits = fleet.admissionWaits;
    report.admissionDenials = fleet.admissionDenials;
    report.admissionWaitSeconds = fleet.admissionWaitSeconds;
    report.peakConcurrentSessions = fleet.peakConcurrentSessions;
    if (report.makespanSeconds > 0) {
        report.completionsPerSecond =
            static_cast<double>(report.arrivals) / report.makespanSeconds;
    }

    std::vector<double> latencies;
    latencies.reserve(fleet.clients.size());
    for (const runtime::FleetClientResult &client : fleet.clients)
        latencies.push_back(client.latencySeconds);
    report.latency = summarizeLatencies(std::move(latencies));
    return report;
}

std::string
serializeTrafficReport(const TrafficReport &report)
{
    std::string out;
    char line[256];
    std::snprintf(
        line, sizeof(line),
        "policy=%s arrivals=%u rate=%.6f makespan=%.9f mean=%.9f "
        "p50=%.9f p99=%.9f p999=%.9f max=%.9f\n",
        report.policyName.c_str(), report.arrivals,
        report.offeredRatePerSecond, report.makespanSeconds,
        report.latency.mean, report.latency.p50, report.latency.p99,
        report.latency.p999, report.latency.max);
    out += line;
    std::snprintf(
        line, sizeof(line),
        "offloads=%llu locals=%llu failovers=%llu waits=%llu "
        "denials=%llu waitsec=%.9f peak_sessions=%u peak_pool=%u "
        "peak_queue=%u churned=%llu\n",
        static_cast<unsigned long long>(report.totalOffloads),
        static_cast<unsigned long long>(report.totalLocalRuns),
        static_cast<unsigned long long>(report.totalFailovers),
        static_cast<unsigned long long>(report.admissionWaits),
        static_cast<unsigned long long>(report.admissionDenials),
        report.admissionWaitSeconds, report.peakConcurrentSessions,
        report.peakSlotPool, report.peakQueueDepth,
        static_cast<unsigned long long>(report.churnedSessions));
    out += line;
    for (const QueueDepthSample &sample : report.queueDepth) {
        std::snprintf(line, sizeof(line), "q %.9f %u %u %u\n",
                      sample.seconds, sample.queueDepth,
                      sample.activeSessions, sample.slotPool);
        out += line;
    }
    return out;
}

} // namespace nol::traffic
