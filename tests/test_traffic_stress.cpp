/**
 * @file
 * Tier-2 stress: one open-loop run at production scale — thousands of
 * Poisson arrivals through a single ServerRuntime — proving the
 * de-hot-spotted simulator core (heap-based EventLoop scheduling,
 * hashed page tables) sustains deep admission backlogs. Labeled tier2:
 * the blocking CI job skips it (-LE tier2); a non-blocking job and the
 * full local ctest run still execute it.
 */
#include <gtest/gtest.h>

#include "net/simnetwork.hpp"
#include "traffic/mix.hpp"

using namespace nol;
using namespace nol::traffic;

TEST(TrafficStress, TwoThousandArrivalsSustain)
{
    BuiltinMix mix = makeBuiltinMix(net::makeWifi80211ac());

    TraceConfig config;
    config.seed = 2025;
    config.arrivals = 2000;
    // Rare-elephant mix at ~1.4x the serial capacity: the backlog
    // grows to hundreds of queued sessions and has to drain cleanly.
    config.ratePerSecond = 2.5;
    config.mixAlpha = 4.5;
    config.churnFraction = 0.02;
    Trace trace = generateTrace(config, mix.programs.size());
    ASSERT_EQ(trace.entries.size(), 2000u);

    runtime::AdmissionConfig admission;
    admission.maxConcurrentSessions = 4;
    admission.maxQueueWaitSeconds = 1e9; // patient: nobody is denied
    admission.kind = runtime::AdmissionPolicyKind::ShortestPredictedFirst;

    TrafficReport report = runOpenLoop(trace, mix.programs, admission);

    // Every arrival completed: no lost sessions, no leaked slots.
    EXPECT_EQ(report.arrivals, 2000u);
    EXPECT_EQ(report.fleet.clients.size(), 2000u);
    EXPECT_EQ(report.totalOffloads + report.totalLocalRuns +
                  report.totalFailovers,
              report.fleet.totalOffloads + report.fleet.totalLocalRuns +
                  report.fleet.totalFailovers);
    for (const runtime::FleetClientResult &client : report.fleet.clients)
        EXPECT_GT(client.latencySeconds, 0.0) << client.name;

    // The run actually stressed the queue, not just trickled through.
    EXPECT_GT(report.admissionWaits, 1000u);
    EXPECT_GT(report.peakQueueDepth, admission.maxConcurrentSessions * 4);
    EXPECT_EQ(report.admissionDenials, 0u);
    EXPECT_GT(report.churnedSessions, 0u);
    EXPECT_GT(report.completionsPerSecond, 0.0);
    EXPECT_GT(report.latency.p999, report.latency.p50);

    // The queue-depth series is a well-formed time series: samples in
    // nondecreasing time order, never exceeding the observed peak.
    ASSERT_FALSE(report.queueDepth.empty());
    for (size_t i = 0; i < report.queueDepth.size(); ++i) {
        const QueueDepthSample &sample = report.queueDepth[i];
        EXPECT_LE(sample.queueDepth, report.peakQueueDepth);
        EXPECT_LE(sample.activeSessions, report.peakConcurrentSessions);
        if (i > 0) {
            EXPECT_GE(sample.seconds, report.queueDepth[i - 1].seconds);
        }
    }
}
