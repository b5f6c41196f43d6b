/**
 * @file
 * Property tests for the open-loop traffic stack (src/traffic): the
 * trace generator's determinism and distributional shape, and the
 * end-to-end determinism of a full open-loop run through the
 * admission-policy layer — same seed, byte-identical TrafficReport,
 * under either execution backend.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "codegen/artifact.hpp"
#include "net/simnetwork.hpp"
#include "traffic/mix.hpp"

using namespace nol;
using namespace nol::traffic;

namespace {

TraceConfig
baseConfig()
{
    TraceConfig config;
    config.seed = 42;
    config.arrivals = 200;
    config.ratePerSecond = 8.0;
    config.mixAlpha = 1.1;
    config.churnFraction = 0.1;
    return config;
}

/** Compile the builtin mix once; several tests drive fleets with it. */
const BuiltinMix &
sharedMix()
{
    static BuiltinMix mix = makeBuiltinMix(net::makeWifi80211ac());
    return mix;
}

} // namespace

TEST(Trace, SameSeedByteIdentical)
{
    Trace a = generateTrace(baseConfig(), 3);
    Trace b = generateTrace(baseConfig(), 3);
    EXPECT_EQ(serializeTrace(a), serializeTrace(b));
}

TEST(Trace, DistinctSeedsDiffer)
{
    TraceConfig config = baseConfig();
    Trace a = generateTrace(config, 3);
    config.seed = 43;
    Trace b = generateTrace(config, 3);
    EXPECT_NE(serializeTrace(a), serializeTrace(b));
    // The very first gap should already differ: the arrival stream is
    // seeded from the config, not from any global state.
    ASSERT_FALSE(a.entries.empty());
    ASSERT_FALSE(b.entries.empty());
    EXPECT_NE(a.entries[0].startSeconds, b.entries[0].startSeconds);
}

TEST(Trace, PoissonMeanGapWithinFivePercent)
{
    TraceConfig config;
    config.seed = 7;
    config.arrivals = 10000;
    config.ratePerSecond = 4.0;
    Trace trace = generateTrace(config, 3);
    ASSERT_EQ(trace.entries.size(), 10000u);
    // Mean inter-arrival gap over 10k draws: CLT puts the sample mean
    // within ~1% of 1/lambda at this count, so 5% has wide margin.
    double span = trace.entries.back().startSeconds;
    double mean_gap = span / static_cast<double>(trace.entries.size());
    double expected = 1.0 / config.ratePerSecond;
    EXPECT_NEAR(mean_gap, expected, expected * 0.05);
    // Arrivals are strictly increasing (exponential gaps are > 0).
    for (size_t i = 1; i < trace.entries.size(); ++i)
        EXPECT_GT(trace.entries[i].startSeconds,
                  trace.entries[i - 1].startSeconds);
}

TEST(Trace, DiurnalPreservesAverageRateAndDeterminism)
{
    TraceConfig config;
    config.seed = 11;
    config.arrivals = 10000;
    config.ratePerSecond = 4.0;
    config.process = ArrivalProcess::Diurnal;
    Trace a = generateTrace(config, 3);
    Trace b = generateTrace(config, 3);
    EXPECT_EQ(serializeTrace(a), serializeTrace(b));
    // Thinning modulates the instantaneous intensity but the sinusoid
    // averages out over whole periods: the long-run rate is lambda.
    double span = a.entries.back().startSeconds;
    double mean_gap = span / static_cast<double>(a.entries.size());
    double expected = 1.0 / config.ratePerSecond;
    EXPECT_NEAR(mean_gap, expected, expected * 0.10);
}

TEST(Trace, ZipfWeightsNormalizedAndDecreasing)
{
    std::vector<double> weights = zipfWeights(5, 1.1);
    double total = 0;
    for (size_t i = 0; i < weights.size(); ++i) {
        total += weights[i];
        if (i > 0) {
            EXPECT_LT(weights[i], weights[i - 1]);
        }
    }
    EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Trace, MixIndicesFollowSkew)
{
    TraceConfig config = baseConfig();
    config.arrivals = 5000;
    config.mixAlpha = 2.0;
    Trace trace = generateTrace(config, 3);
    std::vector<uint32_t> counts(3, 0);
    for (const TraceEntry &entry : trace.entries) {
        ASSERT_LT(entry.programIndex, 3u);
        ++counts[entry.programIndex];
    }
    // Zipf(2.0) over 3 classes: ~73% / 18% / 8% — order must hold.
    EXPECT_GT(counts[0], counts[1]);
    EXPECT_GT(counts[1], counts[2]);
}

TEST(Trace, ChurnFlagsTrackFractionAndCarrySeeds)
{
    TraceConfig config = baseConfig();
    config.arrivals = 4000;
    config.churnFraction = 0.5;
    Trace trace = generateTrace(config, 3);
    uint32_t churned = 0;
    for (const TraceEntry &entry : trace.entries)
        if (entry.churned) {
            ++churned;
            EXPECT_NE(entry.faultSeed, 0u);
        }
    double fraction =
        static_cast<double>(churned) / static_cast<double>(config.arrivals);
    EXPECT_NEAR(fraction, 0.5, 0.05);
}

TEST(Traffic, OpenLoopReportByteIdenticalAcrossRuns)
{
    const BuiltinMix &mix = sharedMix();
    TraceConfig config;
    config.seed = 5;
    config.arrivals = 24;
    config.ratePerSecond = 2.0; // overloaded: queues actually form
    config.mixAlpha = 2.0;
    config.churnFraction = 0.25; // exercise the reconnect machinery
    Trace trace = generateTrace(config, mix.programs.size());

    runtime::AdmissionConfig admission;
    admission.maxConcurrentSessions = 2;
    admission.maxQueueWaitSeconds = 1e9;
    admission.kind = runtime::AdmissionPolicyKind::ShortestPredictedFirst;

    TrafficReport first = runOpenLoop(trace, mix.programs, admission);
    TrafficReport second = runOpenLoop(trace, mix.programs, admission);
    EXPECT_EQ(serializeTrafficReport(first),
              serializeTrafficReport(second));
    // The native-C backend only moves host time, never the report.
    if (codegen::toolchainAvailable()) {
        std::vector<TrafficProgram> native = mix.programs;
        for (TrafficProgram &program : native)
            program.config.backend = interp::BackendKind::NativeC;
        EXPECT_EQ(serializeTrafficReport(first),
                  serializeTrafficReport(
                      runOpenLoop(trace, native, admission)));
    }
    EXPECT_EQ(first.arrivals, 24u);
    EXPECT_EQ(first.fleet.clients.size(), 24u);
    EXPECT_GT(first.admissionWaits, 0u);
    EXPECT_GT(first.latency.p99, 0.0);
    EXPECT_FALSE(first.queueDepth.empty());
}

TEST(Traffic, DistinctTraceSeedsProduceDistinctReports)
{
    const BuiltinMix &mix = sharedMix();
    TraceConfig config;
    config.seed = 5;
    config.arrivals = 16;
    config.ratePerSecond = 2.0;
    Trace a = generateTrace(config, mix.programs.size());
    config.seed = 6;
    Trace b = generateTrace(config, mix.programs.size());

    runtime::AdmissionConfig admission;
    admission.maxConcurrentSessions = 2;
    admission.maxQueueWaitSeconds = 1e9;
    TrafficReport ra = runOpenLoop(a, mix.programs, admission);
    TrafficReport rb = runOpenLoop(b, mix.programs, admission);
    // Different arrival times shift every latency, so the serialized
    // reports cannot collide.
    EXPECT_NE(serializeTrafficReport(ra), serializeTrafficReport(rb));
}
