/**
 * @file
 * The layered decision stack (src/decision) in isolation and in fleet
 * integration: the pure Equation 1 model (parity with the compiler's
 * static estimator, the admission queue-wait term), the per-session
 * engine (verdicts, single-probe accounting, provenance records), the
 * fleet-shared priors (EMA aggregation, admission-time seeding), and
 * the two SystemConfig flags end to end — priors eliminating
 * cold-start offloads for late arrivals, admission awareness keeping
 * clients out of a saturated queue, and both flags off staying
 * bit-identical to the solo system.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "compiler/driver.hpp"
#include "decision/engine.hpp"
#include "decision/model.hpp"
#include "decision/priors.hpp"
#include "decision/record.hpp"
#include "frontend/codegen.hpp"
#include "net/simnetwork.hpp"
#include "runtime/offload.hpp"
#include "runtime/server.hpp"

using namespace nol;
using namespace nol::runtime;

// ---------------------------------------------------------------------------
// decision::Model — Equation 1 and the queue-wait term
// ---------------------------------------------------------------------------

TEST(DecisionModel, MatchesEquationOneBitForBit)
{
    // The model must be the same arithmetic the static estimator has
    // always used: compare against a literal transcription of Eq. 1,
    // with == (not NEAR) — this is the single-home-of-the-formula
    // guarantee the refactor rests on.
    struct Case {
        double tm;
        uint64_t mem;
        uint64_t invocations;
        double ratio;
        double mbps;
    };
    std::vector<Case> cases = {
        {10.0, 10'000'000, 1, 5.0, 80.0},
        {0.37, 123'456, 7, 5.0, 844.0},
        {1234.5, 1, 1000, 2.0, 1.0},
        {0.0, 0, 1, 5.0, 80.0},
    };
    for (const Case &c : cases) {
        decision::ModelParams params;
        params.speedRatio = c.ratio;
        params.bandwidthMbps = c.mbps;
        decision::Terms terms =
            decision::evaluate(c.tm, c.mem, c.invocations, params);

        double ideal = c.tm * (1.0 - 1.0 / c.ratio);
        double megabits = static_cast<double>(c.mem) * 8.0 / 1e6;
        double comm = 2.0 * (megabits / c.mbps) *
                      static_cast<double>(c.invocations);
        EXPECT_EQ(terms.mobileSeconds, c.tm);
        EXPECT_EQ(terms.idealGain, ideal);
        EXPECT_EQ(terms.commSeconds, comm);
        EXPECT_EQ(terms.gain, ideal - comm);
        EXPECT_EQ(terms.queueWaitSeconds, 0.0);
    }
}

TEST(DecisionModel, NoWaitWithFreeSlotOrNoHistory)
{
    decision::LoadSnapshot load;
    // All-zero snapshot: no load information, no wait.
    EXPECT_EQ(decision::expectedWaitSeconds(load), 0.0);

    // A free slot means no wait regardless of history.
    load.slotPool = 4;
    load.activeSessions = 2;
    load.queueDepth = 0;
    load.completedHolds = 10;
    load.meanHoldSeconds = 3.0;
    EXPECT_EQ(decision::expectedWaitSeconds(load), 0.0);

    // Saturated but no completed hold yet: h unknown, claim no wait
    // (optimistic by design — the first client must discover h).
    load.activeSessions = 4;
    load.completedHolds = 0;
    load.meanHoldSeconds = 0.0;
    EXPECT_EQ(decision::expectedWaitSeconds(load), 0.0);
}

TEST(DecisionModel, WaitGrowsWithQueueAndShrinksWithSlots)
{
    decision::LoadSnapshot load;
    load.slotPool = 2;
    load.activeSessions = 2;
    load.completedHolds = 5;
    load.meanHoldSeconds = 4.0;

    // E[wait] = (q + 1) * h / s.
    load.queueDepth = 0;
    EXPECT_DOUBLE_EQ(decision::expectedWaitSeconds(load), 2.0);
    load.queueDepth = 3;
    EXPECT_DOUBLE_EQ(decision::expectedWaitSeconds(load), 8.0);

    load.slotPool = 4;
    load.activeSessions = 4;
    EXPECT_DOUBLE_EQ(decision::expectedWaitSeconds(load), 4.0);
}

TEST(DecisionModel, QueueTermSubtractsExactly)
{
    decision::ModelParams params;
    decision::LoadSnapshot load;
    load.slotPool = 1;
    load.activeSessions = 1;
    load.queueDepth = 1;
    load.completedHolds = 2;
    load.meanHoldSeconds = 1.5;

    decision::Terms plain = decision::evaluate(10.0, 1'000'000, 1, params);
    decision::Terms loaded =
        decision::evaluate(10.0, 1'000'000, 1, params, load);
    EXPECT_DOUBLE_EQ(loaded.queueWaitSeconds, 3.0);
    EXPECT_EQ(loaded.gain, plain.gain - loaded.queueWaitSeconds);
    EXPECT_EQ(loaded.idealGain, plain.idealGain);
    EXPECT_EQ(loaded.commSeconds, plain.commSeconds);
}

// ---------------------------------------------------------------------------
// decision::Engine — verdicts, probes, provenance
// ---------------------------------------------------------------------------

TEST(DecisionEngine, VerdictsCarryFullProvenance)
{
    decision::Engine dyn(5.0, 80e6);

    decision::DecisionRecord unknown = dyn.decide("ghost", 1.0);
    EXPECT_EQ(unknown.verdict, decision::Verdict::UnknownTarget);
    EXPECT_FALSE(unknown.offload);
    EXPECT_FALSE(unknown.inputs.knownTarget);
    EXPECT_EQ(unknown.sequence, 1u);
    EXPECT_STREQ(decision::verdictName(unknown.verdict), "unknown-target");

    dyn.seed("hot", 10.0, 10'000'000);
    decision::DecisionRecord go = dyn.decide("hot", 2.0);
    EXPECT_EQ(go.verdict, decision::Verdict::Offload);
    EXPECT_TRUE(go.offload);
    EXPECT_EQ(go.sequence, 2u);
    EXPECT_DOUBLE_EQ(go.nowSeconds, 2.0);
    EXPECT_TRUE(go.inputs.knownTarget);
    EXPECT_DOUBLE_EQ(go.inputs.mobileSecondsPerInvocation, 10.0);
    EXPECT_EQ(go.inputs.memBytes, 10'000'000u);
    EXPECT_EQ(go.inputs.observations, 0u);
    EXPECT_DOUBLE_EQ(go.inputs.speedRatio, 5.0);
    EXPECT_DOUBLE_EQ(go.inputs.bandwidthMbps, 80.0);
    EXPECT_FALSE(go.inputs.admissionAware);
    EXPECT_DOUBLE_EQ(go.terms.gain, 8.0 - 2.0); // 0.8*Tm - 2*(M/BW)
    EXPECT_NE(go.str().find("hot"), std::string::npos);

    dyn.seed("cold", 1.0, 50'000'000);
    decision::DecisionRecord stay = dyn.decide("cold", 3.0);
    EXPECT_EQ(stay.verdict, decision::Verdict::Unprofitable);
    EXPECT_FALSE(stay.offload);
    EXPECT_LE(stay.terms.gain, 0.0);
    EXPECT_STRNE(stay.reason(), "");
}

TEST(DecisionEngine, SingleProbeAccounting)
{
    decision::Engine dyn(5.0, 844e6);
    dyn.seed("t", 20.0, 500'000);
    dyn.recordFailure("t", 0.0); // window [0, 0.5)

    // Past the window: exactly one probe is granted...
    decision::DecisionRecord probe = dyn.decide("t", 1.0);
    EXPECT_EQ(probe.verdict, decision::Verdict::ProbeOffload);
    EXPECT_TRUE(probe.offload);
    EXPECT_TRUE(probe.probe);

    // ...and while it is unresolved, further calls stay local.
    decision::DecisionRecord pending = dyn.decide("t", 1.1);
    EXPECT_EQ(pending.verdict, decision::Verdict::ProbePending);
    EXPECT_FALSE(pending.offload);
    EXPECT_FALSE(pending.suppressed);

    // An abandoned probe (admission denial: link never exercised) is
    // returned un-spent, so the next decide may probe again.
    dyn.cancelProbe("t");
    decision::DecisionRecord again = dyn.decide("t", 1.2);
    EXPECT_EQ(again.verdict, decision::Verdict::ProbeOffload);

    // A failed probe re-opens a (doubled) suppression window.
    dyn.recordFailure("t", 1.2); // 2nd consecutive: [1.2, 2.2)
    EXPECT_EQ(dyn.decide("t", 2.0).verdict, decision::Verdict::Suppressed);
    EXPECT_EQ(dyn.decide("t", 2.3).verdict,
              decision::Verdict::ProbeOffload);

    // A successful probe ends recovery: plain offloads resume.
    dyn.recordSuccess("t");
    decision::DecisionRecord healthy = dyn.decide("t", 2.4);
    EXPECT_EQ(healthy.verdict, decision::Verdict::Offload);
    EXPECT_FALSE(healthy.probe);
}

TEST(DecisionEngine, QueueErasedOnlyWhenLoadSaysSo)
{
    decision::Engine dyn(5.0, 844e6);
    dyn.seed("t", 10.0, 500'000); // gain ~8 s

    decision::LoadSnapshot idle;
    idle.slotPool = 1;
    idle.activeSessions = 0;
    decision::DecisionRecord free_slot = dyn.decide("t", 0.0, &idle);
    EXPECT_EQ(free_slot.verdict, decision::Verdict::Offload);
    EXPECT_TRUE(free_slot.inputs.admissionAware);
    EXPECT_EQ(free_slot.terms.queueWaitSeconds, 0.0);

    decision::LoadSnapshot jammed;
    jammed.slotPool = 1;
    jammed.activeSessions = 1;
    jammed.queueDepth = 2;
    jammed.completedHolds = 4;
    jammed.meanHoldSeconds = 5.0; // E[wait] = 15 s > 8 s gain
    decision::DecisionRecord erased = dyn.decide("t", 0.0, &jammed);
    EXPECT_EQ(erased.verdict, decision::Verdict::QueueErased);
    EXPECT_FALSE(erased.offload);
    EXPECT_DOUBLE_EQ(erased.terms.queueWaitSeconds, 15.0);
    EXPECT_LE(erased.terms.gain, 0.0);
    EXPECT_EQ(erased.inputs.load.queueDepth, 2u);

    // Same pool, shallow queue: the wait no longer erases the gain.
    jammed.queueDepth = 0;
    EXPECT_EQ(dyn.decide("t", 0.0, &jammed).verdict,
              decision::Verdict::Offload);
}

TEST(DecisionEngine, RecordsEveryDecisionInOrder)
{
    decision::Engine dyn(5.0, 80e6);

    dyn.seed("hot", 10.0, 10'000'000);
    dyn.decide("hot", 1.0);
    dyn.decide("ghost", 2.0);
    dyn.seed("cold", 1.0, 50'000'000);
    dyn.decide("cold", 3.0);
    dyn.decide("hot", 4.0);

    const std::vector<decision::DecisionRecord> &records = dyn.records();
    ASSERT_EQ(records.size(), 4u);
    const std::pair<const char *, decision::Verdict> expected[] = {
        {"hot", decision::Verdict::Offload},
        {"ghost", decision::Verdict::UnknownTarget},
        {"cold", decision::Verdict::Unprofitable},
        {"hot", decision::Verdict::Offload},
    };
    for (size_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(records[i].target, expected[i].first);
        EXPECT_EQ(records[i].verdict, expected[i].second);
        EXPECT_EQ(records[i].sequence, i + 1);
    }
    // A record renders with its target and verdict name.
    std::string rendered = records[1].str();
    EXPECT_NE(rendered.find("ghost"), std::string::npos);
    EXPECT_NE(rendered.find("unknown-target"), std::string::npos);

    std::vector<decision::DecisionRecord> taken = dyn.takeRecords();
    EXPECT_EQ(taken.size(), 4u);
    EXPECT_TRUE(dyn.records().empty());
}

// ---------------------------------------------------------------------------
// decision::FleetPriors — aggregation and seeding
// ---------------------------------------------------------------------------

TEST(FleetPriorsUnit, AggregationMirrorsEngineEma)
{
    decision::FleetPriors priors;
    decision::Engine dyn(5.0, 80e6);

    // Feed both the same stream: the prior must equal the knowledge a
    // single engine would have accumulated.
    struct Obs {
        double seconds;
        uint64_t traffic;
    };
    std::vector<Obs> stream = {
        {8.0, 4'000'000}, {12.0, 8'000'000}, {6.0, 2'000'000}};
    for (const Obs &obs : stream) {
        dyn.observe("t", obs.seconds, obs.traffic);
        priors.recordObservation("t", obs.seconds, obs.traffic);
    }

    const decision::TargetPrior *prior = priors.lookup("t");
    ASSERT_NE(prior, nullptr);
    const decision::TargetKnowledge &know = dyn.knowledge().at("t");
    EXPECT_EQ(prior->mobileSecondsPerInvocation,
              know.mobileSecondsPerInvocation);
    EXPECT_EQ(prior->memBytes, know.memBytes);
    EXPECT_EQ(prior->observations, 3u);

    priors.recordFailure("t");
    EXPECT_EQ(priors.lookup("t")->totalFailures, 1u);
    EXPECT_EQ(priors.lookup("nope"), nullptr);
}

TEST(FleetPriorsUnit, SeedingWarmsAFreshEngine)
{
    decision::FleetPriors priors;

    // Session A runs attached: its observations publish fleet-wide.
    decision::Engine a(5.0, 80e6);
    a.attachFleetPriors(&priors);
    a.observe("hot", 10.0, 4'000'000);
    a.observe("hot", 12.0, 6'000'000);
    a.recordFailure("hot", 100.0);

    // Session B seeds at admission: it starts with the fleet's Tm/M
    // and observation count — never deciding cold on "hot"...
    decision::Engine b(5.0, 80e6);
    b.attachFleetPriors(&priors);
    EXPECT_EQ(b.seedFromPriors(), 1u);
    const decision::TargetKnowledge &know = b.knowledge().at("hot");
    EXPECT_EQ(know.mobileSecondsPerInvocation,
              priors.lookup("hot")->mobileSecondsPerInvocation);
    EXPECT_EQ(know.memBytes, priors.lookup("hot")->memBytes);
    EXPECT_EQ(know.observations, 2u);
    EXPECT_EQ(know.totalFailures, 1u); // telemetry travels...

    // ...but A's suppression window does NOT: B's link is not A's.
    EXPECT_EQ(know.consecutiveFailures, 0u);
    EXPECT_EQ(know.suppressedUntilSeconds, 0.0);
    decision::DecisionRecord warm = b.decide("hot", 100.1);
    EXPECT_EQ(warm.verdict, decision::Verdict::Offload);
    EXPECT_GT(warm.inputs.observations, 0u);

    EXPECT_EQ(priors.seededSessions(), 1u);
    EXPECT_EQ(priors.seededTargets(), 1u);

    // An engine with no priors attached seeds nothing.
    decision::Engine solo(5.0, 80e6);
    EXPECT_EQ(solo.seedFromPriors(), 0u);
}

// ---------------------------------------------------------------------------
// Fleet integration: the two flags end to end
// ---------------------------------------------------------------------------

namespace {

/** Compute-heavy workload with heap write-back (from test_fleet). */
const char *kComputeSrc = R"(
double* data;
int N;

double crunch(int rounds) {
    double acc = 0.0;
    for (int r = 0; r < rounds; r++) {
        for (int i = 0; i < N; i++) {
            data[i] = data[i] * 1.0001 + (double)((i * r) % 17) * 0.01;
            acc += data[i];
        }
    }
    return acc;
}

int main() {
    scanf("%d", &N);
    data = (double*)malloc(sizeof(double) * N);
    for (int i = 0; i < N; i++) data[i] = (double)i * 0.5;
    double total = 0.0;
    for (int turn = 0; turn < 3; turn++) {
        total += crunch(40);
        data[turn] = total;
    }
    printf("total=%.3f first=%.3f\n", total, data[0]);
    return ((int)total) % 97;
}
)";

/**
 * Comm-heavy, barely-profitable workload for admission experiments:
 * every call rewrites the whole (large) heap, so prefetch + write-back
 * dominate and a predicted queue wait can erase the modest gain.
 */
const char *kWaveSrc = R"(
double* data;
int N;

double wave(int rounds) {
    double acc = 0.0;
    for (int r = 0; r < rounds; r++) {
        for (int i = 0; i < N; i++) {
            data[i] = data[i] * 1.0001 + 0.25;
            acc += data[i];
        }
    }
    return acc;
}

int main() {
    int rounds;
    int calls;
    scanf("%d %d %d", &N, &rounds, &calls);
    data = (double*)malloc(sizeof(double) * N);
    for (int i = 0; i < N; i++) data[i] = (double)i;
    double total = 0.0;
    for (int k = 0; k < calls; k++) {
        total += wave(rounds);
        printf("wave %d done\n", k);
    }
    printf("total=%.3f\n", total);
    return ((int)total) % 89;
}
)";

compiler::CompiledProgram
compileSrc(const char *source, const char *name,
           const std::string &profile_stdin)
{
    auto mod = frontend::compileSource(source, name);
    compiler::CompileOptions options;
    options.profilingInput.stdinText = profile_stdin;
    return compiler::compileForOffload(std::move(mod), options);
}

std::vector<FleetClient>
staggeredClients(size_t n, const SystemConfig &cfg, const RunInput &input,
                 double gap_seconds)
{
    std::vector<FleetClient> clients;
    for (size_t i = 0; i < n; ++i) {
        FleetClient client;
        client.name = "client-" + std::to_string(i);
        client.config = cfg;
        client.input = input;
        client.startSeconds = static_cast<double>(i) * gap_seconds;
        clients.push_back(client);
    }
    return clients;
}

} // namespace

// A solo client with BOTH flags on must match the solo system exactly:
// priors have nobody to learn from, and with the slot pool idle the
// queue-wait term is identically zero — so the flags are inert.
TEST(DecisionFleet, SoloClientWithBothFlagsOnMatchesSolo)
{
    compiler::CompiledProgram prog =
        compileSrc(kComputeSrc, "compute", "1500");
    RunInput input;
    input.stdinText = "3000";
    SystemConfig cfg;
    cfg.network = net::makeWifi80211ac();

    OffloadSystem solo(prog, cfg);
    RunReport solo_report = solo.run(input);

    cfg.fleetPriorsEnabled = true;
    cfg.admissionAwareDecision = true;
    ServerRuntime server(prog);
    FleetClient client;
    client.name = "c0";
    client.config = cfg;
    client.input = input;
    FleetReport fleet = server.run({client});
    const RunReport &report = fleet.clients.at(0).report;

    EXPECT_EQ(report.console, solo_report.console);
    EXPECT_EQ(report.exitValue, solo_report.exitValue);
    EXPECT_DOUBLE_EQ(report.mobileSeconds, solo_report.mobileSeconds);
    EXPECT_DOUBLE_EQ(report.energyMillijoules,
                     solo_report.energyMillijoules);
    EXPECT_EQ(report.wireBytes, solo_report.wireBytes);
    EXPECT_EQ(report.offloads, solo_report.offloads);
    EXPECT_EQ(report.queueAvoidedLocals, 0u);
    EXPECT_EQ(report.priorsSeededTargets, 0u);
    // The decisions themselves are identical apart from the consulted
    // (all-idle) load snapshot.
    ASSERT_EQ(report.decisions.size(), solo_report.decisions.size());
    for (size_t i = 0; i < report.decisions.size(); ++i) {
        EXPECT_EQ(report.decisions[i].verdict,
                  solo_report.decisions[i].verdict);
        EXPECT_EQ(report.decisions[i].terms.gain,
                  solo_report.decisions[i].terms.gain);
    }
}

// The headline priors claim: arrivals AFTER the fleet has observed a
// target never offload cold. Serially staggered clients (each arrives
// after the previous finished) isolate the handshake from contention.
TEST(DecisionFleet, PriorsEliminateColdStartsForLateArrivals)
{
    compiler::CompiledProgram prog =
        compileSrc(kComputeSrc, "compute", "1500");
    RunInput input;
    input.stdinText = "3000";
    SystemConfig cfg;
    cfg.network = net::makeWifi80211ac();

    OffloadSystem solo(prog, cfg);
    RunReport solo_report = solo.run(input);
    ASSERT_GT(solo_report.offloads, 0u);
    double gap = solo_report.mobileSeconds * 2.0;

    auto run_fleet = [&](bool priors_on) {
        SystemConfig fleet_cfg = cfg;
        fleet_cfg.fleetPriorsEnabled = priors_on;
        ServerRuntime server(prog);
        return server.run(staggeredClients(3, fleet_cfg, input, gap));
    };

    FleetReport off = run_fleet(false);
    FleetReport on = run_fleet(true);

    // Priors off: every client re-pays the cold start.
    EXPECT_EQ(off.priorsSeededSessions, 0u);
    for (const FleetClientResult &result : off.clients)
        EXPECT_GE(result.report.coldStartOffloads, 1u);

    // Priors on: only the first client decides cold; the launch
    // handshake seeds everyone after it.
    EXPECT_GE(on.clients.at(0).report.coldStartOffloads, 1u);
    for (size_t i = 1; i < on.clients.size(); ++i) {
        const RunReport &report = on.clients[i].report;
        EXPECT_EQ(report.coldStartOffloads, 0u) << "client " << i;
        EXPECT_GE(report.priorsSeededTargets, 1u);
        // Provenance backs it: every offload verdict saw observations.
        for (const decision::DecisionRecord &record : report.decisions) {
            if (record.offload) {
                EXPECT_GT(record.inputs.observations, 0u);
            }
        }
    }
    EXPECT_EQ(on.priorsSeededSessions, 2u);
    EXPECT_LT(on.totalColdStartOffloads, off.totalColdStartOffloads);

    // The knowledge base changes decisions' starting point, never
    // outputs.
    for (const FleetClientResult &result : on.clients) {
        EXPECT_EQ(result.report.console, solo_report.console);
        EXPECT_EQ(result.report.exitValue, solo_report.exitValue);
    }
}

// Admission awareness on a saturated single-slot pool: predicted queue
// waits turn would-be denials into immediate local runs. Denials must
// strictly drop; outputs stay intact.
TEST(DecisionFleet, AdmissionAwareCutsDenialsOnSaturatedPool)
{
    compiler::CompiledProgram prog =
        compileSrc(kWaveSrc, "wave", "6000 1 2");
    RunInput input;
    input.stdinText = "20000 1 5";
    SystemConfig cfg;
    // Distant cloud + a larger footprint scale: communication is a big
    // slice of each call's modest gain, so a predicted queue wait can
    // erase it while an idle slot still favors offloading.
    cfg.network = net::makeLteCloud();
    cfg.memScale = 128.0;

    OffloadSystem solo(prog, cfg);
    RunReport solo_report = solo.run(input);

    auto run_fleet = [&](bool aware) {
        SystemConfig fleet_cfg = cfg;
        fleet_cfg.admissionAwareDecision = aware;
        AdmissionConfig policy;
        policy.maxConcurrentSessions = 1;
        ServerRuntime server(prog, policy);
        return server.run(staggeredClients(6, fleet_cfg, input, 2.0));
    };

    FleetReport off = run_fleet(false);
    FleetReport on = run_fleet(true);

    // The baseline actually saturates: denials occur.
    ASSERT_GE(off.admissionDenials, 1u);
    // Admission awareness strictly cuts them, and the cuts show up as
    // queue-erased verdicts with provenance.
    EXPECT_LT(on.admissionDenials, off.admissionDenials);
    EXPECT_GE(on.totalQueueAvoidedLocals, 1u);
    EXPECT_EQ(off.totalQueueAvoidedLocals, 0u);
    uint64_t queue_erased_records = 0;
    for (const FleetClientResult &result : on.clients) {
        for (const decision::DecisionRecord &record :
             result.report.decisions) {
            if (record.verdict == decision::Verdict::QueueErased) {
                ++queue_erased_records;
                EXPECT_TRUE(record.inputs.admissionAware);
                EXPECT_GT(record.terms.queueWaitSeconds, 0.0);
                EXPECT_LE(record.terms.gain, 0.0);
            }
        }
        EXPECT_EQ(result.report.console, solo_report.console);
        EXPECT_EQ(result.report.exitValue, solo_report.exitValue);
    }
    EXPECT_EQ(queue_erased_records, on.totalQueueAvoidedLocals);
    for (const FleetClientResult &result : off.clients) {
        EXPECT_EQ(result.report.console, solo_report.console);
        EXPECT_EQ(result.report.exitValue, solo_report.exitValue);
    }
}
