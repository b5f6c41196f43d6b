/**
 * @file
 * Fleet-layer tests: the discrete-event scheduler (EventLoop and
 * strands), the contended SharedMedium, admission control, and
 * the headline guarantee of the layering — a single-client fleet run
 * is indistinguishable, field by field, from the legacy solo
 * OffloadSystem::run().
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "codegen/cemitter.hpp"
#include "compiler/driver.hpp"
#include "frontend/codegen.hpp"
#include "net/medium.hpp"
#include "runtime/offload.hpp"
#include "runtime/server.hpp"
#include "sim/eventloop.hpp"

using namespace nol;
using namespace nol::runtime;

// ---------------------------------------------------------------------------
// EventLoop
// ---------------------------------------------------------------------------

TEST(EventLoop, EventsFireInTimeOrderInsertionBreaksTies)
{
    sim::EventLoop loop;
    std::vector<std::string> trace;
    loop.schedule(30, [&] { trace.push_back("t30"); });
    loop.schedule(10, [&] { trace.push_back("t10"); });
    loop.schedule(20, [&] { trace.push_back("t20a"); });
    loop.schedule(20, [&] { trace.push_back("t20b"); });
    loop.run();
    ASSERT_EQ(trace.size(), 4u);
    EXPECT_EQ(trace[0], "t10");
    EXPECT_EQ(trace[1], "t20a");
    EXPECT_EQ(trace[2], "t20b");
    EXPECT_EQ(trace[3], "t30");
}

TEST(EventLoop, CancelledEventNeverFires)
{
    sim::EventLoop loop;
    int fired = 0;
    uint64_t id = loop.schedule(10, [&] { ++fired; });
    loop.schedule(5, [&loop, id] { loop.cancel(id); });
    loop.cancel(999999); // unknown ids are ignored
    loop.run();
    EXPECT_EQ(fired, 0);
}

TEST(EventLoop, EventsMayScheduleEvents)
{
    sim::EventLoop loop;
    std::vector<std::string> trace;
    loop.schedule(10, [&] {
        trace.push_back("t10");
        loop.schedule(25, [&] { trace.push_back("t25"); });
    });
    loop.run();
    ASSERT_EQ(trace.size(), 2u);
    EXPECT_EQ(trace[0], "t10");
    EXPECT_EQ(trace[1], "t25");
}

TEST(EventLoop, StrandsInterleaveInVirtualTimeOrder)
{
    sim::EventLoop loop;
    std::vector<std::string> trace;

    // Each strand records, sleeps (event-wake) on the virtual
    // timeline, records again. The controller must interleave them by
    // virtual time, not by spawn order.
    sim::Strand *a = nullptr;
    sim::Strand *b = nullptr;
    a = loop.spawn("a", 0, [&] {
        trace.push_back("a@0");
        loop.schedule(40, [&] { loop.wake(*a, 40); });
        loop.block(*a);
        trace.push_back("a@40");
    });
    b = loop.spawn("b", 10, [&] {
        trace.push_back("b@10");
        loop.schedule(20, [&] { loop.wake(*b, 20); });
        double woke = loop.block(*b);
        EXPECT_DOUBLE_EQ(woke, 20.0);
        trace.push_back("b@20");
    });
    loop.run();

    ASSERT_EQ(trace.size(), 4u);
    EXPECT_EQ(trace[0], "a@0");
    EXPECT_EQ(trace[1], "b@10");
    EXPECT_EQ(trace[2], "b@20");
    EXPECT_EQ(trace[3], "a@40");
    EXPECT_TRUE(a->done());
    EXPECT_TRUE(b->done());
}

// ---------------------------------------------------------------------------
// SharedMedium
// ---------------------------------------------------------------------------

namespace {

constexpr double kRate = 1e8;    ///< 100 Mbps
constexpr double kLatency = 1.5e6; ///< 1.5 ms in ns
constexpr uint64_t kBytes = 125000; ///< 1e6 bits → 10 ms solo serialization

} // namespace

TEST(SharedMedium, UncontendedFlowReturnsClosedFormVerbatim)
{
    sim::EventLoop loop;
    net::SharedMedium medium(loop);
    double result = 0;
    sim::Strand *s = nullptr;
    // An arbitrary closed form must come back bit-identical: solo
    // sessions keep their SimNetwork's exact arithmetic.
    const double closed = 424242.4242;
    s = loop.spawn("solo", 0, [&] {
        result = medium.transfer(*s, 0, kBytes, kRate, kLatency, closed);
    });
    loop.run();
    EXPECT_EQ(result, closed);
    EXPECT_EQ(medium.stats().flows, 1u);
    EXPECT_EQ(medium.stats().contendedFlows, 0u);
    EXPECT_EQ(medium.stats().peakConcurrentFlows, 1u);
    EXPECT_DOUBLE_EQ(medium.stats().busySeconds, 0.01);
}

TEST(SharedMedium, TwoOverlappingFlowsShareFairly)
{
    sim::EventLoop loop;
    net::SharedMedium medium(loop);
    double d1 = 0, d2 = 0;
    sim::Strand *s1 = nullptr, *s2 = nullptr;
    s1 = loop.spawn("c1", 0, [&] {
        d1 = medium.transfer(*s1, 0, kBytes, kRate, kLatency, 1e7 + kLatency);
    });
    s2 = loop.spawn("c2", 0, [&] {
        d2 = medium.transfer(*s2, 0, kBytes, kRate, kLatency, 1e7 + kLatency);
    });
    loop.run();
    // Each of the two equal flows progresses at rate/2: serialization
    // doubles (10 ms → 20 ms); the latency tail is unchanged.
    EXPECT_DOUBLE_EQ(d1, 2e7 + kLatency);
    EXPECT_DOUBLE_EQ(d2, 2e7 + kLatency);
    EXPECT_EQ(medium.stats().contendedFlows, 2u);
    EXPECT_EQ(medium.stats().peakConcurrentFlows, 2u);
    EXPECT_DOUBLE_EQ(medium.stats().busySeconds, 0.02);
}

TEST(SharedMedium, StaggeredFlowsPayOnlyForTheOverlap)
{
    sim::EventLoop loop;
    net::SharedMedium medium(loop);
    double d1 = 0, d2 = 0;
    sim::Strand *s1 = nullptr, *s2 = nullptr;
    s1 = loop.spawn("c1", 0, [&] {
        d1 = medium.transfer(*s1, 0, kBytes, kRate, kLatency, 1e7 + kLatency);
    });
    // The second flow arrives halfway through the first.
    s2 = loop.spawn("c2", 5e6, [&] {
        d2 = medium.transfer(*s2, 5e6, kBytes, kRate, kLatency,
                             1e7 + kLatency);
    });
    loop.run();
    // Flow 1: 5 ms alone (half its bits) + 10 ms shared → done at 15 ms.
    // Flow 2: 10 ms shared (half its bits) + 5 ms alone → done at 20 ms.
    EXPECT_DOUBLE_EQ(d1, 1.5e7 + kLatency);
    EXPECT_DOUBLE_EQ(d2, 1.5e7 + kLatency);
    EXPECT_DOUBLE_EQ(medium.stats().busySeconds, 0.02);
}

// ---------------------------------------------------------------------------
// Solo ≡ single-client fleet
// ---------------------------------------------------------------------------

namespace {

/** Compute-heavy with heap write-back. */
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

/** Remote I/O inside the offloaded target (console + file reads). */
const char *kRemoteIoSrc = R"(
int grind(int rounds) {
    void* f = fopen("notes.txt", "r");
    int sum = 0;
    int c = fgetc(f);
    while (c != -1) {
        sum = sum + c;
        c = fgetc(f);
    }
    fclose(f);
    for (int r = 0; r < rounds; r++) {
        for (int i = 0; i < 6000; i++) {
            sum = (sum * 31 + i) % 100003;
        }
    }
    printf("sum=%d\n", sum);
    return sum;
}

int main() {
    int rounds;
    scanf("%d", &rounds);
    int out = grind(rounds);
    printf("out=%d\n", out);
    return out % 31;
}
)";

/** Integer kernel over a global array (dirty-page write-back). */
const char *kGlobalsSrc = R"(
int table[4096];

int churn(int rounds) {
    int acc = 0;
    for (int r = 0; r < rounds; r++) {
        for (int i = 0; i < 4096; i++) {
            table[i] = table[i] * 3 + r + i;
            acc = acc + table[i] % 7;
        }
    }
    return acc;
}

int main() {
    int rounds;
    scanf("%d", &rounds);
    int acc = churn(rounds);
    printf("acc=%d t0=%d t9=%d\n", acc, table[0], table[9]);
    return acc % 113;
}
)";

struct EquivCase {
    const char *name;
    const char *source;
    const char *profileStdin;
    const char *evalStdin;
    std::map<std::string, std::string> files;
};

std::vector<EquivCase>
equivCases()
{
    std::string notes;
    for (int i = 0; i < 600; ++i)
        notes += static_cast<char>('a' + i % 23);
    return {
        {"compute", kComputeSrc, "1500", "3000", {}},
        {"remote-io", kRemoteIoSrc, "25", "60", {{"notes.txt", notes}}},
        {"globals", kGlobalsSrc, "30", "80", {}},
    };
}

compiler::CompiledProgram
compileCase(const EquivCase &c)
{
    auto mod = frontend::compileSource(c.source, c.name);
    compiler::CompileOptions options;
    options.profilingInput.stdinText = c.profileStdin;
    options.profilingInput.files = c.files;
    return compiler::compileForOffload(std::move(mod), options);
}

RunInput
caseInput(const EquivCase &c)
{
    RunInput input;
    input.stdinText = c.evalStdin;
    input.files = c.files;
    return input;
}

RunReport
fleetSingle(const compiler::CompiledProgram &prog, const SystemConfig &cfg,
            const RunInput &input)
{
    ServerRuntime server(prog);
    FleetClient client;
    client.name = "c0";
    client.config = cfg;
    client.input = input;
    FleetReport fleet = server.run({client});
    return fleet.clients.at(0).report;
}

} // namespace

TEST(FleetEquivalence, SingleClientMatchesSoloOnBothNetworks)
{
    for (const EquivCase &c : equivCases()) {
        compiler::CompiledProgram prog = compileCase(c);
        for (bool slow : {false, true}) {
            SCOPED_TRACE(std::string(c.name) +
                         (slow ? " @802.11n" : " @802.11ac"));
            SystemConfig cfg;
            cfg.network =
                slow ? net::makeWifi80211n() : net::makeWifi80211ac();

            OffloadSystem solo(prog, cfg);
            RunReport solo_report = solo.run(caseInput(c));
            RunReport fleet_report = fleetSingle(prog, cfg, caseInput(c));
            std::string why;
            EXPECT_TRUE(reportsBitIdentical(solo_report, fleet_report, &why))
                << "first difference: " << why;
        }
    }
}

TEST(FleetEquivalence, SingleClientMatchesSoloUnderFaults)
{
    EquivCase c = equivCases()[0];
    compiler::CompiledProgram prog = compileCase(c);
    SystemConfig cfg;
    cfg.network = net::makeWifi80211n();
    cfg.faultPlan.enabled = true;
    cfg.faultPlan.seed = 77;
    cfg.faultPlan.dropRate = 0.10;
    cfg.faultPlan.latencySpikeRate = 0.05;

    OffloadSystem solo(prog, cfg);
    RunReport solo_report = solo.run(caseInput(c));
    RunReport fleet_report = fleetSingle(prog, cfg, caseInput(c));
    std::string why;
    EXPECT_TRUE(reportsBitIdentical(solo_report, fleet_report, &why))
        << "first difference: " << why;
}

// ---------------------------------------------------------------------------
// Multi-client fleets
// ---------------------------------------------------------------------------

namespace {

std::vector<FleetClient>
makeClients(size_t n, const SystemConfig &cfg, const RunInput &input)
{
    std::vector<FleetClient> clients;
    for (size_t i = 0; i < n; ++i) {
        FleetClient client;
        client.name = "client-" + std::to_string(i);
        client.config = cfg;
        client.input = input;
        // Slightly staggered arrivals: realistic and avoids pretending
        // perfectly synchronized devices.
        client.startSeconds = static_cast<double>(i) * 0.0005;
        clients.push_back(client);
    }
    return clients;
}

} // namespace

TEST(FleetRun, EightClientsStayCorrectUnderContention)
{
    EquivCase c = equivCases()[0];
    compiler::CompiledProgram prog = compileCase(c);
    SystemConfig cfg;
    cfg.network = net::makeWifi80211n();

    OffloadSystem solo(prog, cfg);
    RunReport solo_report = solo.run(caseInput(c));

    ServerRuntime server(prog);
    FleetReport fleet = server.run(makeClients(8, cfg, caseInput(c)));

    ASSERT_EQ(fleet.clients.size(), 8u);
    for (const FleetClientResult &result : fleet.clients) {
        // Contention changes timing, never results.
        EXPECT_EQ(result.report.console, solo_report.console);
        EXPECT_EQ(result.report.exitValue, solo_report.exitValue);
        EXPECT_GE(result.latencySeconds, 0.0);
        EXPECT_LE(result.finishSeconds, fleet.makespanSeconds);
    }
    // Everyone transferred concurrently at least once.
    EXPECT_GE(fleet.peakConcurrentFlows, 2u);
    EXPECT_GT(fleet.totalOffloads, 0u);
    EXPECT_GT(fleet.mediumBusySeconds, 0.0);
    // A shared channel can only be slower than a private one.
    EXPECT_GE(fleet.latencyP95Seconds, solo_report.mobileSeconds);
    EXPECT_GE(fleet.latencyP95Seconds, fleet.latencyP50Seconds);
}

TEST(FleetRun, RepeatRunsAreBitIdentical)
{
    EquivCase c = equivCases()[2];
    compiler::CompiledProgram prog = compileCase(c);
    SystemConfig cfg;
    cfg.network = net::makeWifi80211ac();

    ServerRuntime server_a(prog);
    ServerRuntime server_b(prog);
    FleetReport a = server_a.run(makeClients(6, cfg, caseInput(c)));
    FleetReport b = server_b.run(makeClients(6, cfg, caseInput(c)));

    EXPECT_EQ(a.makespanSeconds, b.makespanSeconds);
    EXPECT_EQ(a.totalOffloads, b.totalOffloads);
    EXPECT_EQ(a.admissionWaits, b.admissionWaits);
    ASSERT_EQ(a.clients.size(), b.clients.size());
    for (size_t i = 0; i < a.clients.size(); ++i) {
        EXPECT_EQ(a.clients[i].report.mobileSeconds,
                  b.clients[i].report.mobileSeconds);
        EXPECT_EQ(a.clients[i].report.wireBytes,
                  b.clients[i].report.wireBytes);
    }
}

TEST(FleetAdmission, SingleSlotQueuesFifoWithoutDeadlock)
{
    EquivCase c = equivCases()[2];
    compiler::CompiledProgram prog = compileCase(c);
    SystemConfig cfg;
    cfg.network = net::makeWifi80211ac();

    OffloadSystem solo(prog, cfg);
    RunReport solo_report = solo.run(caseInput(c));

    AdmissionConfig policy;
    policy.maxConcurrentSessions = 1;
    // Virtual minutes per offload on these slow simulated cores, so the
    // timeout must be effectively infinite for "nobody is denied".
    policy.maxQueueWaitSeconds = 1e6;
    ServerRuntime server(prog, policy);
    FleetReport fleet = server.run(makeClients(4, cfg, caseInput(c)));

    EXPECT_GE(fleet.admissionWaits, 1u);
    EXPECT_EQ(fleet.admissionDenials, 0u);
    EXPECT_GT(fleet.admissionWaitSeconds, 0.0);
    EXPECT_EQ(fleet.peakConcurrentSessions, 1u);
    for (const FleetClientResult &result : fleet.clients) {
        EXPECT_EQ(result.report.console, solo_report.console);
        EXPECT_EQ(result.report.exitValue, solo_report.exitValue);
    }
}

// ---------------------------------------------------------------------------
// Page cache: cache-on vs cache-off equivalence
// ---------------------------------------------------------------------------

namespace {

/** Sum one wire category over every client of a fleet. */
uint64_t
fleetCategoryBytes(const FleetReport &fleet, const std::string &category)
{
    uint64_t total = 0;
    for (const FleetClientResult &result : fleet.clients) {
        auto it = result.report.bytesByCategory.find(category);
        if (it != result.report.bytesByCategory.end())
            total += it->second;
    }
    return total;
}

FleetReport
runFleetCache(const compiler::CompiledProgram &prog, SystemConfig cfg,
              size_t n, bool cache_on, const RunInput &input)
{
    cfg.pageCacheEnabled = cache_on;
    ServerRuntime server(prog);
    return server.run(makeClients(n, cfg, input));
}

} // namespace

// The headline invariant of the cache: it changes how many bytes move,
// never what any client computes. Sweep every workload on both
// networks, fault-free and faulty.
TEST(FleetPageCache, CacheOnVsOffSweepKeepsOutputsIdentical)
{
    for (const EquivCase &c : equivCases()) {
        compiler::CompiledProgram prog = compileCase(c);
        for (bool slow : {false, true}) {
            for (bool faults : {false, true}) {
                SCOPED_TRACE(std::string(c.name) +
                             (slow ? " @802.11n" : " @802.11ac") +
                             (faults ? " +faults" : ""));
                SystemConfig cfg;
                cfg.network =
                    slow ? net::makeWifi80211n() : net::makeWifi80211ac();
                if (faults) {
                    cfg.faultPlan.enabled = true;
                    cfg.faultPlan.seed = 1234;
                    cfg.faultPlan.dropRate = 0.08;
                    cfg.faultPlan.latencySpikeRate = 0.04;
                }

                FleetReport off =
                    runFleetCache(prog, cfg, 3, false, caseInput(c));
                FleetReport on =
                    runFleetCache(prog, cfg, 3, true, caseInput(c));

                ASSERT_EQ(on.clients.size(), off.clients.size());
                for (size_t i = 0; i < on.clients.size(); ++i) {
                    EXPECT_EQ(on.clients[i].report.console,
                              off.clients[i].report.console);
                    EXPECT_EQ(on.clients[i].report.exitValue,
                              off.clients[i].report.exitValue);
                }
                if (!faults) {
                    // Dedupe can only remove prefetch bytes; the small
                    // digest handshake is the only thing it adds.
                    EXPECT_LE(fleetCategoryBytes(on, "prefetch"),
                              fleetCategoryBytes(off, "prefetch"));
                }
            }
        }
    }
}

// At N ≥ 2 on the prefetch-heavy workload, shared pages must actually
// come off the medium: strictly fewer prefetch bytes and strictly
// fewer total bytes, despite the added digest traffic.
TEST(FleetPageCache, SharedPagesComeOffTheMediumAtTwoPlusClients)
{
    EquivCase c = equivCases()[0]; // compute: dirties heap before calls
    compiler::CompiledProgram prog = compileCase(c);
    SystemConfig cfg;
    cfg.network = net::makeWifi80211ac();

    for (size_t n : {2u, 4u}) {
        SCOPED_TRACE("N=" + std::to_string(n));
        FleetReport off = runFleetCache(prog, cfg, n, false, caseInput(c));
        FleetReport on = runFleetCache(prog, cfg, n, true, caseInput(c));
        EXPECT_LT(fleetCategoryBytes(on, "prefetch"),
                  fleetCategoryBytes(off, "prefetch"));
        EXPECT_LT(on.mediumBytes, off.mediumBytes);
        EXPECT_GT(on.cache.hitPages + on.cache.coalescedPages, 0u);
    }
}

// A 1-client fleet with the cache requested must still run the legacy
// path and stay bit-identical to the solo system, field by field.
TEST(FleetPageCache, SingleClientCacheOnIsBitIdenticalToSolo)
{
    for (const EquivCase &c : equivCases()) {
        SCOPED_TRACE(c.name);
        compiler::CompiledProgram prog = compileCase(c);
        SystemConfig cfg;
        cfg.network = net::makeWifi80211ac();

        OffloadSystem solo(prog, cfg);
        RunReport solo_report = solo.run(caseInput(c));

        cfg.pageCacheEnabled = true;
        ServerRuntime server(prog);
        FleetClient client;
        client.name = "c0";
        client.config = cfg;
        client.input = caseInput(c);
        FleetReport fleet = server.run({client});
        std::string why;
        EXPECT_TRUE(reportsBitIdentical(solo_report,
                                        fleet.clients.at(0).report, &why))
            << "first difference: " << why;
        EXPECT_EQ(fleet.cache.lookups, 0u);
    }
}

// Cache-off multi-client runs must be bit-identical to a build that
// never had a cache — i.e. to themselves, deterministically, with all
// cache accounting at zero.
TEST(FleetPageCache, CacheOffFleetHasZeroCacheFootprint)
{
    EquivCase c = equivCases()[0];
    compiler::CompiledProgram prog = compileCase(c);
    SystemConfig cfg;
    cfg.network = net::makeWifi80211n();

    FleetReport fleet = runFleetCache(prog, cfg, 4, false, caseInput(c));
    EXPECT_EQ(fleet.cache.lookups, 0u);
    EXPECT_EQ(fleet.cache.insertedPages, 0u);
    EXPECT_EQ(fleetCategoryBytes(fleet, "digest"), 0u);
    for (const FleetClientResult &result : fleet.clients) {
        EXPECT_EQ(result.report.digestHandshakes, 0u);
        EXPECT_EQ(result.report.prefetchPagesCached, 0u);
    }
}

TEST(FleetPageCache, CachedRunsAreBitIdenticalAcrossRepeats)
{
    EquivCase c = equivCases()[0];
    compiler::CompiledProgram prog = compileCase(c);
    SystemConfig cfg;
    cfg.network = net::makeWifi80211ac();

    FleetReport a = runFleetCache(prog, cfg, 4, true, caseInput(c));
    FleetReport b = runFleetCache(prog, cfg, 4, true, caseInput(c));
    EXPECT_EQ(a.makespanSeconds, b.makespanSeconds);
    EXPECT_EQ(a.mediumBytes, b.mediumBytes);
    EXPECT_EQ(a.cache.hitPages, b.cache.hitPages);
    EXPECT_EQ(a.cache.coalescedPages, b.cache.coalescedPages);
    EXPECT_EQ(a.cache.missPages, b.cache.missPages);
    ASSERT_EQ(a.clients.size(), b.clients.size());
    for (size_t i = 0; i < a.clients.size(); ++i) {
        EXPECT_EQ(a.clients[i].report.mobileSeconds,
                  b.clients[i].report.mobileSeconds);
        EXPECT_EQ(a.clients[i].report.wireBytes,
                  b.clients[i].report.wireBytes);
    }
}

TEST(FleetAdmission, QueueTimeoutOverflowsToLocalExecution)
{
    EquivCase c = equivCases()[2];
    compiler::CompiledProgram prog = compileCase(c);
    SystemConfig cfg;
    cfg.network = net::makeWifi80211ac();

    OffloadSystem solo(prog, cfg);
    RunReport solo_report = solo.run(caseInput(c));

    AdmissionConfig policy;
    policy.maxConcurrentSessions = 1;
    policy.maxQueueWaitSeconds = 1e-6; // effectively: never wait
    ServerRuntime server(prog, policy);
    FleetReport fleet = server.run(makeClients(4, cfg, caseInput(c)));

    EXPECT_GE(fleet.admissionDenials, 1u);
    uint64_t overflow_events = 0;
    for (const FleetClientResult &result : fleet.clients) {
        for (const OffloadEvent &event : result.report.events) {
            if (event.overflow) {
                ++overflow_events;
                EXPECT_FALSE(event.offloaded);
            }
        }
        // Overflow degrades to local execution; results are intact.
        EXPECT_EQ(result.report.console, solo_report.console);
        EXPECT_EQ(result.report.exitValue, solo_report.exitValue);
    }
    EXPECT_GE(overflow_events, fleet.admissionDenials);
}

namespace {

/** One value per line; floats in %a, so the text keeps every bit. */
class GoldenText
{
  public:
    template <typename... Ts>
    void
    add(const Ts &...values)
    {
        (addOne(values), ...);
    }

    const std::string &str() const { return text_; }

  private:
    template <typename T>
    void
    addOne(const T &value)
    {
        if constexpr (std::is_same_v<T, std::string>) {
            text_ += std::to_string(value.size()) + ':' + value;
        } else if constexpr (std::is_floating_point_v<T>) {
            char buf[32];
            std::snprintf(buf, sizeof buf, "%a", value);
            text_ += buf;
        } else if constexpr (std::is_signed_v<T>) {
            text_ += std::to_string(static_cast<int64_t>(value));
        } else {
            text_ += std::to_string(static_cast<uint64_t>(value));
        }
        text_ += '\n';
    }

    std::string text_;
};

/** Digest of a whole fleet run: the aggregates, each client's timing
 *  and each client's runtime::reportText. */
std::string
fleetDigest(const FleetReport &f)
{
    const PageCacheStats &c = f.cache;
    GoldenText t;
    t.add(f.makespanSeconds, f.totalOffloads, f.totalLocalRuns,
          f.totalFailovers);
    t.add(f.admissionWaits, f.admissionDenials, f.admissionWaitSeconds);
    t.add(f.serverBusySeconds, f.mediumBusySeconds, f.mediumBytes,
          f.offloadsPerSecond);
    t.add(f.latencyP50Seconds, f.latencyP95Seconds, f.latencyP99Seconds,
          f.latencyP999Seconds);
    t.add(f.peakConcurrentSessions, f.peakConcurrentFlows);
    t.add(c.lookups, c.hitPages, c.coalescedPages, c.missPages,
          c.insertedPages, c.evictedPages, c.prefetchWaves,
          c.batchedSessions);
    t.add(f.priorsSeededSessions, f.priorsSeededTargets,
          f.totalColdStartOffloads, f.totalQueueAvoidedLocals);
    t.add(f.clients.size());
    for (const FleetClientResult &client : f.clients) {
        t.add(client.name, client.startSeconds, client.finishSeconds,
              client.latencySeconds, reportText(client.report));
    }
    return codegen::contentDigest(t.str());
}

/**
 * Digests of the FIFO sweep below. The runs they hash were first
 * pinned while the pre-refactor inline FIFO queue still existed and was
 * asserted bit-identical to the policy-interface FIFO in every cell;
 * these values re-hash the same runs through runtime::reportText, on
 * the runtime that still matched those first digests. They pin
 * admission (and everything it feeds). A change meant to alter these
 * runs updates them from the digests the failing test prints, and says
 * why.
 */
const std::map<std::string, std::string> kFifoSweepGolden = {
    {"compute @802.11ac", "ca99d61296303172"},
    {"compute @802.11ac +faults", "179931f2a39ac2fb"},
    {"compute @802.11n", "cc059d004d4c6d92"},
    {"compute @802.11n +faults", "02d3128ff561fab1"},
    {"remote-io @802.11ac", "586fa2a495f956e8"},
    {"remote-io @802.11ac +faults", "990c25b3e903948d"},
    {"remote-io @802.11n", "5ef5575a36a9ed9b"},
    {"remote-io @802.11n +faults", "3b1dbfcccec256b9"},
    {"globals @802.11ac", "beb5665d867ab6f0"},
    {"globals @802.11ac +faults", "ddcfe4919ddd35ce"},
    {"globals @802.11n", "54aeea32db813f9b"},
    {"globals @802.11n +faults", "d7d0976883039b5a"},
};

} // namespace

/**
 * FIFO admission across workloads, networks and fault injection, on a
 * contended slot pool: 6 clients, 2 slots and an effectively infinite
 * queue timeout, so 4 clients wait and each inherits a freed slot
 * through the policy's selectNext() (the handoff path). Each cell's
 * full FleetReport must hash to its golden digest.
 */
TEST(FleetEquivalence, FifoSweepMatchesGoldenDigests)
{
    for (const EquivCase &c : equivCases()) {
        compiler::CompiledProgram prog = compileCase(c);
        for (bool slow : {false, true}) {
            for (bool faults : {false, true}) {
                std::string cell = std::string(c.name) +
                                   (slow ? " @802.11n" : " @802.11ac") +
                                   (faults ? " +faults" : "");
                SCOPED_TRACE(cell);
                SystemConfig cfg;
                cfg.network = slow ? net::makeWifi80211n()
                                   : net::makeWifi80211ac();
                if (faults) {
                    cfg.faultPlan.enabled = true;
                    cfg.faultPlan.seed = 77;
                    // High enough that every program retries, even
                    // globals with its handful of messages.
                    cfg.faultPlan.dropRate = 0.45;
                    cfg.faultPlan.latencySpikeRate = 0.05;
                }

                AdmissionConfig admission;
                admission.maxConcurrentSessions = 2; // queue 4 of 6
                // Slot holders keep their slot for ~100 virtual
                // seconds; the default 5 s timeout would deny every
                // waiter before any handoff.
                admission.maxQueueWaitSeconds = 1e9;

                // The profiling input is a lighter run than the eval
                // input but drives the exact same offload decisions —
                // the sweep is about queue bookkeeping, not scale.
                RunInput input;
                input.stdinText = c.profileStdin;
                input.files = c.files;

                ServerRuntime server(prog, admission);
                FleetReport fleet = server.run(makeClients(6, cfg, input));

                EXPECT_EQ(fleet.admissionWaits, 4u);
                EXPECT_EQ(fleet.admissionDenials, 0u);
                EXPECT_EQ(fleet.totalOffloads, 6u);
                uint64_t retries = 0;
                for (const FleetClientResult &result : fleet.clients)
                    retries += result.report.retries;
                EXPECT_EQ(retries > 0, faults);
                EXPECT_EQ(fleetDigest(fleet), kFifoSweepGolden.at(cell));
            }
        }
    }
}
