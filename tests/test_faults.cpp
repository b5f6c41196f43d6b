/**
 * @file
 * Deterministic network-fault injection and runtime failover tests.
 *
 * The headline harness sweeps fault seeds × workloads × network specs
 * and asserts the equivalence invariant: *program output and exit
 * state under any fault schedule are byte-identical to the force-local
 * run*. Offloading with failures must never change observable
 * behavior — only timing and energy. Around it sit unit tests for the
 * FaultPlan injector (determinism, drop/disconnect/reconnect
 * semantics), the retry/timeout arithmetic, and the estimator's
 * failover suppression.
 *
 * Every suite or instantiation here is named with a "faults" prefix so
 * `ctest -R faults` selects the whole file.
 */
#include <gtest/gtest.h>

#include "compiler/driver.hpp"
#include "decision/engine.hpp"
#include "frontend/codegen.hpp"
#include "net/simnetwork.hpp"
#include "runtime/offload.hpp"
#include "runtime/server.hpp"
#include "support/rng.hpp"

using namespace nol;
using namespace nol::runtime;

// ---------------------------------------------------------------------------
// FaultPlan injector
// ---------------------------------------------------------------------------

TEST(faults, PlanFromSeedIsDeterministic)
{
    for (uint64_t seed : {0ull, 1ull, 42ull, 0xdeadbeefull}) {
        net::FaultPlan a = net::FaultPlan::fromSeed(seed);
        net::FaultPlan b = net::FaultPlan::fromSeed(seed);
        EXPECT_TRUE(a.enabled);
        EXPECT_DOUBLE_EQ(a.dropRate, b.dropRate);
        EXPECT_DOUBLE_EQ(a.latencySpikeRate, b.latencySpikeRate);
        EXPECT_DOUBLE_EQ(a.bandwidthFactor, b.bandwidthFactor);
        EXPECT_EQ(a.disconnectAtMessage, b.disconnectAtMessage);
        EXPECT_EQ(a.disconnectAtByte, b.disconnectAtByte);
        EXPECT_EQ(a.reconnectAfterAttempts, b.reconnectAfterAttempts);
    }
    // Different seeds give different plans (overwhelmingly likely).
    net::FaultPlan a = net::FaultPlan::fromSeed(1);
    net::FaultPlan b = net::FaultPlan::fromSeed(2);
    EXPECT_NE(a.dropRate, b.dropRate);
}

TEST(faults, SameSeedSameEventTrace)
{
    net::FaultPlan plan;
    plan.enabled = true;
    plan.seed = 99;
    plan.dropRate = 0.3;
    plan.latencySpikeRate = 0.2;
    plan.disconnectAtMessage = 40;
    plan.reconnectAfterAttempts = 3;

    net::SimNetwork net_a(net::makeWifi80211ac());
    net::SimNetwork net_b(net::makeWifi80211ac());
    net_a.setFaultPlan(plan);
    net_b.setFaultPlan(plan);

    Rng traffic(7);
    for (int i = 0; i < 200; ++i) {
        uint64_t bytes = 64 + traffic.below(8192);
        bool unscaled = traffic.chance(0.5);
        // NOTE: both networks see the identical message sequence; the
        // traffic rng is shared, the fault rngs are per-network.
        net::AttemptPlan ra = net_a.planAttempt(bytes, unscaled);
        net::AttemptPlan rb = net_b.planAttempt(bytes, unscaled);
        ASSERT_EQ(static_cast<int>(ra.outcome),
                  static_cast<int>(rb.outcome))
            << "attempt " << i;
        ASSERT_DOUBLE_EQ(ra.ns, rb.ns) << "attempt " << i;
    }
    ASSERT_EQ(net_a.faultEvents().size(), net_b.faultEvents().size());
    EXPECT_TRUE(net_a.faultEvents() == net_b.faultEvents());
    EXPECT_GT(net_a.faultEvents().size(), 0u);
}

TEST(faults, DisabledPlanMatchesPlainTransfer)
{
    net::SimNetwork injected(net::makeWifi80211n(), 16.0);
    injected.setFaultPlan({}); // disabled
    for (uint64_t bytes : {64ull, 4096ull, 1000000ull}) {
        for (bool unscaled : {false, true}) {
            net::AttemptPlan r = injected.planAttempt(bytes, unscaled);
            EXPECT_EQ(static_cast<int>(r.outcome),
                      static_cast<int>(net::TransferOutcome::Delivered));
            // Exactly the closed-form clean-link duration, bit for bit.
            EXPECT_EQ(r.ns, injected.transferTimeNs(bytes, unscaled));
        }
    }
    EXPECT_TRUE(injected.faultEvents().empty());
}

TEST(faults, DisconnectAtMessageTakesLinkDown)
{
    net::FaultPlan plan;
    plan.enabled = true;
    plan.disconnectAtMessage = 3;
    net::SimNetwork net(net::makeWifi80211ac());
    net.setFaultPlan(plan);

    auto send = [&] { return net.planAttempt(1024); };
    EXPECT_EQ(static_cast<int>(send().outcome),
              static_cast<int>(net::TransferOutcome::Delivered));
    EXPECT_EQ(static_cast<int>(send().outcome),
              static_cast<int>(net::TransferOutcome::Delivered));
    EXPECT_EQ(static_cast<int>(send().outcome),
              static_cast<int>(net::TransferOutcome::LinkDown));
    EXPECT_FALSE(net.linkUp());
    // No reconnect schedule: the link stays down forever.
    for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(static_cast<int>(send().outcome),
                  static_cast<int>(net::TransferOutcome::LinkDown));
    }
    ASSERT_FALSE(net.faultEvents().empty());
    EXPECT_EQ(static_cast<int>(net.faultEvents()[0].kind),
              static_cast<int>(net::FaultKind::Disconnect));
    EXPECT_EQ(net.faultEvents()[0].attempt, 3u);
}

TEST(faults, DisconnectAtByteAndReconnect)
{
    net::FaultPlan plan;
    plan.enabled = true;
    plan.disconnectAtByte = 10000;
    plan.reconnectAfterAttempts = 2;
    net::SimNetwork net(net::makeWifi80211ac());
    net.setFaultPlan(plan);

    auto send = [&] { return net.planAttempt(4096).outcome; };
    EXPECT_EQ(static_cast<int>(send()),
              static_cast<int>(net::TransferOutcome::Delivered)); // 4096
    EXPECT_EQ(static_cast<int>(send()),
              static_cast<int>(net::TransferOutcome::Delivered)); // 8192
    // 12288 ≥ 10000: down. The triggering attempt counts as the first
    // failed attempt while down; the next one is the second; the third
    // heals the link.
    EXPECT_EQ(static_cast<int>(send()),
              static_cast<int>(net::TransferOutcome::LinkDown));
    EXPECT_FALSE(net.linkUp());
    EXPECT_EQ(static_cast<int>(send()),
              static_cast<int>(net::TransferOutcome::LinkDown));
    EXPECT_EQ(static_cast<int>(send()),
              static_cast<int>(net::TransferOutcome::Delivered));
    EXPECT_TRUE(net.linkUp());
    // A byte-disconnect fires once: crossing the threshold again later
    // does not take the link down a second time.
    EXPECT_EQ(static_cast<int>(send()),
              static_cast<int>(net::TransferOutcome::Delivered));
}

// ---------------------------------------------------------------------------
// Retry policy arithmetic
// ---------------------------------------------------------------------------

TEST(faults, BackoffIsBoundedExponential)
{
    // 1 ms, doubling per retry, capped at 64 ms.
    EXPECT_DOUBLE_EQ(retryBackoffNs(0), 1e6);
    EXPECT_DOUBLE_EQ(retryBackoffNs(1), 2e6);
    EXPECT_DOUBLE_EQ(retryBackoffNs(2), 4e6);
    EXPECT_DOUBLE_EQ(retryBackoffNs(5), 32e6);
    EXPECT_DOUBLE_EQ(retryBackoffNs(6), 64e6);  // hits the cap
    EXPECT_DOUBLE_EQ(retryBackoffNs(7), 64e6);  // stays capped
    EXPECT_DOUBLE_EQ(retryBackoffNs(60), 64e6); // no overflow blowup
    // Monotone nondecreasing.
    for (uint32_t i = 0; i + 1 < 20; ++i)
        EXPECT_LE(retryBackoffNs(i), retryBackoffNs(i + 1));
}

TEST(faults, TimeoutCoversExpectedTransfer)
{
    // Twice the expected transfer plus 1 ms of ack-wait slack.
    EXPECT_DOUBLE_EQ(retryTimeoutNs(0.0), 1e6);
    EXPECT_DOUBLE_EQ(retryTimeoutNs(5e6), 11e6);
    for (double expected : {1e3, 1e6, 1e9})
        EXPECT_GT(retryTimeoutNs(expected), expected);
}

// ---------------------------------------------------------------------------
// Estimator failover suppression
// ---------------------------------------------------------------------------

TEST(faults, SuppressionWindowGrowsAndCaps)
{
    EXPECT_DOUBLE_EQ(decision::Engine::failurePenaltySeconds(1), 0.5);
    EXPECT_DOUBLE_EQ(decision::Engine::failurePenaltySeconds(2), 1.0);
    EXPECT_DOUBLE_EQ(decision::Engine::failurePenaltySeconds(3), 2.0);
    EXPECT_DOUBLE_EQ(decision::Engine::failurePenaltySeconds(64), 120.0);
    for (uint64_t n = 1; n < 30; ++n)
        EXPECT_LE(decision::Engine::failurePenaltySeconds(n),
                  decision::Engine::failurePenaltySeconds(n + 1));
}

TEST(faults, EstimatorSuppressesAfterFailureAndProbesAfterWindow)
{
    decision::Engine dyn(5.0, 844e6);
    dyn.seed("t", /*Tm=*/10.0, /*M=*/1'000'000); // clearly profitable
    ASSERT_TRUE(dyn.decide("t", 0.0).offload);

    dyn.recordFailure("t", 0.0); // window: 0.5 s
    EXPECT_FALSE(dyn.decide("t", 0.1).offload);
    EXPECT_TRUE(dyn.decide("t", 0.1).suppressed);
    // After the window: one recovery probe is allowed again.
    EXPECT_TRUE(dyn.decide("t", 0.6).offload);

    dyn.recordFailure("t", 0.6); // 2nd consecutive: window 1.0 s
    EXPECT_TRUE(dyn.decide("t", 1.5).suppressed);
    EXPECT_TRUE(dyn.decide("t", 1.7).offload);

    // Success resets the streak entirely.
    dyn.recordSuccess("t");
    EXPECT_TRUE(dyn.decide("t", 1.7).offload);
    dyn.recordFailure("t", 2.0); // back to the 0.5 s base window
    EXPECT_TRUE(dyn.decide("t", 2.4).suppressed);
    EXPECT_TRUE(dyn.decide("t", 2.6).offload);
}

// ---------------------------------------------------------------------------
// Equivalence harness: fault-injected output == force-local output
// ---------------------------------------------------------------------------

namespace {

/**
 * Five small programs covering the distinct mobile↔server data paths:
 * heap mutation (prefetch + write-back), strided page sync
 * (copy-on-demand), console remote I/O, file-input remote I/O, and
 * function pointers.
 */
struct FaultWorkload {
    const char *name;
    const char *source;
    const char *profileStdin;
    const char *evalStdin;
    const char *filePath; ///< nullptr: no input file
};

const FaultWorkload kFaultWorkloads[] = {
    {"crunch", R"(
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
                total += crunch(30);
                data[turn] = total;
            }
            printf("total=%.3f first=%.3f\n", total, data[0]);
            return ((int)total) % 97;
        }
    )", "800", "1600", nullptr},
    {"sync", R"(
        long* buf;
        long mutate() {
            long sum = 0;
            for (int r = 0; r < 30; r++) {
                for (int i = 0; i < 3000; i += 7) {
                    buf[i] = buf[i] * 3 + r;
                    sum += buf[i];
                }
            }
            return sum;
        }
        int main() {
            scanf("%d", 0);
            buf = (long*)malloc(sizeof(long) * 3000);
            for (int i = 0; i < 3000; i++) buf[i] = i;
            long s = mutate();
            long check = 0;
            for (int i = 0; i < 3000; i++) check = check * 31 + buf[i];
            printf("%ld %ld\n", s, check);
            return (int)((check % 89 + 89) % 89);
        }
    )", "1", "1", nullptr},
    {"rio", R"(
        int heavy(int n) {
            int s = 0;
            for (int i = 0; i < n; i++) {
                for (int j = 0; j < 500; j++) s += (i * j) % 13;
                if (i % 800 == 0) printf("tick %d\n", i);
            }
            return s;
        }
        int main() {
            int r = heavy(3200);
            printf("done %d\n", r);
            return r % 11;
        }
    )", "", "", nullptr},
    {"file", R"(
        int heavy() {
            void* f = fopen("in.dat", "r");
            if (!f) return -1;
            int sum = 0;
            int c;
            while ((c = fgetc(f)) >= 0) {
                for (int j = 0; j < 25; j++) sum += (c * j) % 7;
            }
            fclose(f);
            return sum;
        }
        int main() {
            int r = heavy();
            printf("sum %d\n", r);
            return r % 100;
        }
    )", "", "", "in.dat"},
    {"fptr", R"(
        typedef double (*OP)(double);
        double half(double x) { return x * 0.5; }
        double twice(double x) { return x * 2.0; }
        double third(double x) { return x / 3.0; }
        OP ops[3] = { half, twice, third };
        double heavy(int n) {
            double acc = 1000000.0;
            for (int i = 0; i < n; i++) {
                OP f = ops[i % 3];
                acc = f(acc) + 1.0;
                for (int j = 0; j < 200; j++) acc += (double)(j % 5) * 0.001;
            }
            return acc;
        }
        int main() {
            double r = heavy(6000);
            printf("acc %.3f\n", r);
            return (int)r % 1000;
        }
    )", "", "", nullptr},
};

constexpr int kNumWorkloads = 5;
constexpr int kNumNetworks = 3;
constexpr int kNumSeeds = 8;

net::NetworkSpec
faultNetwork(int index)
{
    switch (index) {
      case 0: return net::makeWifi80211n();
      case 1: return net::makeWifi80211ac();
      default: return net::makeLteCloud();
    }
}

std::string
fileBlob()
{
    std::string blob;
    for (int i = 0; i < 30000; ++i)
        blob += static_cast<char>('A' + i % 26);
    return blob;
}

/** Compiled program + force-local golden report, built once per suite. */
struct CompiledFaultWorkload {
    compiler::CompiledProgram program;
    RunInput input;
    RunReport local;
};

const CompiledFaultWorkload &
compiledWorkload(int index)
{
    static CompiledFaultWorkload cache[kNumWorkloads];
    static bool ready[kNumWorkloads] = {};
    if (!ready[index]) {
        const FaultWorkload &wl = kFaultWorkloads[index];
        auto mod = frontend::compileSource(wl.source, wl.name);
        compiler::CompileOptions options;
        options.profilingInput.stdinText = wl.profileStdin;
        if (wl.filePath != nullptr)
            options.profilingInput.files[wl.filePath] = fileBlob();
        cache[index].program =
            compiler::compileForOffload(std::move(mod), options);

        cache[index].input.stdinText = wl.evalStdin;
        if (wl.filePath != nullptr)
            cache[index].input.files[wl.filePath] = fileBlob();

        SystemConfig local_cfg;
        local_cfg.forceLocal = true;
        cache[index].local =
            OffloadSystem(cache[index].program, local_cfg)
                .run(cache[index].input);
        ready[index] = true;
    }
    return cache[index];
}

} // namespace

class FaultEquivalence
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(FaultEquivalence, OutputMatchesForceLocalRun)
{
    const auto [workload, network, seed_index] = GetParam();
    const CompiledFaultWorkload &wl = compiledWorkload(workload);
    ASSERT_FALSE(wl.program.partition.targets.empty());

    // Distinct sweep seed per (workload, network, seed) cell so the 120
    // cases explore 120 different fault schedules.
    uint64_t sweep_seed =
        static_cast<uint64_t>(seed_index) * 1000003ull +
        static_cast<uint64_t>(network) * 797ull +
        static_cast<uint64_t>(workload) * 131ull + 1;

    SystemConfig cfg;
    cfg.network = faultNetwork(network);
    cfg.faultPlan = net::FaultPlan::fromSeed(sweep_seed);
    RunReport faulty = OffloadSystem(wl.program, cfg).run(wl.input);

    // The invariant: faults change timing and energy, never behavior.
    EXPECT_EQ(faulty.exitValue, wl.local.exitValue)
        << kFaultWorkloads[workload].name << " seed " << sweep_seed;
    EXPECT_EQ(faulty.console, wl.local.console)
        << kFaultWorkloads[workload].name << " seed " << sweep_seed;
}

INSTANTIATE_TEST_SUITE_P(
    faults_sweep, FaultEquivalence,
    ::testing::Combine(::testing::Range(0, kNumWorkloads),
                       ::testing::Range(0, kNumNetworks),
                       ::testing::Range(0, kNumSeeds)));

// ---------------------------------------------------------------------------
// Directed failover scenarios
// ---------------------------------------------------------------------------

TEST(faults, HardDisconnectMidPrefetchFallsBackToLocal)
{
    const CompiledFaultWorkload &wl = compiledWorkload(0);

    SystemConfig cfg;
    cfg.faultPlan.enabled = true;
    // Message 1 is the offload-information control message; message 2
    // is the batched prefetch push. Kill the link there, forever.
    cfg.faultPlan.disconnectAtMessage = 2;
    RunReport report = OffloadSystem(wl.program, cfg).run(wl.input);

    EXPECT_EQ(report.offloads, 0u);
    EXPECT_GE(report.failovers, 1u);
    bool saw_failover = false;
    for (const OffloadEvent &event : report.events)
        saw_failover |= event.failedOver;
    EXPECT_TRUE(saw_failover);
    // Program behavior is untouched by the mid-prefetch death.
    EXPECT_EQ(report.exitValue, wl.local.exitValue);
    EXPECT_EQ(report.console, wl.local.console);
}

TEST(faults, DisconnectDuringWriteBackRollsBackCleanly)
{
    const CompiledFaultWorkload &wl = compiledWorkload(1);

    // Let a healthy chunk of traffic through, then cut the link at a
    // byte threshold that lands inside a later transfer (typically the
    // write-back or a copy-on-demand burst), with a short outage so a
    // later invocation can offload again.
    SystemConfig cfg;
    cfg.faultPlan.enabled = true;
    cfg.faultPlan.disconnectAtByte = 200'000;
    cfg.faultPlan.reconnectAfterAttempts = 6;
    RunReport report = OffloadSystem(wl.program, cfg).run(wl.input);

    EXPECT_EQ(report.exitValue, wl.local.exitValue);
    EXPECT_EQ(report.console, wl.local.console);
}

TEST(faults, NoopEnabledPlanIsBitIdenticalToDisabled)
{
    const CompiledFaultWorkload &wl = compiledWorkload(0);

    SystemConfig off_cfg; // fault layer disabled (default)
    RunReport off = OffloadSystem(wl.program, off_cfg).run(wl.input);

    SystemConfig noop_cfg;
    noop_cfg.faultPlan.enabled = true; // enabled but fault-free
    RunReport noop = OffloadSystem(wl.program, noop_cfg).run(wl.input);

    EXPECT_EQ(off.exitValue, noop.exitValue);
    EXPECT_EQ(off.console, noop.console);
    EXPECT_DOUBLE_EQ(off.mobileSeconds, noop.mobileSeconds);
    EXPECT_DOUBLE_EQ(off.energyMillijoules, noop.energyMillijoules);
    EXPECT_EQ(off.wireBytes, noop.wireBytes);
    EXPECT_EQ(noop.retries, 0u);
    EXPECT_EQ(noop.failovers, 0u);
}

// Regression: after a failover the device's rolled-back dirty pages
// are re-offered at the next prefetch. Pre-ledger, those pages were
// re-sent even though the server had already seen their exact contents
// (pushed by the fault-free peer, admitted at prefetch arrival and at
// write-back). Content addressing must dedupe them: the post-failover
// offload gets cache hits and the fleet moves fewer prefetch bytes
// than the same faulty fleet without the cache.
TEST(faults, FailoverReconnectDedupesAgainstWriteBackLedger)
{
    // The crunch fixture outlines its 3-turn loop into one offload
    // region, so a failover there leaves nothing to offload later.
    // This variant unrolls the turns into three call sites: decision 1
    // can fail over while decisions 2-3 still reach the server.
    const char *source = R"(
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
            total += crunch(40);
            data[0] = total;
            total += crunch(40);
            data[1] = total;
            total += crunch(40);
            data[2] = total;
            printf("total=%.3f first=%.3f\n", total, data[0]);
            return ((int)total) % 97;
        }
    )";
    auto mod = frontend::compileSource(source, "ledger");
    compiler::CompileOptions options;
    options.profilingInput.stdinText = "1500";
    CompiledFaultWorkload wl;
    wl.program = compiler::compileForOffload(std::move(mod), options);
    wl.input.stdinText = "3000";
    SystemConfig local_cfg;
    local_cfg.forceLocal = true;
    wl.local = OffloadSystem(wl.program, local_cfg).run(wl.input);

    // Client 0's link dies mid-first-offload (past the prefetch push)
    // and burns the whole 5-attempt retry budget → failover; two more
    // failed attempts later the link heals, so its remaining offloads
    // reconnect. Client 1 runs fault-free.
    net::FaultPlan plan;
    plan.enabled = true;
    plan.disconnectAtMessage = 12;
    plan.reconnectAfterAttempts = 7;

    auto make_clients = [&](bool cache_on) {
        std::vector<FleetClient> clients;
        for (size_t i = 0; i < 2; ++i) {
            FleetClient client;
            client.name = "c" + std::to_string(i);
            client.config.pageCacheEnabled = cache_on;
            if (i == 0)
                client.config.faultPlan = plan;
            client.input = wl.input;
            client.startSeconds = static_cast<double>(i) * 0.0005;
            clients.push_back(client);
        }
        return clients;
    };

    ServerRuntime server_on(wl.program);
    FleetReport on = server_on.run(make_clients(true));
    ServerRuntime server_off(wl.program);
    FleetReport off = server_off.run(make_clients(false));

    // The scenario actually happened: client 0 failed over, then
    // offloaded again after the link healed.
    const RunReport &victim = on.clients.at(0).report;
    ASSERT_GE(victim.failovers, 1u);
    size_t first_failover = victim.events.size();
    for (size_t i = 0; i < victim.events.size(); ++i) {
        if (victim.events[i].failedOver) {
            first_failover = i;
            break;
        }
    }
    ASSERT_LT(first_failover, victim.events.size());
    bool offloaded_after = false;
    for (size_t i = first_failover + 1; i < victim.events.size(); ++i)
        offloaded_after |= victim.events[i].offloaded;
    EXPECT_TRUE(offloaded_after);

    // The dedupe: the victim's first prefetch carried every page (it
    // registered first), so any cached pages it reports were served to
    // its post-failover offloads out of the ledger.
    EXPECT_GT(victim.prefetchPagesCached, 0u);

    // Both clients still behave exactly like the force-local run.
    for (const FleetReport *fleet : {&on, &off}) {
        for (const FleetClientResult &result : fleet->clients) {
            EXPECT_EQ(result.report.exitValue, wl.local.exitValue);
            EXPECT_EQ(result.report.console, wl.local.console);
        }
    }

    // And the cache still pays for itself under the fault schedule.
    auto prefetch_bytes = [](const FleetReport &fleet) {
        uint64_t total = 0;
        for (const FleetClientResult &result : fleet.clients) {
            auto it = result.report.bytesByCategory.find("prefetch");
            if (it != result.report.bytesByCategory.end())
                total += it->second;
        }
        return total;
    };
    EXPECT_LT(prefetch_bytes(on), prefetch_bytes(off));
}

TEST(faults, FaultRunsAreDeterministic)
{
    const CompiledFaultWorkload &wl = compiledWorkload(0);
    SystemConfig cfg;
    cfg.faultPlan = net::FaultPlan::fromSeed(1234);
    RunReport a = OffloadSystem(wl.program, cfg).run(wl.input);
    RunReport b = OffloadSystem(wl.program, cfg).run(wl.input);
    EXPECT_EQ(a.exitValue, b.exitValue);
    EXPECT_EQ(a.console, b.console);
    EXPECT_DOUBLE_EQ(a.mobileSeconds, b.mobileSeconds);
    EXPECT_EQ(a.wireBytes, b.wireBytes);
    EXPECT_EQ(a.retries, b.retries);
    EXPECT_EQ(a.failovers, b.failovers);
    EXPECT_DOUBLE_EQ(a.energyMillijoules, b.energyMillijoules);
}
