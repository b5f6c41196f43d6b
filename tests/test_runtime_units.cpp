/**
 * @file
 * Unit tests of the runtime's building blocks in isolation: the
 * program loader (address assignment across machines), the UVA
 * manager, the communication manager (clock coordination, batching,
 * per-category accounting, compressed write-back) and the per-session
 * decision engine.
 */
#include <gtest/gtest.h>

#include <cstring>

#include "decision/engine.hpp"
#include "frontend/codegen.hpp"
#include "interp/loader.hpp"
#include "runtime/comm.hpp"
#include "runtime/uva.hpp"

using namespace nol;
using namespace nol::runtime;

// ---------------------------------------------------------------------------
// Loader
// ---------------------------------------------------------------------------

namespace {

const char *kTwoGlobalSrc = R"(
int shared_counter;
double shared_weight;
int local_only;
int use() { shared_counter++; return (int)shared_weight; }
int main() { local_only = 3; return use(); }
)";

} // namespace

TEST(Loader, UvaGlobalsGetIdenticalAddressesOnBothMachines)
{
    auto mod = frontend::compileSource(kTwoGlobalSrc, "t.c");
    // Mark two globals as UVA-resident (what the unifier would do).
    mod->globalByName("shared_counter")->setInUva(true);
    mod->globalByName("shared_weight")->setInUva(true);

    sim::SimMachine mobile(sim::MachineRole::Mobile, arch::makeArm32());
    sim::SimMachine server(sim::MachineRole::Server, arch::makeX86_64());
    interp::ProgramImage mob = interp::loadProgram(*mod, mobile);
    interp::ProgramImage srv =
        interp::loadProgram(*mod, server, /*write_uva_content=*/false);

    const ir::GlobalVariable *counter = mod->globalByName("shared_counter");
    const ir::GlobalVariable *weight = mod->globalByName("shared_weight");
    const ir::GlobalVariable *local = mod->globalByName("local_only");

    // UVA globals: same address; machine-local ones: different bases.
    EXPECT_EQ(mob.addressOf(counter), srv.addressOf(counter));
    EXPECT_EQ(mob.addressOf(weight), srv.addressOf(weight));
    EXPECT_NE(mob.addressOf(local), srv.addressOf(local));
    EXPECT_GE(mob.addressOf(counter), sim::kUvaGlobalBase);
}

TEST(Loader, CanonicalFunctionAddressesMatchAcrossClones)
{
    auto mod = frontend::compileSource(kTwoGlobalSrc, "t.c");
    ir::CloneMap map_a, map_b;
    auto clone_a = mod->clone("a", map_a);
    auto clone_b = mod->clone("b", map_b);

    sim::SimMachine mobile(sim::MachineRole::Mobile, arch::makeArm32());
    sim::SimMachine server(sim::MachineRole::Server, arch::makeX86_64());
    interp::ProgramImage img_a = interp::loadProgram(*clone_a, mobile);
    interp::ProgramImage img_b =
        interp::loadProgram(*clone_b, server, false);

    EXPECT_EQ(img_a.addressOf(clone_a->functionByName("use")),
              img_b.addressOf(clone_b->functionByName("use")));
    EXPECT_EQ(img_a.addressOf(clone_a->functionByName("main")),
              img_b.addressOf(clone_b->functionByName("main")));
}

TEST(Loader, ServerSkipsUvaContentButWritesLocalGlobals)
{
    auto mod = frontend::compileSource(R"(
        int uva_g = 77;
        int local_g = 55;
        int main() { return uva_g + local_g; }
    )", "t.c");
    mod->globalByName("uva_g")->setInUva(true);

    sim::SimMachine server(sim::MachineRole::Server, arch::makeX86_64());
    interp::ProgramImage img =
        interp::loadProgram(*mod, server, /*write_uva_content=*/false);

    // The local global's bytes are present; the UVA one's page was
    // never touched on the server (it comes via prefetch/CoD).
    uint64_t local_addr = img.addressOf(mod->globalByName("local_g"));
    uint8_t buf[4];
    server.mem().read(local_addr, 4, buf);
    EXPECT_EQ(buf[0], 55);
    uint64_t uva_addr = img.addressOf(mod->globalByName("uva_g"));
    EXPECT_FALSE(server.mem().isPresent(sim::pageOf(uva_addr)));
}

// ---------------------------------------------------------------------------
// UVA manager
// ---------------------------------------------------------------------------

TEST(Uva, SubHeapsAreDisjoint)
{
    UvaManager uva;
    uint64_t m = uva.mobileHeap().allocate(1 << 20);
    uint64_t s = uva.serverHeap().allocate(1 << 20);
    EXPECT_NE(m, 0u);
    EXPECT_NE(s, 0u);
    EXPECT_LT(uva.mobileHeap().limit(), uva.serverHeap().base() + 1);
    EXPECT_TRUE(sim::isUvaAddress(m));
    EXPECT_TRUE(sim::isUvaAddress(s));
    EXPECT_FALSE(sim::isUvaAddress(sim::kMobileStackBase - 8));
}

// ---------------------------------------------------------------------------
// Communication manager
// ---------------------------------------------------------------------------

namespace {

struct CommFixture {
    sim::SimMachine mobile{sim::MachineRole::Mobile, arch::makeArm32()};
    sim::SimMachine server{sim::MachineRole::Server, arch::makeX86_64()};
    net::SimNetwork network{net::makeWifi80211ac(), 1.0};
};

} // namespace

TEST(Comm, SyncClocksAlignsToLaterMachine)
{
    CommFixture fix;
    CommManager comm(fix.mobile, fix.server, fix.network, true);
    fix.server.advanceCompute(1000); // server ahead
    comm.syncClocks();
    EXPECT_DOUBLE_EQ(fix.mobile.nowNs(), fix.server.nowNs());
    // The mobile waited (power state Waiting accumulated).
    EXPECT_GT(fix.mobile.power().secondsInState(sim::PowerState::Waiting),
              0.0);
}

TEST(Comm, TransfersAdvanceBothClocksTogether)
{
    CommFixture fix;
    CommManager comm(fix.mobile, fix.server, fix.network, true);
    comm.sendToServer(1 << 20, CommCategory::Prefetch);
    EXPECT_DOUBLE_EQ(fix.mobile.nowNs(), fix.server.nowNs());
    EXPECT_GT(fix.mobile.power().secondsInState(sim::PowerState::Transmit),
              0.0);
    EXPECT_EQ(comm.bytesIn(CommCategory::Prefetch), 1u << 20);
    EXPECT_GT(comm.secondsIn(CommCategory::Prefetch), 0.0);
}

TEST(Comm, PushPagesInstallsAndCleansDirtyBits)
{
    CommFixture fix;
    CommManager comm(fix.mobile, fix.server, fix.network, true);
    uint8_t data[8] = {9, 8, 7, 6, 5, 4, 3, 2};
    fix.mobile.mem().write(0x40000000, 8, data);
    auto dirty = fix.mobile.mem().dirtyPages();
    ASSERT_EQ(dirty.size(), 1u);

    comm.pushPagesToServer(dirty, CommCategory::Prefetch);
    EXPECT_TRUE(fix.mobile.mem().dirtyPages().empty());
    uint8_t back[8];
    fix.server.mem().read(0x40000000, 8, back);
    EXPECT_EQ(std::memcmp(back, data, 8), 0);
    // One batched message, not one per page.
    EXPECT_EQ(comm.totals().at(CommCategory::Prefetch).messages, 1u);
}

TEST(Comm, WriteBackCompressesAndInstallsOnMobile)
{
    CommFixture fix;
    CommManager comm(fix.mobile, fix.server, fix.network, true);
    // Server dirties two pages of compressible content.
    std::vector<uint8_t> block(8192, 0x11);
    fix.server.mem().write(0x40000000, block.size(), block.data());

    uint64_t raw = comm.writeBackDirtyPages();
    EXPECT_GT(raw, 8192u);
    // Wire bytes far below raw (compressible payload).
    EXPECT_LT(comm.bytesIn(CommCategory::WriteBack), raw / 4);

    uint8_t back[16];
    fix.mobile.mem().read(0x40001000, 16, back);
    EXPECT_EQ(back[3], 0x11);
    EXPECT_GT(comm.compressSeconds(), 0.0);
}

TEST(Comm, FetchPageIsARoundTrip)
{
    CommFixture fix;
    CommManager comm(fix.mobile, fix.server, fix.network, true);
    uint8_t data[4] = {1, 2, 3, 4};
    fix.mobile.mem().write(0x40002000, 4, data);

    comm.fetchPageToServer(sim::pageOf(0x40002000));
    EXPECT_EQ(comm.demandFaults(), 1u);
    EXPECT_EQ(comm.totals().at(CommCategory::Demand).messages, 2u);
    uint8_t back[4];
    fix.server.mem().read(0x40002000, 4, back);
    EXPECT_EQ(back[1], 2);
}

// ---------------------------------------------------------------------------
// Decision engine (the dynamic estimator layer)
// ---------------------------------------------------------------------------

TEST(DynEstimator, DecidesByEquationOne)
{
    // R = 5, BW = 80 Mbps: gain = Tm*0.8 - 2*(M/BW).
    decision::Engine dyn(5.0, 80e6);
    dyn.seed("hot", /*Tm=*/10.0, /*M=*/10'000'000); // Tc = 2s < 8s gain
    EXPECT_TRUE(dyn.decide("hot").offload);

    dyn.seed("cold", /*Tm=*/1.0, /*M=*/50'000'000); // Tc = 10s > 0.8s
    EXPECT_FALSE(dyn.decide("cold").offload);

    // Unknown targets stay local.
    EXPECT_FALSE(dyn.decide("unknown").offload);
}

TEST(DynEstimator, ObservationsUpdateKnowledge)
{
    decision::Engine dyn(5.0, 80e6);
    dyn.seed("t", 0.1, 50'000'000); // looks hopeless
    EXPECT_FALSE(dyn.decide("t").offload);
    // A local run reveals the task actually takes 100 s.
    dyn.observe("t", 100.0, 0);
    EXPECT_TRUE(dyn.decide("t").offload);
}

TEST(DynEstimator, BandwidthSensitivity)
{
    decision::Engine fast(5.0, 844e6);
    decision::Engine slow(5.0, 1e6);
    fast.seed("t", 5.0, 20'000'000);
    slow.seed("t", 5.0, 20'000'000);
    EXPECT_TRUE(fast.decide("t").offload);  // Tc ~0.38 s
    EXPECT_FALSE(slow.decide("t").offload); // Tc 320 s
}

TEST(DynEstimator, ReseedPreservesFailureHistory)
{
    // Regression: the old DynamicEstimator::seed() assigned a whole
    // fresh TargetKnowledge, silently clobbering consecutiveFailures
    // and the suppression window on re-seed.
    decision::Engine dyn(5.0, 844e6);
    dyn.seed("f", 20.0, 500'000);
    dyn.recordFailure("f", 10.0); // window [10, 10.5)

    dyn.seed("f", 25.0, 600'000); // profile refresh mid-window
    const decision::TargetKnowledge &know = dyn.knowledge().at("f");
    EXPECT_EQ(know.consecutiveFailures, 1u);
    EXPECT_EQ(know.totalFailures, 1u);
    EXPECT_DOUBLE_EQ(know.suppressedUntilSeconds, 10.5);
    // Performance knowledge did refresh.
    EXPECT_DOUBLE_EQ(know.mobileSecondsPerInvocation, 25.0);
    EXPECT_EQ(know.memBytes, 600'000u);
    EXPECT_EQ(know.observations, 0u);

    // And the suppression window still holds after the re-seed.
    EXPECT_TRUE(dyn.decide("f", 10.4).suppressed);
}

TEST(DynEstimator, FailurePenaltyBoundaries)
{
    using decision::Engine;
    // N = 0: no failures carry no penalty at all.
    EXPECT_DOUBLE_EQ(Engine::failurePenaltySeconds(0), 0.0);
    // N = 1 opens exactly the base window.
    EXPECT_DOUBLE_EQ(Engine::failurePenaltySeconds(1),
                     Engine::kBasePenaltySeconds);
    // Doubling saturates exactly at the cap and stays there: with a
    // 0.5 s base, failure 9 reaches 128 > 120, so 9 and far beyond
    // both clamp to kMaxPenaltySeconds.
    EXPECT_DOUBLE_EQ(Engine::failurePenaltySeconds(9),
                     Engine::kMaxPenaltySeconds);
    EXPECT_DOUBLE_EQ(Engine::failurePenaltySeconds(1000),
                     Engine::kMaxPenaltySeconds);
    // The window is monotone: never shrinks with more failures.
    for (uint64_t n = 0; n < 70; ++n) {
        EXPECT_LE(Engine::failurePenaltySeconds(n),
                  Engine::failurePenaltySeconds(n + 1))
            << "n = " << n;
    }
}

TEST(DynEstimator, EmaConvergesUnderAlternatingTraffic)
{
    decision::Engine dyn(5.0, 80e6);
    // First observation is adopted wholesale (alpha = 1).
    dyn.observe("t", 8.0, 4'000'000);
    EXPECT_DOUBLE_EQ(
        dyn.knowledge().at("t").mobileSecondsPerInvocation, 8.0);
    EXPECT_EQ(dyn.knowledge().at("t").memBytes, 2'000'000u); // traffic/2

    // Alternate between two traffic regimes: the EMA (alpha = 0.5)
    // must settle strictly between them instead of tracking either
    // extreme or diverging.
    for (int i = 0; i < 64; ++i) {
        bool high = i % 2 == 0;
        dyn.observe("t", high ? 12.0 : 4.0,
                    high ? 8'000'000u : 2'000'000u);
    }
    const decision::TargetKnowledge &know = dyn.knowledge().at("t");
    EXPECT_GT(know.mobileSecondsPerInvocation, 4.0);
    EXPECT_LT(know.mobileSecondsPerInvocation, 12.0);
    EXPECT_GT(know.memBytes, 1'000'000u);
    EXPECT_LT(know.memBytes, 4'000'000u);
    // With alpha = 0.5 the fixed-point cycle of x -> (x + v)/2 over
    // alternating v ∈ {4, 12} oscillates within [20/3, 28/3]; after 64
    // observations the state is deep inside that band.
    EXPECT_NEAR(know.mobileSecondsPerInvocation, 8.0, 1.4);
    EXPECT_EQ(know.observations, 65u);
}

// ---------------------------------------------------------------------------
// CommManager under injected faults
// ---------------------------------------------------------------------------

TEST(Comm, PureDropsAreRetriedAndAccounted)
{
    CommFixture fix;
    net::FaultPlan plan;
    plan.enabled = true;
    plan.seed = 5;
    plan.dropRate = 0.5;
    fix.network.setFaultPlan(plan);
    CommManager comm(fix.mobile, fix.server, fix.network, true);

    // Plenty of messages: about half of all attempts are dropped, so
    // retries must appear, and the run still completes (budget of 5
    // attempts makes a full failure a (1/2)^5 event per message).
    uint64_t sent = 0;
    uint64_t failures = 0;
    for (int i = 0; i < 40; ++i) {
        try {
            comm.sendToServer(4096, CommCategory::Control);
            ++sent;
        } catch (const CommFailure &) {
            ++failures;
        }
    }
    EXPECT_GT(sent, 30u);
    EXPECT_GT(comm.totalRetries(), 0u);
    EXPECT_EQ(comm.totalFailures(), failures);
    // Dropped attempts burned the radio: the wire total exceeds the
    // logical payload of the delivered messages.
    EXPECT_GT(comm.totalWireBytes(), sent * 4096);
    EXPECT_GT(comm.totals().at(CommCategory::Control).retrySeconds, 0.0);
}

TEST(Comm, CertainDropExhaustsBudgetAndThrows)
{
    CommFixture fix;
    net::FaultPlan plan;
    plan.enabled = true;
    plan.dropRate = 1.0;
    fix.network.setFaultPlan(plan);
    CommManager comm(fix.mobile, fix.server, fix.network, true);

    double before = fix.mobile.nowNs();
    bool threw = false;
    try {
        comm.sendToServer(1000, CommCategory::Prefetch);
    } catch (const CommFailure &failure) {
        threw = true;
        EXPECT_EQ(static_cast<int>(failure.category),
                  static_cast<int>(CommCategory::Prefetch));
        EXPECT_FALSE(failure.linkDown); // drops, not a disconnect
    }
    ASSERT_TRUE(threw);
    EXPECT_EQ(comm.totalFailures(), 1u);
    // Every attempt after the first is a retry.
    EXPECT_EQ(comm.totalRetries(), kMaxAttempts - 1);
    // Every dropped send burned the radio.
    EXPECT_EQ(comm.totals().at(CommCategory::Prefetch).retryWireBytes,
              kMaxAttempts * 1000u);
    // Time moved forward: sends + timeouts + backoffs.
    EXPECT_GT(fix.mobile.nowNs(), before);
    // The logical message itself was never delivered.
    EXPECT_EQ(comm.totals().at(CommCategory::Prefetch).messages, 0u);
}

TEST(Comm, LinkDownFailureIsFlagged)
{
    CommFixture fix;
    net::FaultPlan plan;
    plan.enabled = true;
    plan.disconnectAtMessage = 1;
    fix.network.setFaultPlan(plan);
    CommManager comm(fix.mobile, fix.server, fix.network, true);

    try {
        comm.sendToServer(512, CommCategory::Control);
        FAIL() << "expected CommFailure";
    } catch (const CommFailure &failure) {
        EXPECT_TRUE(failure.linkDown);
    }
    EXPECT_FALSE(fix.network.linkUp());
    // A dead link burns no payload bytes (nothing was serialized).
    EXPECT_EQ(comm.totals().at(CommCategory::Control).retryWireBytes, 0u);
    EXPECT_EQ(comm.totalRetries(), kMaxAttempts - 1);
}

TEST(Comm, ReconnectWithinBudgetDelivers)
{
    CommFixture fix;
    net::FaultPlan plan;
    plan.enabled = true;
    plan.disconnectAtMessage = 1;
    plan.reconnectAfterAttempts = 2;
    fix.network.setFaultPlan(plan);
    CommManager comm(fix.mobile, fix.server, fix.network, true);

    // Attempt 1 triggers the disconnect, attempt 2 finds the link still
    // down, attempt 3 heals it and delivers: no failure surfaces.
    comm.sendToServer(2048, CommCategory::Control);
    EXPECT_TRUE(fix.network.linkUp());
    EXPECT_EQ(comm.totalFailures(), 0u);
    EXPECT_EQ(comm.totalRetries(), 2u);
    EXPECT_EQ(comm.totals().at(CommCategory::Control).messages, 1u);
    EXPECT_EQ(comm.totals().at(CommCategory::Control).wireBytes, 2048u);
}

// ---------------------------------------------------------------------------
// Decision engine failover suppression
// ---------------------------------------------------------------------------

TEST(DynEstimator, FailuresSuppressThenRecoveryProbes)
{
    decision::Engine dyn(5.0, 844e6);
    dyn.seed("f", /*Tm=*/20.0, /*M=*/500'000);
    ASSERT_TRUE(dyn.decide("f", 0.0).offload);

    dyn.recordFailure("f", 10.0); // window [10, 10.5)
    decision::DecisionRecord inside = dyn.decide("f", 10.4);
    EXPECT_FALSE(inside.offload);
    EXPECT_TRUE(inside.suppressed);
    decision::DecisionRecord after = dyn.decide("f", 10.6);
    EXPECT_TRUE(after.offload);
    EXPECT_FALSE(after.suppressed);
    EXPECT_TRUE(after.probe); // the one post-window recovery probe

    // Unrelated targets are never suppressed.
    dyn.seed("other", 20.0, 500'000);
    EXPECT_TRUE(dyn.decide("other", 10.4).offload);
}

TEST(DynEstimator, ConsecutiveFailuresDoubleTheWindow)
{
    decision::Engine dyn(5.0, 844e6);
    dyn.seed("f", 20.0, 500'000);
    double now = 0.0;
    double expected_window = 0.5;
    for (int i = 0; i < 6; ++i) {
        dyn.recordFailure("f", now);
        EXPECT_TRUE(dyn.decide("f", now + expected_window * 0.9).suppressed)
            << "failure " << i;
        EXPECT_FALSE(dyn.decide("f", now + expected_window * 1.1).suppressed)
            << "failure " << i;
        now += expected_window * 1.1;
        expected_window *= 2.0;
    }
    // One success resets the streak to the base window.
    dyn.recordSuccess("f");
    dyn.recordFailure("f", now);
    EXPECT_TRUE(dyn.decide("f", now + 0.4).suppressed);
    EXPECT_FALSE(dyn.decide("f", now + 0.6).suppressed);
}

// ---------------------------------------------------------------------------
// Admission queue: timeout denial and slot handoff
// ---------------------------------------------------------------------------

#include "compiler/driver.hpp"
#include "runtime/server.hpp"
#include "sim/eventloop.hpp"

namespace {

const char *kTinySrc = R"(
int main() { return 7; }
)";

compiler::CompiledProgram &
tinyProgram()
{
    static compiler::CompiledProgram prog = compiler::compileForOffload(
        frontend::compileSource(kTinySrc, "tiny.c"), {});
    return prog;
}

} // namespace

TEST(AdmissionQueue, MidQueueTimeoutRemovesWaiterWithoutSlotLeak)
{
    AdmissionConfig config;
    config.maxConcurrentSessions = 1;
    config.maxQueueWaitSeconds = 2.0;
    ServerRuntime server(tinyProgram(), config);

    std::vector<decision::LoadSnapshot> snapshots;
    server.setLoadObserver(
        [&snapshots](double, const decision::LoadSnapshot &load) {
            snapshots.push_back(load);
        });

    sim::EventLoop loop;
    server.attachLoopForTesting(&loop);

    AdmissionResult r1, r2, r3;
    sim::Strand *s1 = nullptr, *s2 = nullptr, *s3 = nullptr;
    s1 = loop.spawn("s1", 0.0, [&] { r1 = server.acquire(*s1, 1, 0.0); });
    s2 = loop.spawn("s2", 1e9, [&] { r2 = server.acquire(*s2, 2, 1e9); });
    s3 = loop.spawn("s3", 2.5e9,
                    [&] { r3 = server.acquire(*s3, 3, 2.5e9); });
    // Session 2's queue wait runs out in the middle of the queue at
    // 3 s; session 1 releases later; session 3 must still inherit the
    // slot.
    server.release(1, 3.5e9);
    server.release(3, 6e9);
    loop.run();
    server.attachLoopForTesting(nullptr);
    server.setLoadObserver(nullptr);

    EXPECT_TRUE(r1.granted);
    EXPECT_DOUBLE_EQ(r1.waitedNs, 0.0);
    EXPECT_FALSE(r2.granted); // the queue timeout delivered a denial
    EXPECT_DOUBLE_EQ(r2.wakeNs, 3e9);
    EXPECT_TRUE(r3.granted); // later waiters are unaffected
    EXPECT_DOUBLE_EQ(r3.wakeNs, 3.5e9);
    EXPECT_DOUBLE_EQ(r3.waitedNs, 1e9);

    // The timeout removed exactly one waiter (queue 2 -> 1) while the
    // slot holder stayed put — no slot leaked, no ghost waiter.
    bool saw_eviction = false;
    uint32_t peak_queue = 0;
    for (size_t i = 1; i < snapshots.size(); ++i) {
        peak_queue = std::max(peak_queue, snapshots[i].queueDepth);
        if (snapshots[i - 1].queueDepth == 2 &&
            snapshots[i].queueDepth == 1 &&
            snapshots[i].activeSessions == 1)
            saw_eviction = true;
    }
    EXPECT_TRUE(saw_eviction);
    EXPECT_EQ(peak_queue, 2u);

    const decision::LoadSnapshot &final_load = server.loadSnapshot();
    EXPECT_EQ(final_load.activeSessions, 0u);
    EXPECT_EQ(final_load.queueDepth, 0u);
    EXPECT_EQ(final_load.slotPool, 1u);
    EXPECT_EQ(final_load.completedHolds, 2u); // sessions 1 and 3
}

TEST(AdmissionQueue, ReleasedSlotPassesToWaiterAndCountsTheHold)
{
    AdmissionConfig config;
    config.maxConcurrentSessions = 1;
    config.maxQueueWaitSeconds = 5.0;
    ServerRuntime server(tinyProgram(), config);

    sim::EventLoop loop;
    server.attachLoopForTesting(&loop);

    AdmissionResult r1, r2;
    sim::Strand *s1 = nullptr, *s2 = nullptr;
    s1 = loop.spawn("s1", 0.0, [&] { r1 = server.acquire(*s1, 1, 0.0); });
    s2 = loop.spawn("s2", 1000.0,
                    [&] { r2 = server.acquire(*s2, 2, 1000.0); });
    // The slot holder releases; its slot must pass to the queued
    // waiter.
    server.release(1, 2000.0);
    server.release(2, 3000.0);
    loop.run();
    server.attachLoopForTesting(nullptr);

    EXPECT_TRUE(r1.granted);
    EXPECT_TRUE(r2.granted);
    EXPECT_DOUBLE_EQ(r2.wakeNs, 2000.0);
    EXPECT_DOUBLE_EQ(r2.waitedNs, 1000.0);

    const decision::LoadSnapshot &final_load = server.loadSnapshot();
    EXPECT_EQ(final_load.activeSessions, 0u);
    EXPECT_EQ(final_load.queueDepth, 0u);
    EXPECT_EQ(final_load.slotPool, 1u);
    // Both holds count toward the ledger the admission-aware Eq. 1
    // term reads.
    EXPECT_EQ(final_load.completedHolds, 2u);
    EXPECT_GT(final_load.meanHoldSeconds, 0.0);
}
