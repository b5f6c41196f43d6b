/**
 * @file
 * Offload-runtime tests: end-to-end correctness (offloaded == local),
 * the Fig. 5 life cycle (prefetch, copy-on-demand, write-back),
 * compression, the dynamic estimator's refusals, remote I/O, speedup
 * and battery behavior, plus the LZ compressor and network substrate.
 */
#include <gtest/gtest.h>

#include "compiler/driver.hpp"
#include "compress/lz.hpp"
#include "frontend/codegen.hpp"
#include "net/simnetwork.hpp"
#include "runtime/comm.hpp"
#include "runtime/offload.hpp"
#include "support/rng.hpp"

using namespace nol;
using namespace nol::runtime;

namespace {

/** Compute-heavy program with observable side effects. */
const char *kHeavySrc = R"(
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

compiler::CompiledProgram
compileHeavy()
{
    auto mod = frontend::compileSource(kHeavySrc, "heavy.c");
    compiler::CompileOptions options;
    options.profilingInput.stdinText = "1500";
    return compiler::compileForOffload(std::move(mod), options);
}

RunInput
heavyInput()
{
    RunInput input;
    input.stdinText = "3000";
    return input;
}

} // namespace

// ---------------------------------------------------------------------------
// LZ compressor
// ---------------------------------------------------------------------------

TEST(Lz, RoundTripText)
{
    std::string text;
    for (int i = 0; i < 200; ++i)
        text += "the quick brown fox jumps over the lazy dog. ";
    std::vector<uint8_t> data(text.begin(), text.end());
    auto packed = compress::lzCompress(data);
    EXPECT_LT(packed.size(), data.size() / 3); // repetitive → compresses
    EXPECT_EQ(compress::lzDecompress(packed), data);
}

TEST(Lz, RoundTripRandom)
{
    Rng rng(42);
    std::vector<uint8_t> data(65536);
    for (auto &b : data)
        b = static_cast<uint8_t>(rng.next());
    auto packed = compress::lzCompress(data);
    EXPECT_EQ(compress::lzDecompress(packed), data);
    // Random data barely expands.
    EXPECT_LT(packed.size(), data.size() * 9 / 8 + 16);
}

TEST(Lz, RoundTripZerosAndEmpty)
{
    std::vector<uint8_t> zeros(4096, 0);
    auto packed = compress::lzCompress(zeros);
    EXPECT_LT(packed.size(), 600u);
    EXPECT_EQ(compress::lzDecompress(packed), zeros);

    std::vector<uint8_t> empty;
    EXPECT_EQ(compress::lzDecompress(compress::lzCompress(empty)), empty);
}

TEST(Lz, PropertySweepRoundTrips)
{
    Rng rng(7);
    for (int trial = 0; trial < 30; ++trial) {
        size_t size = static_cast<size_t>(rng.range(0, 20000));
        std::vector<uint8_t> data(size);
        int alphabet = static_cast<int>(rng.range(1, 255));
        for (auto &b : data)
            b = static_cast<uint8_t>(rng.below(alphabet));
        auto packed = compress::lzCompress(data);
        ASSERT_EQ(compress::lzDecompress(packed), data)
            << "trial " << trial << " size " << size;
    }
}

// ---------------------------------------------------------------------------
// Network
// ---------------------------------------------------------------------------

TEST(Network, TransferTimesScaleWithBandwidth)
{
    net::SimNetwork slow(net::makeWifi80211n());
    net::SimNetwork fast(net::makeWifi80211ac());
    uint64_t mb = 1'000'000;
    double t_slow = slow.transferTimeNs(mb);
    double t_fast = fast.transferTimeNs(mb);
    EXPECT_GT(t_slow, t_fast);
    // Serialization dominates latency at 1 MB: ratio near 844/144.
    EXPECT_NEAR(t_slow / t_fast, 844.0 / 144.0, 0.7);
}

TEST(Network, ScaleDividesBandwidth)
{
    net::SimNetwork raw(net::makeWifi80211ac(), 1.0);
    net::SimNetwork scaled(net::makeWifi80211ac(), 32.0);
    EXPECT_NEAR(raw.effectiveBitsPerSecond() /
                    scaled.effectiveBitsPerSecond(),
                32.0, 1e-9);
}

TEST(Network, StatsAccumulate)
{
    // CommManager is the link's only traffic accountant: each message
    // adds its bytes and its closed-form duration to its category.
    sim::SimMachine mobile(sim::MachineRole::Mobile, arch::makeArm32());
    sim::SimMachine server(sim::MachineRole::Server, arch::makeX86_64());
    net::SimNetwork net(net::makeWifi80211ac());
    runtime::CommManager comm(mobile, server, net, false);
    comm.sendToServer(1000, runtime::CommCategory::Control);
    comm.sendToMobile(500, runtime::CommCategory::Control);
    const runtime::CommTotals &control =
        comm.totals().at(runtime::CommCategory::Control);
    EXPECT_EQ(control.messages, 2u);
    EXPECT_EQ(control.wireBytes, 1500u);
    EXPECT_EQ(comm.totalWireBytes(), 1500u);
    EXPECT_EQ(control.seconds, net.transferTimeNs(1000) * 1e-9 +
                                   net.transferTimeNs(500) * 1e-9);
}

// ---------------------------------------------------------------------------
// End-to-end offloading
// ---------------------------------------------------------------------------

TEST(Offload, OffloadedRunMatchesLocalRun)
{
    compiler::CompiledProgram prog = compileHeavy();
    ASSERT_FALSE(prog.partition.targets.empty());

    SystemConfig local_cfg;
    local_cfg.forceLocal = true;
    RunReport local = OffloadSystem(prog, local_cfg).run(heavyInput());

    SystemConfig off_cfg; // defaults: fast network, offloading on
    RunReport off = OffloadSystem(prog, off_cfg).run(heavyInput());

    EXPECT_EQ(local.exitValue, off.exitValue);
    EXPECT_EQ(local.console, off.console);
    EXPECT_GT(off.offloads, 0u);
    EXPECT_EQ(local.offloads, 0u);
}

TEST(Offload, OffloadingIsFasterAndSavesEnergy)
{
    compiler::CompiledProgram prog = compileHeavy();
    SystemConfig local_cfg;
    local_cfg.forceLocal = true;
    RunReport local = OffloadSystem(prog, local_cfg).run(heavyInput());
    RunReport off = OffloadSystem(prog, SystemConfig{}).run(heavyInput());

    EXPECT_LT(off.mobileSeconds, local.mobileSeconds);
    EXPECT_LT(off.energyMillijoules, local.energyMillijoules);
    // With R = 5.5 and a compute-bound task, expect a solid speedup.
    EXPECT_GT(local.mobileSeconds / off.mobileSeconds, 2.0);
}

TEST(Offload, IdealModeBoundsRealOffloading)
{
    compiler::CompiledProgram prog = compileHeavy();
    SystemConfig ideal_cfg;
    ideal_cfg.idealOffload = true;
    RunReport ideal = OffloadSystem(prog, ideal_cfg).run(heavyInput());
    RunReport real = OffloadSystem(prog, SystemConfig{}).run(heavyInput());

    EXPECT_EQ(ideal.exitValue, real.exitValue);
    // Real offloading pays communication on top of the ideal time.
    EXPECT_GE(real.mobileSeconds, ideal.mobileSeconds * 0.999);
    EXPECT_EQ(ideal.wireBytes, 0u);
}

TEST(Offload, LifeCycleMovesPages)
{
    compiler::CompiledProgram prog = compileHeavy();
    RunReport report = OffloadSystem(prog, SystemConfig{}).run(heavyInput());

    EXPECT_GT(report.bytesByCategory["prefetch"], 0u);
    EXPECT_GT(report.bytesByCategory["write-back"], 0u);
    EXPECT_GT(report.wireBytes, 0u);
    // Write-back is compressed: wire < raw overall.
    EXPECT_LT(report.wireBytes, report.rawBytes);
}

TEST(Offload, CopyOnDemandServicesFaults)
{
    compiler::CompiledProgram prog = compileHeavy();
    SystemConfig cfg;
    cfg.prefetchEnabled = false; // force everything through CoD
    RunReport report = OffloadSystem(prog, cfg).run(heavyInput());
    EXPECT_GT(report.demandFaults, 0u);
    EXPECT_GT(report.bytesByCategory["copy-on-demand"], 0u);

    // Still correct.
    SystemConfig local_cfg;
    local_cfg.forceLocal = true;
    RunReport local = OffloadSystem(prog, local_cfg).run(heavyInput());
    EXPECT_EQ(report.exitValue, local.exitValue);
    EXPECT_EQ(report.console, local.console);
}

TEST(Offload, SendAllShipsEverythingUpFront)
{
    // The conservative static partitioner's strategy (paper Sec. 6):
    // every mobile page goes out with the prefetch, none on demand.
    compiler::CompiledProgram prog = compileHeavy();
    SystemConfig cfg;
    cfg.copyOnDemand = false;
    RunReport send_all = OffloadSystem(prog, cfg).run(heavyInput());
    RunReport with_cod = OffloadSystem(prog, SystemConfig{}).run(heavyInput());
    ASSERT_GT(with_cod.demandFaults, 0u); // prefetch alone misses a page
    EXPECT_GT(send_all.offloads, 0u);
    EXPECT_EQ(send_all.demandFaults, 0u);
    EXPECT_EQ(send_all.bytesByCategory["copy-on-demand"], 0u);
    EXPECT_GE(send_all.prefetchPagesSent, with_cod.prefetchPagesSent);

    SystemConfig local_cfg;
    local_cfg.forceLocal = true;
    RunReport local = OffloadSystem(prog, local_cfg).run(heavyInput());
    EXPECT_EQ(send_all.exitValue, local.exitValue);
    EXPECT_EQ(send_all.console, local.console);
}

TEST(Offload, PrefetchReducesDemandFaults)
{
    compiler::CompiledProgram prog = compileHeavy();
    SystemConfig with;
    SystemConfig without;
    without.prefetchEnabled = false;
    RunReport rep_with = OffloadSystem(prog, with).run(heavyInput());
    RunReport rep_without = OffloadSystem(prog, without).run(heavyInput());
    EXPECT_LT(rep_with.demandFaults, rep_without.demandFaults);
}

TEST(Offload, CompressionReducesWireBytes)
{
    compiler::CompiledProgram prog = compileHeavy();
    SystemConfig on;
    SystemConfig off_cfg;
    off_cfg.compressionEnabled = false;
    RunReport with = OffloadSystem(prog, on).run(heavyInput());
    RunReport without = OffloadSystem(prog, off_cfg).run(heavyInput());
    EXPECT_LT(with.wireBytes, without.wireBytes);
    EXPECT_EQ(with.exitValue, without.exitValue);
}

TEST(Offload, DynamicEstimatorRefusesHopelessNetwork)
{
    compiler::CompiledProgram prog = compileHeavy();
    SystemConfig cfg;
    cfg.network = net::makeWifi80211n();
    // Catastrophic link: with Tm ~15 min and M ~20 KiB, Eq. 1 flips
    // negative only below ~1 kbps effective bandwidth.
    cfg.network.bandwidthMbps = 0.0005;
    RunReport report = OffloadSystem(prog, cfg).run(heavyInput());
    EXPECT_EQ(report.offloads, 0u);
    EXPECT_GT(report.localRuns, 0u);

    // And the run is still correct.
    SystemConfig local_cfg;
    local_cfg.forceLocal = true;
    RunReport local = OffloadSystem(prog, local_cfg).run(heavyInput());
    EXPECT_EQ(report.exitValue, local.exitValue);
}

TEST(Offload, StaticDecisionModeAlwaysOffloads)
{
    compiler::CompiledProgram prog = compileHeavy();
    SystemConfig cfg;
    cfg.network.bandwidthMbps = 0.0005;
    cfg.dynamicDecision = false; // compile-time decision only
    RunReport report = OffloadSystem(prog, cfg).run(heavyInput());
    EXPECT_GT(report.offloads, 0u); // offloads despite the awful link
}

TEST(Offload, RemoteIoRoutesOutputToMobileConsole)
{
    const char *src = R"(
        int heavy(int n) {
            int s = 0;
            for (int i = 0; i < n; i++) {
                for (int j = 0; j < 800; j++) s += (i * j) % 13;
                if (i % 1000 == 0) printf("tick %d\n", i);
            }
            return s;
        }
        int main() {
            int r = heavy(4000);
            printf("done %d\n", r);
            return r % 11;
        }
    )";
    auto mod = frontend::compileSource(src, "rio.c");
    compiler::CompiledProgram prog =
        compiler::compileForOffload(std::move(mod), {});
    ASSERT_FALSE(prog.partition.targets.empty());

    SystemConfig local_cfg;
    local_cfg.forceLocal = true;
    RunReport local = OffloadSystem(prog, local_cfg).run({});
    RunReport off = OffloadSystem(prog, SystemConfig{}).run({});
    EXPECT_GT(off.offloads, 0u);
    EXPECT_EQ(off.console, local.console); // remote output arrived
    EXPECT_GT(off.bytesByCategory["remote-io"], 0u);
}

TEST(Offload, RemoteFileInputReadsViaRoundTrips)
{
    const char *src = R"(
        int heavy() {
            void* f = fopen("big.dat", "r");
            if (!f) return -1;
            int sum = 0;
            int c;
            while ((c = fgetc(f)) >= 0) {
                for (int j = 0; j < 40; j++) sum += (c * j) % 7;
            }
            fclose(f);
            return sum;
        }
        int main() { return heavy() % 100; }
    )";
    auto mod = frontend::compileSource(src, "file.c");
    compiler::CompileOptions options;
    std::string blob;
    for (int i = 0; i < 60000; ++i)
        blob += static_cast<char>('A' + i % 26);
    options.profilingInput.files["big.dat"] = blob;
    compiler::CompiledProgram prog =
        compiler::compileForOffload(std::move(mod), options);
    ASSERT_FALSE(prog.partition.targets.empty());

    RunInput input;
    input.files["big.dat"] = blob;

    SystemConfig local_cfg;
    local_cfg.forceLocal = true;
    RunReport local = OffloadSystem(prog, local_cfg).run(input);
    RunReport off = OffloadSystem(prog, SystemConfig{}).run(input);
    EXPECT_GT(off.offloads, 0u);
    EXPECT_EQ(off.exitValue, local.exitValue);
    EXPECT_GT(off.breakdown.remoteIo, 0.0);
}

TEST(Offload, SlowNetworkCostsMoreThanFast)
{
    compiler::CompiledProgram prog = compileHeavy();
    SystemConfig fast_cfg;
    SystemConfig slow_cfg;
    slow_cfg.network = net::makeWifi80211n();
    RunReport fast = OffloadSystem(prog, fast_cfg).run(heavyInput());
    RunReport slow = OffloadSystem(prog, slow_cfg).run(heavyInput());
    EXPECT_EQ(fast.exitValue, slow.exitValue);
    if (slow.offloads > 0) {
        EXPECT_GE(slow.breakdown.communication,
                  fast.breakdown.communication);
        EXPECT_GE(slow.mobileSeconds, fast.mobileSeconds * 0.999);
    }
}

TEST(Offload, BreakdownCoversWallClock)
{
    compiler::CompiledProgram prog = compileHeavy();
    RunReport report = OffloadSystem(prog, SystemConfig{}).run(heavyInput());
    const TimeBreakdown &b = report.breakdown;
    double accounted = b.mobileCompute + b.serverCompute +
                       b.fnPtrTranslation + b.remoteIo + b.communication;
    // The parts must roughly tile the whole (small slack for waiting
    // asymmetries and estimation costs).
    EXPECT_GT(accounted, report.mobileSeconds * 0.85);
    EXPECT_LT(accounted, report.mobileSeconds * 1.15);
}

TEST(Offload, PowerTimelineShowsOffloadPhases)
{
    compiler::CompiledProgram prog = compileHeavy();
    RunReport report = OffloadSystem(prog, SystemConfig{}).run(heavyInput());
    ASSERT_GT(report.offloads, 0u);
    bool saw_transmit = false;
    bool saw_waiting = false;
    bool saw_receive = false;
    for (const sim::PowerSegment &seg : report.powerTimeline) {
        saw_transmit |= seg.state == sim::PowerState::Transmit;
        saw_waiting |= seg.state == sim::PowerState::Waiting;
        saw_receive |= seg.state == sim::PowerState::Receive;
    }
    EXPECT_TRUE(saw_transmit);
    EXPECT_TRUE(saw_waiting);
    EXPECT_TRUE(saw_receive);
}

TEST(Offload, RunsAreDeterministic)
{
    compiler::CompiledProgram prog = compileHeavy();
    RunReport a = OffloadSystem(prog, SystemConfig{}).run(heavyInput());
    RunReport b = OffloadSystem(prog, SystemConfig{}).run(heavyInput());
    EXPECT_EQ(a.exitValue, b.exitValue);
    EXPECT_EQ(a.console, b.console);
    EXPECT_DOUBLE_EQ(a.mobileSeconds, b.mobileSeconds);
    EXPECT_EQ(a.wireBytes, b.wireBytes);
    EXPECT_DOUBLE_EQ(a.energyMillijoules, b.energyMillijoules);
}

TEST(Offload, FunctionPointerTargetsWorkRemotely)
{
    const char *src = R"(
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
                for (int j = 0; j < 300; j++) acc += (double)(j % 5) * 0.001;
            }
            return acc;
        }
        int main() { return (int)heavy(8000) % 1000; }
    )";
    auto mod = frontend::compileSource(src, "fp.c");
    compiler::CompiledProgram prog =
        compiler::compileForOffload(std::move(mod), {});
    ASSERT_FALSE(prog.partition.targets.empty());
    EXPECT_GT(prog.partition.functionPointerUses, 0u);

    SystemConfig local_cfg;
    local_cfg.forceLocal = true;
    RunReport local = OffloadSystem(prog, local_cfg).run({});
    RunReport off = OffloadSystem(prog, SystemConfig{}).run({});
    EXPECT_GT(off.offloads, 0u);
    EXPECT_EQ(off.exitValue, local.exitValue);
    // Translation overhead was charged.
    EXPECT_GT(off.breakdown.fnPtrTranslation, 0.0);
}

TEST(Offload, LossyLinkPopulatesRetryAccounting)
{
    compiler::CompiledProgram prog = compileHeavy();
    SystemConfig local_cfg;
    local_cfg.forceLocal = true;
    RunReport local = OffloadSystem(prog, local_cfg).run(heavyInput());

    SystemConfig cfg;
    cfg.faultPlan.enabled = true;
    cfg.faultPlan.seed = 77;
    cfg.faultPlan.dropRate = 0.25;
    RunReport report = OffloadSystem(prog, cfg).run(heavyInput());

    // A 25% drop rate over the offload message stream must trigger
    // retries, and every retried byte shows up in the wire total.
    EXPECT_GT(report.retries, 0u);
    EXPECT_GT(report.offloads, 0u);
    EXPECT_EQ(report.failovers, 0u); // retry budget absorbs pure drops
    EXPECT_EQ(report.exitValue, local.exitValue);
    EXPECT_EQ(report.console, local.console);

    RunReport clean = OffloadSystem(prog, SystemConfig{}).run(heavyInput());
    EXPECT_GT(report.wireBytes, clean.wireBytes);
}

TEST(Offload, DeadLinkConvergesToAllLocal)
{
    // Many short target invocations against a link that dies on the
    // very first message and never comes back: the estimator's
    // suppression windows must throttle re-probing so only a handful
    // of invocations pay the failover cost, and the rest run local
    // without touching the radio.
    const char *src = R"(
        double* data;
        double crunch(int rounds) {
            double acc = 0.0;
            for (int r = 0; r < rounds; r++) {
                for (int i = 0; i < 150; i++) {
                    data[i] = data[i] * 1.0001 + 0.01;
                    acc += data[i];
                }
            }
            return acc;
        }
        int main() {
            data = (double*)malloc(sizeof(double) * 150);
            for (int i = 0; i < 150; i++) data[i] = (double)i;
            double total = 0.0;
            for (int turn = 0; turn < 24; turn++) {
                int c = getchar();  // taints main's loop: only crunch
                                    // itself is an offload target, so it
                                    // is invoked 24 separate times
                total += crunch(4 + c % 3);
            }
            printf("%.3f\n", total);
            return (int)total % 31;
        }
    )";
    auto mod = frontend::compileSource(src, "dead.c");
    compiler::CompileOptions options;
    options.profilingInput.stdinText = "abcdefghijklmnopqrstuvwx";
    compiler::CompiledProgram prog =
        compiler::compileForOffload(std::move(mod), options);
    ASSERT_FALSE(prog.partition.targets.empty());

    RunInput input;
    input.stdinText = "abcdefghijklmnopqrstuvwx";
    SystemConfig local_cfg;
    local_cfg.forceLocal = true;
    RunReport local = OffloadSystem(prog, local_cfg).run(input);

    SystemConfig cfg;
    cfg.faultPlan.enabled = true;
    cfg.faultPlan.disconnectAtMessage = 1; // dead from the start
    RunReport report = OffloadSystem(prog, cfg).run(input);

    EXPECT_EQ(report.offloads, 0u);
    EXPECT_EQ(report.localRuns, 24u);
    EXPECT_GE(report.failovers, 1u);
    // No re-probe storm: the doubling suppression windows quickly
    // exceed the per-invocation local runtime, so most invocations stay
    // local without touching the dead radio at all.
    EXPECT_LE(report.failovers, 8u);
    uint64_t suppressed = 0;
    for (const OffloadEvent &event : report.events)
        suppressed += event.suppressed ? 1 : 0;
    EXPECT_GT(suppressed, report.failovers);
    EXPECT_EQ(suppressed + report.failovers, 24u);
    EXPECT_EQ(report.exitValue, local.exitValue);
    EXPECT_EQ(report.console, local.console);
}
