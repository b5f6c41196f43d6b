/**
 * @file
 * Simulated-machine substrate tests: paged memory with fault handlers
 * and dirty tracking, the heap allocator, the power model, the
 * machine's charge table and the in-memory filesystem.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>

#include "sim/costmodel.hpp"
#include "sim/filesystem.hpp"
#include "sim/heapalloc.hpp"
#include "sim/pagedmemory.hpp"
#include "sim/powermodel.hpp"
#include "sim/simmachine.hpp"
#include "support/logging.hpp"

using namespace nol;
using namespace nol::sim;

TEST(PagedMemoryTest, ReadWriteRoundTrip)
{
    PagedMemory mem;
    uint8_t data[16] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16};
    mem.write(0x1000, sizeof(data), data);
    uint8_t back[16] = {};
    mem.read(0x1000, sizeof(back), back);
    EXPECT_EQ(std::memcmp(data, back, sizeof(data)), 0);
}

TEST(PagedMemoryTest, CrossPageAccess)
{
    PagedMemory mem;
    std::vector<uint8_t> data(kPageSize + 100, 0xAB);
    mem.write(kPageSize - 50, data.size(), data.data());
    EXPECT_EQ(mem.pageCount(), 3u); // spans three pages
    std::vector<uint8_t> back(data.size());
    mem.read(kPageSize - 50, back.size(), back.data());
    EXPECT_EQ(back, data);
}

TEST(PagedMemoryTest, ZeroFillOnFirstTouch)
{
    PagedMemory mem;
    uint8_t byte = 0xFF;
    mem.read(0x5000, 1, &byte);
    EXPECT_EQ(byte, 0);
}

TEST(PagedMemoryTest, DirtyTracking)
{
    PagedMemory mem;
    uint8_t b = 1;
    mem.read(0x1000, 1, &b);  // clean materialization
    mem.write(0x3000, 1, &b); // dirty
    auto dirty = mem.dirtyPages();
    ASSERT_EQ(dirty.size(), 1u);
    EXPECT_EQ(dirty[0], pageOf(0x3000));
    mem.clearDirtyBits();
    EXPECT_TRUE(mem.dirtyPages().empty());
}

TEST(PagedMemoryTest, FaultHandlerServicesMisses)
{
    // Models the server's copy-on-demand view: pages come from a
    // "remote" byte source on first touch.
    PagedMemory remote;
    uint8_t seed[4] = {9, 8, 7, 6};
    remote.write(0x2000, 4, seed);

    PagedMemory local(/*auto_zero=*/false);
    int faults = 0;
    local.setFaultHandler([&](uint64_t page_num) {
        ++faults;
        if (!remote.isPresent(page_num))
            return false;
        local.installPage(page_num, remote.pageData(page_num));
        return true;
    });

    uint8_t back[4] = {};
    local.read(0x2000, 4, back);
    EXPECT_EQ(std::memcmp(back, seed, 4), 0);
    EXPECT_EQ(faults, 1);
    // Second access: no further fault (page cached).
    local.read(0x2002, 2, back);
    EXPECT_EQ(faults, 1);
}

TEST(PagedMemoryTest, UnhandledFaultPanics)
{
    PagedMemory mem(/*auto_zero=*/false);
    mem.setFaultHandler([](uint64_t) { return false; });
    uint8_t b;
    EXPECT_THROW(mem.read(0x1000, 1, &b), PanicError);
}

TEST(PagedMemoryTest, InstallPageStartsClean)
{
    PagedMemory mem;
    std::vector<uint8_t> page(kPageSize, 0x42);
    mem.installPage(7, page.data());
    EXPECT_TRUE(mem.dirtyPages().empty());
    EXPECT_EQ(mem.pageData(7)[100], 0x42);
}

TEST(HeapAllocatorTest, AllocateAlignsAndAdvances)
{
    HeapAllocator heap(0x1000, 0x10000);
    uint64_t a = heap.allocate(10);
    uint64_t b = heap.allocate(10);
    EXPECT_EQ(a % 16, 0u);
    EXPECT_EQ(b % 16, 0u);
    EXPECT_NE(a, b);
    EXPECT_EQ(heap.liveBytes(), 32u); // two 16-byte rounded blocks
}

TEST(HeapAllocatorTest, FreeListReuse)
{
    HeapAllocator heap(0x1000, 0x10000);
    uint64_t a = heap.allocate(64);
    heap.release(a);
    uint64_t b = heap.allocate(64);
    EXPECT_EQ(a, b);
}

TEST(HeapAllocatorTest, ExhaustionReturnsZero)
{
    HeapAllocator heap(0x1000, 0x100);
    EXPECT_NE(heap.allocate(0x80), 0u);
    EXPECT_EQ(heap.allocate(0x100), 0u);
}

TEST(HeapAllocatorTest, DoubleFreePanics)
{
    HeapAllocator heap(0x1000, 0x1000);
    uint64_t a = heap.allocate(8);
    heap.release(a);
    EXPECT_THROW(heap.release(a), PanicError);
}

TEST(HeapAllocatorTest, PeakTracksHighWaterMark)
{
    HeapAllocator heap(0x1000, 0x10000);
    uint64_t a = heap.allocate(100);
    uint64_t b = heap.allocate(100);
    heap.release(a);
    heap.release(b);
    EXPECT_EQ(heap.liveBytes(), 0u);
    EXPECT_GE(heap.peakBytes(), 208u);
}

TEST(PowerModelTest, EnergyIntegration)
{
    PowerModel power;
    power.accumulate(0, 1e9, PowerState::Compute); // 1 s of compute
    EXPECT_NEAR(power.energyMillijoules(),
                power.rate(PowerState::Compute), 1e-6);
}

TEST(PowerModelTest, SegmentsMerge)
{
    PowerModel power;
    power.accumulate(0, 100, PowerState::Compute);
    power.accumulate(100, 100, PowerState::Compute);
    power.accumulate(200, 100, PowerState::Transmit);
    EXPECT_EQ(power.timeline().size(), 2u);
    EXPECT_EQ(power.timeline()[0].endNs, 200);
}

TEST(PowerModelTest, AveragePowerWindows)
{
    PowerModel power;
    power.setRate(PowerState::Compute, 2000);
    power.setRate(PowerState::Idle, 0);
    power.accumulate(0, 100, PowerState::Compute);
    // Window twice as long as the active segment → half the power.
    EXPECT_NEAR(averagePower(power.timeline(), 0, 200,
                             power.rate(PowerState::Idle)),
                1000, 1e-9);
}

TEST(PowerModelTest, SlowNetworkReceiveRateConfigurable)
{
    // The paper measures ~2000 mW remote-I/O handling on 802.11ac but
    // ~1700 mW on 802.11n (Fig. 8(b) vs 8(c)).
    PowerModel power;
    power.setRate(PowerState::Receive, 1700);
    EXPECT_EQ(power.rate(PowerState::Receive), 1700);
}

TEST(FileSystemTest, ReadWriteRoundTrip)
{
    SimFileSystem fs;
    fs.putFile("in.txt", "hello");
    uint64_t h = fs.open("in.txt", "r");
    ASSERT_NE(h, 0u);
    uint8_t buf[16];
    EXPECT_EQ(fs.read(h, buf, sizeof(buf)), 5u);
    EXPECT_TRUE(fs.eof(h));
    fs.close(h);
}

TEST(FileSystemTest, MissingFileFailsInReadMode)
{
    SimFileSystem fs;
    EXPECT_EQ(fs.open("absent", "r"), 0u);
    EXPECT_NE(fs.open("absent", "w"), 0u); // created
}

TEST(FileSystemTest, SeekAndTell)
{
    SimFileSystem fs;
    fs.putFile("f", "0123456789");
    uint64_t h = fs.open("f", "r");
    EXPECT_EQ(fs.seek(h, 4, 0), 0);
    EXPECT_EQ(fs.getc(h), '4');
    EXPECT_EQ(fs.seek(h, -1, 2), 0);
    EXPECT_EQ(fs.getc(h), '9');
    EXPECT_EQ(fs.tell(h), 10);
}

TEST(FileSystemTest, WriteExtendsFile)
{
    SimFileSystem fs;
    uint64_t h = fs.open("out", "w");
    fs.write(h, reinterpret_cast<const uint8_t *>("abc"), 3);
    fs.close(h);
    EXPECT_EQ(fs.contents("out"), "abc");
}

TEST(SimMachineTest, ComputeAdvancesClockByArchSpeed)
{
    SimMachine mobile(MachineRole::Mobile, arch::makeArm32());
    SimMachine server(MachineRole::Server, arch::makeX86_64());
    mobile.advanceCompute(1000);
    server.advanceCompute(1000);
    EXPECT_NEAR(mobile.nowNs() / server.nowNs(), 5.5, 1e-9);
}

TEST(SimMachineTest, DistinctGlobalBases)
{
    SimMachine mobile(MachineRole::Mobile, arch::makeArm32());
    SimMachine server(MachineRole::Server, arch::makeX86_64());
    EXPECT_NE(mobile.globalBase(), server.globalBase());
    EXPECT_NE(mobile.stackBase(), server.stackBase());
}

TEST(SimMachineTest, ResetClearsState)
{
    SimMachine machine(MachineRole::Mobile, arch::makeArm32());
    machine.advanceCompute(10);
    machine.console() = "x";
    uint8_t b = 1;
    machine.mem().write(0x1000, 1, &b);
    machine.reset();
    EXPECT_EQ(machine.nowNs(), 0.0);
    EXPECT_TRUE(machine.console().empty());
    EXPECT_EQ(machine.mem().pageCount(), 0u);
}

namespace {

/** Every simulated bit a compute charge moves, printed exactly. */
std::string
chargeState(const SimMachine &m)
{
    char buf[128];
    std::snprintf(buf, sizeof(buf), "now %a energy %a units %llu\n",
                  m.nowNs(), m.power().energyMillijoules(),
                  static_cast<unsigned long long>(m.computeUnits()));
    std::string out = buf;
    for (const PowerSegment &seg : m.power().timeline()) {
        std::snprintf(buf, sizeof(buf), "%a %a %d %a\n", seg.startNs,
                      seg.endNs, static_cast<int>(seg.state),
                      seg.milliwatts);
        out += buf;
    }
    return out;
}

/** The table's entries, printed exactly. */
std::string
tableState(const SimMachine &m)
{
    std::string out;
    char buf[96];
    for (uint32_t slot = 0; slot < kCostKinds * kCostSlots; ++slot) {
        const Charge &c = m.charges()[slot];
        std::snprintf(buf, sizeof(buf), "%llu %a %a\n",
                      static_cast<unsigned long long>(c.units), c.ns,
                      c.energy);
        out += buf;
    }
    return out;
}

const arch::ArchSpec kSpecs[] = {arch::makeArm32(), arch::makeX86_64(),
                                 arch::makeIa32(), arch::makeArm64(),
                                 arch::makeMips32be()};

} // namespace

TEST(SimMachineTest, ChargeThroughEverySlotIsAdvanceCompute)
{
    // At the spec's own pricing, at the ideal swap's (the server's
    // scales billed as Waiting) and after a compute rate change, a
    // charge through the table moves exactly what advanceCompute of
    // the scaled cost moves, merging into the open run as it does.
    const arch::ArchSpec server = arch::makeX86_64();
    for (const arch::ArchSpec &spec : kSpecs) {
        for (int pricing = 0; pricing < 3; ++pricing) {
            for (uint32_t kind = 0; kind < kCostKinds; ++kind) {
                for (uint64_t cost = 1; cost < kCostSlots; ++cost) {
                    SCOPED_TRACE(spec.name + " pricing " +
                                 std::to_string(pricing) + " kind " +
                                 std::to_string(kind) + " cost " +
                                 std::to_string(cost));
                    SimMachine table(MachineRole::Mobile, spec);
                    SimMachine direct(MachineRole::Mobile, spec);
                    for (SimMachine *m : {&table, &direct}) {
                        if (pricing == 1)
                            m->swapPricing({server.nsPerCostUnit,
                                            server.arithCostScale,
                                            server.memCostScale,
                                            PowerState::Waiting});
                        if (pricing == 2)
                            m->setPowerRate(PowerState::Compute, 1234.5);
                        m->advanceTime(1e3 / 3, PowerState::Idle);
                    }
                    for (int k = 0; k < 3; ++k) {
                        table.charge(static_cast<uint32_t>(
                            kind * kCostSlots + cost));
                        direct.advanceCompute(scaledCost(
                            cost, static_cast<CostKind>(kind),
                            direct.spec()));
                    }
                    EXPECT_EQ(chargeState(table), chargeState(direct));
                }
            }
        }
    }
}

TEST(SimMachineTest, IdealSwapAndRestoreLeaveTheTableAsItWas)
{
    const arch::ArchSpec server = arch::makeX86_64();
    for (const arch::ArchSpec &spec : kSpecs) {
        SCOPED_TRACE(spec.name);
        SimMachine m(MachineRole::Mobile, spec);
        std::string before = tableState(m);
        ComputePricing saved = m.swapPricing(
            {server.nsPerCostUnit, server.arithCostScale,
             server.memCostScale, PowerState::Waiting});
        EXPECT_NE(tableState(m), before);
        m.swapPricing(saved);
        EXPECT_EQ(tableState(m), before);
        EXPECT_EQ(m.spec().nsPerCostUnit, spec.nsPerCostUnit);
    }
}
