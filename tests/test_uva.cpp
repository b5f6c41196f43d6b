/**
 * @file
 * UVA address-space tests: sim::isUvaAddress at every edge of the
 * unified layout, and UvaManager's sub-heaps (disjointness and
 * exhaustion) — the address-management edge cases the offload runtime
 * leans on.
 */
#include <gtest/gtest.h>

#include <vector>

#include "runtime/uva.hpp"

using namespace nol;
using namespace nol::runtime;

TEST(UvaRegions, CanonicalLayout)
{
    // Globals, mobile sub-heap and server sub-heap are contiguous, and
    // isUvaAddress holds on both sides of each inner edge.
    EXPECT_LT(sim::kUvaGlobalBase, sim::kUvaHeapBase);
    EXPECT_TRUE(sim::isUvaAddress(sim::kUvaHeapBase - 1));
    EXPECT_TRUE(sim::isUvaAddress(sim::kUvaHeapBase));
    EXPECT_GT(sim::kUvaServerSubBase, sim::kUvaHeapBase);
    EXPECT_LT(sim::kUvaServerSubBase, sim::kUvaHeapBase + sim::kUvaHeapSize);
    EXPECT_TRUE(sim::isUvaAddress(sim::kUvaServerSubBase - 1));
    EXPECT_TRUE(sim::isUvaAddress(sim::kUvaServerSubBase));

    // Each namespace's arenas sit exactly on those edges and abut.
    UvaManager uva;
    EXPECT_EQ(uva.mobileHeap().base(), sim::kUvaHeapBase);
    EXPECT_EQ(uva.mobileHeap().limit(), sim::kUvaServerSubBase);
    EXPECT_EQ(uva.serverHeap().base(), sim::kUvaServerSubBase);
    EXPECT_EQ(uva.serverHeap().limit(),
              sim::kUvaHeapBase + sim::kUvaHeapSize);
}

TEST(UvaRegions, BoundaryAddresses)
{
    // One below the globals base is machine-local; the base is unified.
    EXPECT_FALSE(sim::isUvaAddress(sim::kUvaGlobalBase - 1));
    EXPECT_TRUE(sim::isUvaAddress(sim::kUvaGlobalBase));

    // End of the heap is exclusive.
    uint64_t end = sim::kUvaHeapBase + sim::kUvaHeapSize;
    EXPECT_TRUE(sim::isUvaAddress(end - 1));
    EXPECT_FALSE(sim::isUvaAddress(end));

    // The machine-local regions are all outside.
    EXPECT_FALSE(sim::isUvaAddress(sim::kMobileGlobalBase));
    EXPECT_FALSE(sim::isUvaAddress(sim::kServerGlobalBase));
    EXPECT_FALSE(sim::isUvaAddress(sim::kServerStackBase - 8));
    EXPECT_FALSE(sim::isUvaAddress(sim::kMobileStackBase - 8));
    EXPECT_FALSE(sim::isUvaAddress(sim::kServer64HeapBase));
}

TEST(UvaRegions, RegionUnionMatchesLegacyPredicate)
{
    // The UVA globals plus both u_malloc arenas must cover exactly the
    // addresses isUvaAddress accepts — prefetch page selection and the
    // allocators depend on the two agreeing bit for bit.
    UvaManager uva;
    auto in_union = [&uva](uint64_t addr) {
        return (addr >= sim::kUvaGlobalBase && addr < sim::kUvaHeapBase) ||
               uva.mobileHeap().contains(addr) ||
               uva.serverHeap().contains(addr);
    };
    std::vector<uint64_t> probes = {
        0,
        sim::kUvaGlobalBase - 1,
        sim::kUvaGlobalBase,
        sim::kUvaGlobalBase + 0x1234,
        sim::kUvaHeapBase - 1,
        sim::kUvaHeapBase,
        sim::kUvaServerSubBase - 1,
        sim::kUvaServerSubBase,
        sim::kUvaHeapBase + sim::kUvaHeapSize - 1,
        sim::kUvaHeapBase + sim::kUvaHeapSize,
        0xffff'ffff'ffff'0000ull,
    };
    for (uint64_t addr : probes) {
        EXPECT_EQ(in_union(addr), sim::isUvaAddress(addr))
            << "disagreement at 0x" << std::hex << addr;
    }
}

TEST(UvaHeaps, DisjointSubHeaps)
{
    UvaManager uva;
    uint64_t m = uva.mobileHeap().allocate(64);
    uint64_t s = uva.serverHeap().allocate(64);
    ASSERT_NE(m, 0u);
    ASSERT_NE(s, 0u);
    EXPECT_GE(m, sim::kUvaHeapBase);
    EXPECT_LT(m, sim::kUvaServerSubBase);
    EXPECT_GE(s, sim::kUvaServerSubBase);
    EXPECT_TRUE(sim::isUvaAddress(m));
    EXPECT_TRUE(sim::isUvaAddress(s));
}

TEST(UvaHeaps, MobileExhaustionReturnsZero)
{
    UvaManager uva;
    // The allocator manages addresses only, so walking the whole
    // sub-heap in large chunks is cheap.
    constexpr uint64_t kChunk = 0x1000'0000ull; // 256 MiB
    uint64_t total = sim::kUvaServerSubBase - sim::kUvaHeapBase;
    uint64_t expected = total / kChunk;
    uint64_t got = 0;
    uint64_t last = 0;
    while (true) {
        uint64_t addr = uva.mobileHeap().allocate(kChunk);
        if (addr == 0)
            break;
        last = addr;
        ++got;
        ASSERT_LE(got, expected) << "allocated past the sub-heap";
    }
    EXPECT_EQ(got, expected);
    EXPECT_LT(last + kChunk, sim::kUvaServerSubBase + 1);
    // Smaller requests may still fit the tail; a full-chunk one never.
    EXPECT_EQ(uva.mobileHeap().allocate(kChunk), 0u);
    // Releasing makes the space reusable (free-list path).
    uva.mobileHeap().release(last);
    EXPECT_EQ(uva.mobileHeap().allocate(kChunk), last);
}
