/**
 * @file
 * Unified virtual address (UVA) space management (paper Sec. 3.2 / 4).
 * The UVA heap is one address range both machines agree on; each side
 * allocates from a disjoint sub-range so u_malloc never hands out the
 * same address twice even when the server allocates during offloaded
 * execution. Page *contents* flow through prefetch, copy-on-demand and
 * write-back (CommManager); this class only manages addresses.
 *
 * Every session owns a private UvaManager — its UVA namespace — so in
 * a multi-client fleet concurrent offloading processes can never alias
 * each other's unified addresses.
 */
#ifndef NOL_RUNTIME_UVA_HPP
#define NOL_RUNTIME_UVA_HPP

#include <string>
#include <vector>

#include "sim/heapalloc.hpp"
#include "sim/simmachine.hpp"

namespace nol::runtime {

/** Base of the UVA globals range (mirrors interp::kUvaGlobalBase). */
constexpr uint64_t kUvaGlobalsBase = 0x3000'0000ull;

/** Split point between the mobile and server UVA sub-heaps. */
constexpr uint64_t kUvaServerSubBase =
    sim::kUvaHeapBase + sim::kUvaHeapSize * 3 / 4;

/** One named range of the unified address space. */
struct UvaRegion {
    std::string name;
    uint64_t base = 0;
    uint64_t size = 0;

    bool
    contains(uint64_t addr) const
    {
        return addr >= base && addr - base < size;
    }
};

/** Address-space manager of the unified heap. */
class UvaManager
{
  public:
    UvaManager()
        : mobile_heap_(sim::kUvaHeapBase,
                       kUvaServerSubBase - sim::kUvaHeapBase),
          server_heap_(kUvaServerSubBase,
                       sim::kUvaHeapBase + sim::kUvaHeapSize -
                           kUvaServerSubBase)
    {
        // The canonical unified ranges both machines agree on. Region
        // union == the legacy "globals or heap" predicate, exactly.
        addRegion("uva-globals", kUvaGlobalsBase,
                  sim::kUvaHeapBase - kUvaGlobalsBase);
        addRegion("uva-heap-mobile", sim::kUvaHeapBase,
                  kUvaServerSubBase - sim::kUvaHeapBase);
        addRegion("uva-heap-server", kUvaServerSubBase,
                  sim::kUvaHeapBase + sim::kUvaHeapSize - kUvaServerSubBase);
    }

    /** u_malloc arena of the mobile device. */
    sim::HeapAllocator &mobileHeap() { return mobile_heap_; }

    /** u_malloc arena of the server (disjoint sub-range). */
    sim::HeapAllocator &serverHeap() { return server_heap_; }

    /**
     * Register a named range. Rejects (returns false) empty ranges,
     * address wrap-around, and any overlap with an existing region —
     * unified addresses must mean one thing.
     */
    bool
    addRegion(const std::string &name, uint64_t base, uint64_t size)
    {
        if (size == 0 || base + size < base)
            return false;
        for (const UvaRegion &region : regions_) {
            if (base < region.base + region.size &&
                region.base < base + size)
                return false;
        }
        regions_.push_back({name, base, size});
        return true;
    }

    /** Region containing @p addr, or nullptr when unmapped. */
    const UvaRegion *
    regionOf(uint64_t addr) const
    {
        for (const UvaRegion &region : regions_) {
            if (region.contains(addr))
                return &region;
        }
        return nullptr;
    }

    /**
     * Region containing the first byte of page @p page_num, or nullptr.
     * Unified pages are exactly the ones with a named region; the
     * session's prefetch collector and the server page cache both key
     * off this predicate.
     */
    const UvaRegion *
    regionOfPage(uint64_t page_num) const
    {
        return regionOf(page_num * sim::kPageSize);
    }

    /**
     * Translate @p addr to (region, offset). Returns false — leaving
     * the outputs untouched — when the address is unmapped.
     */
    bool
    translate(uint64_t addr, const UvaRegion **region,
              uint64_t *offset) const
    {
        const UvaRegion *found = regionOf(addr);
        if (found == nullptr)
            return false;
        if (region != nullptr)
            *region = found;
        if (offset != nullptr)
            *offset = addr - found->base;
        return true;
    }

    const std::vector<UvaRegion> &regions() const { return regions_; }

    /** True if @p addr lies anywhere in the UVA heap or globals. */
    static bool
    isUvaAddress(uint64_t addr)
    {
        return (addr >= sim::kUvaHeapBase &&
                addr < sim::kUvaHeapBase + sim::kUvaHeapSize) ||
               (addr >= kUvaGlobalsBase && addr < sim::kUvaHeapBase);
    }

  private:
    sim::HeapAllocator mobile_heap_;
    sim::HeapAllocator server_heap_;
    std::vector<UvaRegion> regions_;
};

} // namespace nol::runtime

#endif // NOL_RUNTIME_UVA_HPP
