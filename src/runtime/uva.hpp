/**
 * @file
 * Unified virtual address (UVA) space management (paper Sec. 3.2 / 4).
 * The UVA heap is one address range both machines agree on; each side
 * allocates from a disjoint sub-range so u_malloc never hands out the
 * same address twice even when the server allocates during offloaded
 * execution. The layout itself (globals, heap, sub-heap split, the
 * isUvaAddress predicate) is part of the address map in
 * sim/simmachine.hpp. Page *contents* flow through prefetch,
 * copy-on-demand and write-back (CommManager); this class only hands
 * out addresses.
 *
 * Every session owns a private UvaManager — its UVA namespace — so in
 * a multi-client fleet concurrent offloading processes can never alias
 * each other's unified addresses.
 */
#ifndef NOL_RUNTIME_UVA_HPP
#define NOL_RUNTIME_UVA_HPP

#include "sim/heapalloc.hpp"
#include "sim/simmachine.hpp"

namespace nol::runtime {

/** The two u_malloc arenas of one UVA namespace. */
class UvaManager
{
  public:
    UvaManager()
        : mobile_heap_(sim::kUvaHeapBase,
                       sim::kUvaServerSubBase - sim::kUvaHeapBase),
          server_heap_(sim::kUvaServerSubBase,
                       sim::kUvaHeapBase + sim::kUvaHeapSize -
                           sim::kUvaServerSubBase)
    {
    }

    /** u_malloc arena of the mobile device. */
    sim::HeapAllocator &mobileHeap() { return mobile_heap_; }

    /** u_malloc arena of the server (disjoint sub-range). */
    sim::HeapAllocator &serverHeap() { return server_heap_; }

  private:
    sim::HeapAllocator mobile_heap_;
    sim::HeapAllocator server_heap_;
};

} // namespace nol::runtime

#endif // NOL_RUNTIME_UVA_HPP
