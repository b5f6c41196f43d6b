/**
 * @file
 * One simulated machine (the mobile device or the server): an ArchSpec,
 * paged memory, a native heap, a simulated clock and — on the mobile
 * side — the power model, console, input script and file system.
 *
 * The address-space map below is shared by both machines so that the
 * UVA regions coincide while the machine-local regions deliberately
 * differ (modeling "back-end compilers may allocate global variables at
 * different addresses", paper Sec. 3.2). It is the one definition of
 * the unified layout: the loader, the compiler's UVA page count, the
 * UVA allocators and the prefetch/page-cache predicate all read it.
 */
#ifndef NOL_SIM_SIMMACHINE_HPP
#define NOL_SIM_SIMMACHINE_HPP

#include <string>
#include <utility>

#include "arch/archspec.hpp"
#include "sim/costmodel.hpp"
#include "sim/filesystem.hpp"
#include "sim/heapalloc.hpp"
#include "sim/pagedmemory.hpp"
#include "sim/powermodel.hpp"

namespace nol::sim {

// Address-space map (see file comment), in address order.
constexpr uint64_t kMobileGlobalBase = 0x0800'0000ull; ///< mobile-local globals
constexpr uint64_t kServerGlobalBase = 0x1800'0000ull; ///< server-local globals
/** Mobile-local native heap (non-unified runs). */
constexpr uint64_t kNativeHeapBase = 0x2000'0000ull;
constexpr uint64_t kNativeHeapSize = 0x1800'0000ull;
/** UVA globals, packed by the loader identically on both machines. */
constexpr uint64_t kUvaGlobalBase = 0x3000'0000ull;
/** UVA heap (u_malloc), right after the UVA globals. */
constexpr uint64_t kUvaHeapBase = 0x4000'0000ull;
constexpr uint64_t kUvaHeapSize = 0x6000'0000ull;
/** Split of the UVA heap: the mobile sub-heap below, the server's from
 *  here, so the two sides never hand out the same address. */
constexpr uint64_t kUvaServerSubBase = kUvaHeapBase + kUvaHeapSize * 3 / 4;
/** Server stack, relocated (paper Sec. 3.3); grows down. */
constexpr uint64_t kServerStackBase = 0xA800'0000ull;
constexpr uint64_t kMobileStackBase = 0xBF00'0000ull; ///< grows down
constexpr uint64_t kStackSize = 0x0100'0000ull;
/** Server-local native heap (64-bit only). */
constexpr uint64_t kServer64HeapBase = 0x7f00'0000'0000ull;

/**
 * True if @p addr is a unified address: in the UVA globals or either
 * UVA sub-heap, which are contiguous. Unified pages are the ones the
 * prefetch collector ships and the server page cache keys on.
 */
constexpr bool
isUvaAddress(uint64_t addr)
{
    return addr >= kUvaGlobalBase && addr < kUvaHeapBase + kUvaHeapSize;
}

/** Which role a machine plays in the offloading system. */
enum class MachineRole {
    Mobile,
    Server,
};

/** What one occurrence of a charge-table slot adds, as advanceCompute()
 *  of its scaled cost would; the generated C's view is NolCost. */
struct Charge {
    uint64_t units;
    double ns;
    double energy;
};

/** The spec's cost scales and the state compute time is billed in. */
struct ComputePricing {
    double nsPerCostUnit;
    double arithCostScale;
    double memCostScale;
    PowerState state;
};

/** One simulated machine. */
class SimMachine
{
  public:
    SimMachine(MachineRole role, arch::ArchSpec spec);

    const arch::ArchSpec &spec() const { return spec_; }

    PagedMemory &mem() { return mem_; }
    const PagedMemory &mem() const { return mem_; }

    /** Machine-local heap (native malloc when not unified). */
    HeapAllocator &nativeHeap() { return native_heap_; }

    /** Base address where this machine's loader places globals. */
    uint64_t globalBase() const
    {
        return role_ == MachineRole::Mobile ? kMobileGlobalBase
                                            : kServerGlobalBase;
    }

    /** Top of this machine's stack region (stack grows down). */
    uint64_t stackBase() const
    {
        return role_ == MachineRole::Mobile ? kMobileStackBase
                                            : kServerStackBase;
    }

    // --- Clock and power -----------------------------------------------
    double nowNs() const { return now_ns_; }

    /** Price compute by @p pricing; returns the pricing it replaces.
     *  Ideal offloading runs a target at server speed, billed as
     *  Waiting, then swaps the old pricing back. */
    ComputePricing
    swapPricing(ComputePricing pricing)
    {
        std::swap(spec_.nsPerCostUnit, pricing.nsPerCostUnit);
        std::swap(spec_.arithCostScale, pricing.arithCostScale);
        std::swap(spec_.memCostScale, pricing.memCostScale);
        std::swap(compute_state_, pricing.state);
        priceCharges();
        return pricing;
    }

    /** Set the power draw of @p state in milliwatts. */
    void
    setPowerRate(PowerState state, double milliwatts)
    {
        power_.setRate(state, milliwatts);
        priceCharges();
    }

    /** The charge table at the current pricing and compute rate, by
     *  chargeSlot(). Every change of those rebuilds it in place. */
    const Charge *charges() const { return charges_; }

    /** advanceCompute(scaledCost(cost, kind, spec())) for table slot
     *  @p slot. Inline: the interpreter's per-instruction charge, the
     *  single hottest call in the simulator. */
    void
    charge(uint32_t slot)
    {
        const Charge &c = charges_[slot];
        compute_units_ += c.units;
        power_.accumulate(now_ns_, c.ns, compute_state_, c.energy);
        now_ns_ += c.ns;
    }

    /** Advance the clock by @p cost_units of computation. */
    void
    advanceCompute(uint64_t cost_units)
    {
        compute_units_ += cost_units;
        double ns = static_cast<double>(cost_units) * spec_.nsPerCostUnit;
        power_.accumulate(now_ns_, ns, compute_state_);
        now_ns_ += ns;
    }

    /** Advance the clock by raw @p ns in @p state (I/O, waiting...). */
    void
    advanceTime(double ns, PowerState state)
    {
        if (ns <= 0)
            return;
        power_.accumulate(now_ns_, ns, state);
        now_ns_ += ns;
    }

    /** Jump the clock forward to @p ns in @p state (synchronization). */
    void
    syncTo(double ns, PowerState state)
    {
        if (ns > now_ns_)
            advanceTime(ns - now_ns_, state);
    }

    const PowerModel &power() const { return power_; }

    /** Accumulated compute cost units (the machine's "work counter"). */
    uint64_t computeUnits() const { return compute_units_; }

    /** The clock, the work counter and the energy total, for the
     *  generated C that replays charge() on the open run of compute time
     *  (PowerModel::openRun). None is open while charges do not move the
     *  clock (each is a unit or more), as accumulate() skips them. */
    double *clockSlot() { return &now_ns_; }
    uint64_t *computeUnitsSlot() { return &compute_units_; }
    double *energySlot() { return power_.energySlot(); }
    PowerSegment *
    openComputeRun()
    {
        return spec_.nsPerCostUnit > 0 ? power_.openRun(now_ns_, compute_state_)
                                       : nullptr;
    }

    // --- Console / input / files ------------------------------------------
    std::string &console() { return console_; }
    const std::string &console() const { return console_; }

    /** Script consumed by scanf(). */
    void setInput(std::string text)
    {
        input_ = std::move(text);
        input_pos_ = 0;
    }
    std::string &input() { return input_; }
    size_t &inputPos() { return input_pos_; }

    SimFileSystem &fs() { return fs_; }

    /** Reset clock, power, console and memory (not the file system). */
    void reset();

  private:
    /** Rebuild charges_ from the pricing and the compute rate. */
    void priceCharges();

    MachineRole role_;
    arch::ArchSpec spec_;
    PagedMemory mem_;
    HeapAllocator native_heap_;
    double now_ns_ = 0;
    uint64_t compute_units_ = 0;
    PowerState compute_state_ = PowerState::Compute;
    PowerModel power_;
    Charge charges_[kCostKinds * kCostSlots] = {};
    std::string console_;
    std::string input_;
    size_t input_pos_ = 0;
    SimFileSystem fs_;
};

} // namespace nol::sim

#endif // NOL_SIM_SIMMACHINE_HPP
