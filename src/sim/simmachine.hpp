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

#include "arch/archspec.hpp"
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

    /**
     * Override the ns-per-cost-unit conversion (used by the "ideal
     * offloading" mode that executes targets at server speed with zero
     * overhead). Returns the previous value.
     */
    double
    setNsPerCostUnit(double ns)
    {
        double old = spec_.nsPerCostUnit;
        spec_.nsPerCostUnit = ns;
        return old;
    }

    /** Override arithCostScale (ideal-offload mode); returns old. */
    double
    setArithCostScale(double scale)
    {
        double old = spec_.arithCostScale;
        spec_.arithCostScale = scale;
        return old;
    }

    /** Override memCostScale (ideal-offload mode); returns old. */
    double
    setMemCostScale(double scale)
    {
        double old = spec_.memCostScale;
        spec_.memCostScale = scale;
        return old;
    }

    /**
     * Set the power state charged for compute time (normally Compute;
     * the ideal-offload mode bills target execution as Waiting) and
     * return the previous one.
     */
    PowerState
    setComputeState(PowerState state)
    {
        PowerState old = compute_state_;
        compute_state_ = state;
        return old;
    }

    /** Advance the clock by @p cost_units of computation. Inline: this
     *  is the per-instruction cost-charging path of both execution
     *  backends, the single hottest call in the simulator. */
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

    PowerModel &power() { return power_; }
    const PowerModel &power() const { return power_; }

    /** Accumulated compute cost units (the machine's "work counter"). */
    uint64_t computeUnits() const { return compute_units_; }

    /** The power state compute time is charged in. */
    PowerState computeState() const { return compute_state_; }

    /**
     * The clock and the work counter themselves, for code that replays
     * advanceCompute() inline on an open run (PowerModel::openRun):
     * the native-C backend's generated charge path.
     */
    double *clockSlot() { return &now_ns_; }
    uint64_t *computeUnitsSlot() { return &compute_units_; }

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
    MachineRole role_;
    arch::ArchSpec spec_;
    PagedMemory mem_;
    HeapAllocator native_heap_;
    double now_ns_ = 0;
    uint64_t compute_units_ = 0;
    PowerState compute_state_ = PowerState::Compute;
    PowerModel power_;
    std::string console_;
    std::string input_;
    size_t input_pos_ = 0;
    SimFileSystem fs_;
};

} // namespace nol::sim

#endif // NOL_SIM_SIMMACHINE_HPP
