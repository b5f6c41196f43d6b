/**
 * @file
 * The execution seam: an ExecBackend runs IR functions on one simulated
 * machine while charging simulated time from the per-instruction cost
 * model. Two implementations exist — the reference interpreter
 * (interp::Interp) and the native-C codegen engine
 * (codegen::NativeExec) — and the offload runtime drives either through
 * this interface. The interpreter is the differential oracle: every
 * backend must be bit-identical to it in outputs *and* charged cost.
 */
#ifndef NOL_INTERP_EXECBACKEND_HPP
#define NOL_INTERP_EXECBACKEND_HPP

#include <string>
#include <vector>

#include "arch/endian.hpp"
#include "interp/backendkind.hpp"
#include "interp/loader.hpp"
#include "interp/rtval.hpp"
#include "sim/simmachine.hpp"

namespace nol::interp {

class ExecBackend;

/** Thrown when the guest program calls exit(). */
struct GuestExit {
    int64_t code = 0;
};

/** Handles calls that leave the IR world (builtins / remote I/O). */
class ExecEnv
{
  public:
    virtual ~ExecEnv() = default;

    /**
     * Execute @p call, which reaches external @p callee directly or
     * through a function pointer the backend resolved, with evaluated
     * @p args. Read the callee from @p callee, never from
     * call.callee(): an indirect call has none.
     */
    virtual RtVal callExternal(ExecBackend &interp,
                               const ir::Function &callee,
                               const ir::Instruction &call,
                               std::vector<RtVal> &args) = 0;

    /** A MachineAsm instruction executed (default: allowed, no-op). */
    virtual void
    onMachineAsm(ExecBackend &interp, const ir::Instruction &inst)
    {
        (void)interp;
        (void)inst;
    }
};

/**
 * Executes IR functions on one simulated machine. Owns the shared
 * execution state (machine, module, image, effective ABI, step and
 * indirect-call accounting) so environments and the runtime can talk
 * to any backend uniformly; subclasses provide the actual engine.
 */
class ExecBackend
{
  public:
    ExecBackend(sim::SimMachine &machine, const ir::Module &module,
                const ProgramImage &image, ExecEnv &env);
    virtual ~ExecBackend() = default;

    ExecBackend(const ExecBackend &) = delete;
    ExecBackend &operator=(const ExecBackend &) = delete;

    /** Run @p fn with @p args; returns its return value. */
    virtual RtVal call(ir::Function *fn, const std::vector<RtVal> &args) = 0;

    // --- Configuration ------------------------------------------------
    /** Cost charged on top of each indirect call (fn-ptr translation). */
    void setIndirectCallExtraCost(uint64_t cost)
    {
        indirect_extra_cost_ = cost;
    }

    // --- Accessors (used by ExecEnv implementations) ---------------------
    sim::SimMachine &machine() { return machine_; }
    const ir::DataLayout &layout() const { return dl_; }

    /** Effective pointer size in bytes (unified or native). */
    uint32_t ptrSize() const { return dl_.spec().pointerSize; }

    /** Effective byte order. */
    arch::Endianness endian() const { return dl_.spec().endian; }

    /** Instructions executed so far. */
    uint64_t steps() const { return steps_; }

    /** Cost units charged for function-pointer translation so far. */
    uint64_t indirectExtraUnits() const
    {
        return indirect_calls_ * indirect_extra_cost_;
    }

    // --- Guest memory helpers -----------------------------------------
    /** NUL-terminated string at @p addr (bounded at 1 MiB). */
    std::string readCString(uint64_t addr);

    void readBytes(uint64_t addr, uint64_t size, uint8_t *out);
    void writeBytes(uint64_t addr, uint64_t size, const uint8_t *src);

    /**
     * Scalar of @p size bytes at @p addr under the effective endian.
     * Inline, dispatching to constant-size reads: every guest load of
     * both backends funnels through here, and the fixed sizes let the
     * page-cache fast path reduce to a handful of instructions instead
     * of a libc memcpy call.
     */
    uint64_t
    loadScalarAt(uint64_t addr, uint32_t size)
    {
        uint8_t buf[8];
        sim::PagedMemory &mem = machine_.mem();
        switch (size) {
        case 1:
            mem.read(addr, 1, buf);
            return arch::loadScalar(buf, 1, endian());
        case 2:
            mem.read(addr, 2, buf);
            return arch::loadScalar(buf, 2, endian());
        case 4:
            mem.read(addr, 4, buf);
            return arch::loadScalar(buf, 4, endian());
        case 8:
            mem.read(addr, 8, buf);
            return arch::loadScalar(buf, 8, endian());
        default:
            mem.read(addr, size, buf);
            return arch::loadScalar(buf, size, endian());
        }
    }

    /** Store the low @p size bytes of @p value at @p addr (see above). */
    void
    storeScalarAt(uint64_t addr, uint32_t size, uint64_t value)
    {
        uint8_t buf[8];
        sim::PagedMemory &mem = machine_.mem();
        switch (size) {
        case 1:
            arch::storeScalar(buf, 1, endian(), value);
            mem.write(addr, 1, buf);
            return;
        case 2:
            arch::storeScalar(buf, 2, endian(), value);
            mem.write(addr, 2, buf);
            return;
        case 4:
            arch::storeScalar(buf, 4, endian(), value);
            mem.write(addr, 4, buf);
            return;
        case 8:
            arch::storeScalar(buf, 8, endian(), value);
            mem.write(addr, 8, buf);
            return;
        default:
            arch::storeScalar(buf, size, endian(), value);
            mem.write(addr, size, buf);
            return;
        }
    }

  protected:
    /** Abort execution after this many instructions (runaway guard). */
    static constexpr uint64_t kStepLimit = 4'000'000'000ull;

    /** Count one indirect call and charge its function-pointer
     *  translation (paper Sec. 3.4), if any is configured. */
    void
    chargeIndirectCall()
    {
        ++indirect_calls_;
        if (indirect_extra_cost_ > 0)
            machine_.advanceCompute(indirect_extra_cost_);
    }

    /** Charge one call of external @p callee: its builtin row's base
     *  cost, arith-scaled for math calls, or kUnlistedCallCost for a
     *  name without a row of its own (u_* and r_* twins, offload
     *  stubs, unknown externals). */
    void chargeExternalCall(const ir::Function &callee);

    static constexpr uint64_t kUnlistedCallCost = 25;

    /** Raise guest trap @p kind (a NOL_TRAP_* of guestops.h) in function
     *  @p fn_name: a FatalError, or a PanicError for 'unreachable'. */
    [[noreturn]] static void raiseTrap(uint32_t kind, const char *fn_name);

    sim::SimMachine &machine_;
    const ir::Module &module_;
    const ProgramImage &image_;
    ExecEnv &env_;
    ir::DataLayout dl_;
    uint64_t steps_ = 0;
    uint64_t indirect_extra_cost_ = 0;
    uint64_t indirect_calls_ = 0;
    int depth_ = 0;
};

} // namespace nol::interp

#endif // NOL_INTERP_EXECBACKEND_HPP
