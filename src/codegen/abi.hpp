/**
 * @file
 * Host ↔ generated-code ABI for the native-C backend. The C emitter
 * (cemitter.cpp) prints a preamble declaring *exactly* these structs in
 * C; the host fills a NolCtx with pointers into the simulated machine
 * and callbacks that bridge back into it (paged memory, cost
 * accounting, external calls). Any change here must be mirrored in
 * kAbiPreamble — the two are the same contract written twice, once for
 * each language. The emitter checks the NolCtx half: each module
 * asserts the size and field offsets printed from this header.
 */
#ifndef NOL_CODEGEN_ABI_HPP
#define NOL_CODEGEN_ABI_HPP

#include <cstdint>

namespace nol::codegen {

/** Mirror of interp::RtVal: canonical i64 slot + double slot. */
struct NolVal {
    int64_t i;
    double f;
};

/**
 * One run-length-encoded charge: @p count consecutive executions of an
 * instruction costing @p cost units. @p kind is the sim::CostKind
 * selecting the ArchSpec scale applied at charge time (0 none,
 * 1 arith, 2 mem) — scales are read per-occurrence because runIdeal
 * swaps them mid-run.
 */
struct NolChargeItem {
    uint32_t cost;
    uint32_t kind;
    uint32_t count;
};

/**
 * What one occurrence of a (cost, kind) charge adds on the machine's
 * current spec, compute state and rate: the scaled cost units, the ns
 * they take and the energy delta — the exact operands
 * SimMachine::advanceCompute() would add.
 */
struct NolCost {
    uint64_t units;
    double ns;
    double energy;
};

/** Cost kinds (sim::CostKind) and base costs the charge table covers:
 *  entry kind * kNolCostSlots + cost, for base costs 1 .. slots - 1. */
constexpr uint32_t kNolCostKinds = 3;
constexpr uint32_t kNolCostSlots = 17;

/** Trap kinds passed to NolCtx::trap (match interp fatal/panic). */
enum : uint32_t {
    kTrapDivZero = 0,
    kTrapRemZero = 1,
    kTrapStackOverflow = 2,
    kTrapUnreachable = 3,
};

struct NolCtx;

/** Generated function: (ctx, args) → return value. */
using NolFn = NolVal (*)(NolCtx *, NolVal *);

/**
 * The execution context threaded through every generated frame. The
 * guest stack pointer lives here (not in host state) so generated
 * frames can save/restore it exactly like the interpreter's
 * FrameGuard.
 *
 * The generated code charges time and serves memory hits itself, and
 * calls a host thunk only on a slow path. The host re-derives the
 * fields marked "derived" before generated code runs and on the way
 * back from every thunk; nothing else changes the machine meanwhile.
 */
struct NolCtx {
    void *host; ///< the owning codegen::NativeExec
    const uint64_t *globals;
    const uint64_t *fnaddrs;
    uint64_t sp;
    uint64_t stack_limit;

    // --- Charges: advanceCompute() replayed on an open run ------------
    double *now;       ///< SimMachine clock
    double *energy;    ///< PowerModel energy accumulator
    uint64_t *units;   ///< SimMachine compute units
    uint64_t *steps;   ///< the backend's executed-instruction count
    uint64_t step_limit;
    double *seg_end;   ///< derived: end of the open run's segment
    const NolCost *costs; ///< derived: kNolCostKinds x kNolCostSlots
    uint32_t open;     ///< derived: PowerModel::openRun holds
    // --- Memory: PagedMemory's translation cache ----------------------
    uint32_t mem_direct; ///< derived: little-endian, no touch observer
    const uint64_t *mem_tags;
    uint8_t *const *mem_data;
    bool *const *mem_dirty;

    // --- Host thunks ----------------------------------------------------
    /** Slow charge path: replays with SimMachine::advanceCompute. */
    void (*charge)(NolCtx *, const NolChargeItem *, uint32_t n,
                   uint32_t fn_id);
    /** Slow access paths: miss, page crossing, odd size, observer,
     *  big-endian layout. The access's charge is already made. */
    uint64_t (*load_scalar)(NolCtx *, uint64_t addr, uint32_t size);
    void (*store_scalar)(NolCtx *, uint64_t addr, uint32_t size,
                         uint64_t v);
    NolVal (*call_external)(NolCtx *, uint32_t site, NolVal *args,
                            uint32_t n);
    NolVal (*call_indirect)(NolCtx *, uint64_t target, uint32_t site,
                            NolVal *args, uint32_t n);
    void (*machine_asm)(NolCtx *, uint32_t site);
    void (*trap)(NolCtx *, uint32_t kind, uint32_t fn_id); ///< [[noreturn]]
};

static_assert(sizeof(NolVal) == 16, "NolVal must match RtVal layout");
static_assert(sizeof(NolChargeItem) == 12, "NolChargeItem must pack");
static_assert(sizeof(NolCost) == 24, "NolCost must pack");

} // namespace nol::codegen

#endif // NOL_CODEGEN_ABI_HPP
