/**
 * @file
 * Host ↔ generated-code ABI for the native-C backend. The C emitter
 * (cemitter.cpp) prints a preamble declaring *exactly* these structs in
 * C; the host fills a NolCtx with callbacks that bridge back into the
 * simulated machine (paged memory, cost accounting, external calls).
 * Any change here must be mirrored in kAbiPreamble — the two are the
 * same contract written twice, once for each language.
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
 */
struct NolCtx {
    void *host; ///< the owning codegen::NativeExec
    const uint64_t *globals;
    const uint64_t *fnaddrs;
    uint64_t sp;
    uint64_t stack_limit;
    void (*charge)(NolCtx *, const NolChargeItem *, uint32_t n,
                   uint32_t fn_id);
    /**
     * Fused charge + memory access: charges the access instruction's
     * own cost (packed as cost << 2 | kind, exactly one occurrence),
     * then performs the load/store — the same order the interpreter
     * uses, in one host call instead of a charge() flush plus an
     * access call. Memory-dense guest code is run-length 1–3 between
     * accesses, so this halves its host-call count.
     */
    uint64_t (*load_scalar)(NolCtx *, uint64_t addr, uint32_t size,
                            uint32_t cost_kind, uint32_t fn_id);
    void (*store_scalar)(NolCtx *, uint64_t addr, uint32_t size, uint64_t v,
                         uint32_t cost_kind, uint32_t fn_id);
    NolVal (*call_external)(NolCtx *, uint32_t site, NolVal *args,
                            uint32_t n);
    NolVal (*call_indirect)(NolCtx *, uint64_t target, uint32_t site,
                            NolVal *args, uint32_t n);
    void (*machine_asm)(NolCtx *, uint32_t site);
    void (*trap)(NolCtx *, uint32_t kind, uint32_t fn_id); ///< [[noreturn]]
};

static_assert(sizeof(NolVal) == 16, "NolVal must match RtVal layout");
static_assert(sizeof(NolChargeItem) == 12, "NolChargeItem must pack");

} // namespace nol::codegen

#endif // NOL_CODEGEN_ABI_HPP
