/*
 * Host <-> generated-code ABI of the native-C backend, written once for
 * both languages: the host includes this header as C++ and the C
 * emitter pastes its text at the top of every generated module. The
 * host fills a NolCtx with pointers into the simulated machine and
 * callbacks that bridge back into it (paged memory, cost accounting,
 * external calls). Each module also asserts NolCtx's size and field
 * offsets as the host compiler laid them out, since the two compilers
 * need not agree on a shared text's layout.
 */
#ifndef NOL_CODEGEN_ABI_H
#define NOL_CODEGEN_ABI_H

#include <stdbool.h>
#include <stddef.h>
#include <stdint.h>

#ifdef __cplusplus
namespace nol::codegen {
#endif

/* Mirror of interp::RtVal: canonical i64 slot + double slot. */
typedef struct NolVal {
    int64_t i;
    double f;
} NolVal;

/* One run-length-encoded charge: count consecutive executions of an
 * instruction costing cost units. kind is the sim::CostKind selecting
 * the ArchSpec scale (0 none, 1 arith, 2 mem); the charge table entry
 * kind * NOL_COST_SLOTS + cost holds what one execution adds. */
typedef struct NolChargeItem {
    uint32_t cost;
    uint32_t kind;
    uint32_t count;
} NolChargeItem;

/* One entry of the machine's charge table (sim::Charge): what one
 * occurrence of a (cost, kind) charge adds at the machine's current
 * pricing and compute rate, the scaled cost units, the ns they take and
 * the energy delta. runIdeal's pricing swap rebuilds the table in place. */
typedef struct NolCost {
    uint64_t units;
    double ns;
    double energy;
} NolCost;

/* The charge table's shape: entry kind * NOL_COST_SLOTS + cost, for
 * the cost kinds and the base costs 1 .. NOL_COST_SLOTS - 1. */
enum { NOL_COST_KINDS = 3, NOL_COST_SLOTS = 17 };

struct NolCtx;

/* Generated function: (ctx, args) -> return value. */
typedef NolVal (*NolFn)(struct NolCtx *, NolVal *);

/* The execution context threaded through every generated frame. The
 * guest stack pointer lives here (not in host state) so generated
 * frames save and restore it exactly like the interpreter's FrameGuard.
 *
 * The generated code charges time and serves memory hits itself, and
 * calls a host thunk only on a slow path. The host re-derives the
 * fields marked "derived" before generated code runs and on the way
 * back from every thunk; nothing else changes the machine meanwhile. */
typedef struct NolCtx {
    void *host; /* the owning codegen::NativeExec */
    const uint64_t *globals;
    const uint64_t *fnaddrs;
    uint64_t sp;
    uint64_t stack_limit;

    /* Charges: SimMachine::charge() replayed on an open run */
    double *now;          /* SimMachine clock */
    double *energy;       /* PowerModel energy accumulator */
    uint64_t *units;      /* SimMachine compute units */
    uint64_t *steps;      /* the backend's executed-instruction count */
    uint64_t step_limit;
    double *seg_end;      /* derived: end of the open run's segment */
    const NolCost *costs; /* the charge table, kinds x slots */
    uint32_t open;        /* derived: PowerModel::openRun holds */
    /* Memory: PagedMemory's translation cache */
    uint32_t mem_direct;  /* derived: little-endian, no touch observer */
    const uint64_t *mem_tags;
    uint8_t *const *mem_data;
    bool *const *mem_dirty;

    /* Host thunks. Slow charge path: replays with SimMachine::charge. */
    void (*charge)(struct NolCtx *, const NolChargeItem *, uint32_t n,
                   uint32_t fn_id);
    /* Slow access paths: miss, page crossing, odd size, observer,
     * big-endian layout. The access's charge is already made. */
    uint64_t (*load_scalar)(struct NolCtx *, uint64_t addr, uint32_t size);
    void (*store_scalar)(struct NolCtx *, uint64_t addr, uint32_t size,
                         uint64_t v);
    NolVal (*call_external)(struct NolCtx *, uint32_t site, NolVal *args,
                            uint32_t n);
    NolVal (*call_indirect)(struct NolCtx *, uint64_t target, uint32_t site,
                            NolVal *args, uint32_t n);
    void (*machine_asm)(struct NolCtx *, uint32_t site);
    /* Raise guest trap kind (a NOL_TRAP_* of guestops.h); never returns. */
    void (*trap)(struct NolCtx *, uint32_t kind, uint32_t fn_id);
} NolCtx;

#ifdef __cplusplus
static_assert(sizeof(NolVal) == 16, "NolVal must match RtVal layout");
static_assert(sizeof(NolChargeItem) == 12, "NolChargeItem must pack");
static_assert(sizeof(NolCost) == 24, "NolCost must pack");
} /* namespace nol::codegen */
#endif

#endif /* NOL_CODEGEN_ABI_H */
