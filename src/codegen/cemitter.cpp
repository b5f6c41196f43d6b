#include "codegen/cemitter.hpp"

#include <cinttypes>
#include <cstdarg>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <unordered_map>

#include "codegen/abi.h"
#include "interp/guestops.h"
#include "ir/function.hpp"
#include "ir/instruction.hpp"
#include "support/logging.hpp"
#include "ir/type.hpp"
#include "ir/value.hpp"
#include "ir/verifier.hpp"
#include "sim/costmodel.hpp"
#include "sim/pagedmemory.hpp"

namespace nol::codegen {

using ir::Opcode;

namespace {

/** The ABI contract and the guest operations, as the host compiles
 *  them; embedded at build time by src/codegen/embed.cmake. */
const char *kAbiHeader =
#include "abi.inc"
    ;
const char *kGuestOps =
#include "guestops.inc"
    ;

/**
 * The preamble's charge and access helpers, after the layout checks
 * and constants the emitter prints from the host's NolCtx and
 * PagedMemory. They stay out of line: inlined, they multiply host cc
 * time for a few percent of run time.
 *
 * nol_flush replays the current charge segment's entries not yet
 * replayed (from ctx->replayed up to n) as the host's charge thunk
 * would: per occurrence, SimMachine::charge's additions in its order,
 * with the operands of the machine's charge table (ctx->costs).
 * That is exact only on an open run (PowerModel::openRun) with room
 * under the step limit, where accumulate() merely extends the last
 * segment to the new clock; anything else goes to the host. The emitter
 * calls it before each call, asm and terminator, the points where the
 * host can see the clock.
 *
 * nol_loadN and nol_storeN access N bytes. They serve a translation-
 * cache hit as PagedMemory's read()/write() would, without charging:
 * a hit observes nothing. Any other access (a miss, a page crossing,
 * a touch observer, a big-endian layout) leaves the module, so they
 * first replay the segment through the access, mark that much of it
 * replayed, then call the host.
 */
const char *kPreambleHelpers = R"(
static void nol_flush(NolCtx *ctx, const uint8_t *seg, uint32_t n,
                      uint32_t fn_id) {
    double now, energy;
    uint64_t units = 0;
    uint32_t i = ctx->replayed;
    ctx->replayed = 0;
    if (!ctx->open || n - i > ctx->step_limit - *ctx->steps) {
        ctx->charge(ctx, seg + i, n - i, fn_id);
        return;
    }
    *ctx->steps += n - i;
    now = *ctx->now;
    energy = *ctx->energy;
    for (; i < n; ++i) {
        const NolCost *c = &ctx->costs[seg[i]];
        units += c->units;
        energy += c->energy;
        now += c->ns;
    }
    *ctx->now = now;
    *ctx->seg_end = now;
    *ctx->energy = energy;
    *ctx->units += units;
}
#define NOL_ACCESS(N, T)                                                   \
static uint64_t nol_load##N(NolCtx *ctx, uint64_t addr,                    \
                            const uint8_t *seg, uint32_t upto,             \
                            uint32_t fn_id) {                              \
    uint64_t page = addr / NOL_PAGE_SIZE, off = addr % NOL_PAGE_SIZE;      \
    uint32_t way = (uint32_t)(page % NOL_CACHE_WAYS);                      \
    T x;                                                                   \
    if (ctx->mem_direct && off <= NOL_PAGE_SIZE - N &&                     \
        ctx->mem_tags[way] == page) {                                      \
        memcpy(&x, ctx->mem_data[way] + off, N);                           \
        return x;                                                          \
    }                                                                      \
    nol_flush(ctx, seg, upto, fn_id);                                      \
    ctx->replayed = upto;                                                  \
    return ctx->load_scalar(ctx, addr, N);                                 \
}                                                                          \
static void nol_store##N(NolCtx *ctx, uint64_t addr, uint64_t v,           \
                         const uint8_t *seg, uint32_t upto,                \
                         uint32_t fn_id) {                                 \
    uint64_t page = addr / NOL_PAGE_SIZE, off = addr % NOL_PAGE_SIZE;      \
    uint32_t way = (uint32_t)(page % NOL_CACHE_WAYS);                      \
    T x = (T)v;                                                            \
    if (ctx->mem_direct && off <= NOL_PAGE_SIZE - N &&                     \
        ctx->mem_tags[way] == page) {                                      \
        *ctx->mem_dirty[way] = 1;                                          \
        memcpy(ctx->mem_data[way] + off, &x, N);                           \
        return;                                                            \
    }                                                                      \
    nol_flush(ctx, seg, upto, fn_id);                                      \
    ctx->replayed = upto;                                                  \
    ctx->store_scalar(ctx, addr, N, v);                                    \
}
NOL_ACCESS(1, uint8_t)
NOL_ACCESS(2, uint16_t)
NOL_ACCESS(4, uint32_t)
NOL_ACCESS(8, uint64_t)
)";

/** The NolCtx fields whose offsets every module checks. */
const struct {
    const char *name;
    size_t offset;
} kCtxFields[] = {
    {"host", offsetof(NolCtx, host)},
    {"globals", offsetof(NolCtx, globals)},
    {"fnaddrs", offsetof(NolCtx, fnaddrs)},
    {"sp", offsetof(NolCtx, sp)},
    {"stack_limit", offsetof(NolCtx, stack_limit)},
    {"now", offsetof(NolCtx, now)},
    {"energy", offsetof(NolCtx, energy)},
    {"units", offsetof(NolCtx, units)},
    {"steps", offsetof(NolCtx, steps)},
    {"step_limit", offsetof(NolCtx, step_limit)},
    {"seg_end", offsetof(NolCtx, seg_end)},
    {"costs", offsetof(NolCtx, costs)},
    {"open", offsetof(NolCtx, open)},
    {"replayed", offsetof(NolCtx, replayed)},
    {"mem_direct", offsetof(NolCtx, mem_direct)},
    {"mem_tags", offsetof(NolCtx, mem_tags)},
    {"mem_data", offsetof(NolCtx, mem_data)},
    {"mem_dirty", offsetof(NolCtx, mem_dirty)},
    {"charge", offsetof(NolCtx, charge)},
    {"load_scalar", offsetof(NolCtx, load_scalar)},
    {"store_scalar", offsetof(NolCtx, store_scalar)},
    {"call_external", offsetof(NolCtx, call_external)},
    {"call_indirect", offsetof(NolCtx, call_indirect)},
    {"machine_asm", offsetof(NolCtx, machine_asm)},
    {"trap", offsetof(NolCtx, trap)},
};

uint32_t
intWidth(const ir::Type *type)
{
    return static_cast<const ir::IntType *>(type)->bits();
}

bool
isF32(const ir::Type *type)
{
    return type->isFloat() &&
           static_cast<const ir::FloatType *>(type)->bits() == 32;
}

std::string
intLit(int64_t v)
{
    if (v == INT64_MIN)
        return "(-9223372036854775807LL - 1)";
    return std::to_string(v) + "LL";
}

/** Exact double constant via its bit pattern (no text round-trip). */
std::string
f64Lit(double d)
{
    uint64_t bits;
    std::memcpy(&bits, &d, 8);
    char buf[40];
    std::snprintf(buf, sizeof buf, "nol_f64_from(0x%016" PRIx64 "ULL)",
                  bits);
    return buf;
}

/** Does @p inst end a charge segment: a call, asm or terminator, a
 *  point where the host can see the clock? */
bool
endsSegment(const ir::Instruction *inst)
{
    switch (inst->op()) {
      case Opcode::Call:
      case Opcode::CallIndirect:
      case Opcode::MachineAsm:
        return true;
      default:
        return inst->isTerminator();
    }
}

class Emitter
{
  public:
    Emitter(const ir::Module &module, const ir::DataLayout &dl)
        : m_(module), dl_(dl)
    {
    }

    LoweredModule run();

  private:
    void emitFunction(const ir::Function *fn, size_t fn_id);
    void emitInst(const ir::Instruction *inst, size_t fn_id);

    /**
     * Open the charge segment that starts at instruction @p first of
     * @p bb: declare its table, the charge-table slot of each of its
     * instructions in order, up to the first one that endsSegment().
     */
    void openSegment(const ir::BasicBlock &bb, size_t first);

    /** The current segment's table and how many of its entries the
     *  instruction being emitted ends: `cK, n`. */
    std::string segmentThrough() const
    {
        return "c" + std::to_string(segment_) + ", " +
               std::to_string(segPos_);
    }

    /** Replay the rest of the current segment, which the instruction
     *  being emitted ends. */
    void flushSegment(size_t fn_id)
    {
        NOL_ASSERT(segPos_ == segLen_, "segment c%zu flushed at %zu of %zu",
                   segment_, segPos_, segLen_);
        line("  nol_flush(ctx, %s, %zu);", segmentThrough().c_str(), fn_id);
    }

    // --- Operand rendering ---------------------------------------------
    std::string exprI(const ir::Value *v);
    std::string exprF(const ir::Value *v);
    std::string exprWhole(const ir::Value *v);

    /** Width of @p inst's first operand: its integer width, or the
     *  pointer width for a pointer. */
    uint32_t operandWidth(const ir::Instruction *inst) const
    {
        const ir::Type *ty = inst->operand(0)->type();
        return ty->isInt() ? intWidth(ty) : dl_.spec().pointerSize * 8;
    }

    std::string var(const ir::Instruction *inst)
    {
        return "v" + std::to_string(instIdx_.at(inst));
    }

    void line(const char *fmt, ...)
#if defined(__GNUC__)
        __attribute__((format(printf, 2, 3)))
#endif
        ;

    const ir::Module &m_;
    const ir::DataLayout &dl_;
    std::string out_;
    LoweredModule lowered_;
    std::unordered_map<const ir::GlobalVariable *, size_t> globalIdx_;
    std::unordered_map<const ir::Function *, size_t> fnIdx_;

    // Per-function state.
    std::unordered_map<const ir::Value *, size_t> instIdx_;
    std::unordered_map<const ir::Instruction *, size_t> allocaIdx_;
    std::unordered_map<const ir::BasicBlock *, size_t> blockIdx_;
    size_t segment_ = 0; ///< the current segment's table is cK
    size_t segLen_ = 0;  ///< its instructions
    size_t segPos_ = 0;  ///< of which emitted, with the current one
};

void
Emitter::line(const char *fmt, ...)
{
    char buf[512];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof buf, fmt, ap);
    va_end(ap);
    out_ += buf;
    out_ += '\n';
}

std::string
Emitter::exprI(const ir::Value *v)
{
    switch (v->valueKind()) {
      case ir::Value::Kind::ConstInt:
        return intLit(static_cast<const ir::ConstInt *>(v)->value());
      case ir::Value::Kind::ConstFloat:
        return "0LL"; // int read of a float constant cannot occur
      case ir::Value::Kind::ConstNull:
        return "0LL";
      case ir::Value::Kind::Global: {
        size_t idx = globalIdx_.at(static_cast<const ir::GlobalVariable *>(v));
        return "(int64_t)ctx->globals[" + std::to_string(idx) + "]";
      }
      case ir::Value::Kind::Function: {
        size_t idx = fnIdx_.at(static_cast<const ir::Function *>(v));
        return "(int64_t)ctx->fnaddrs[" + std::to_string(idx) + "]";
      }
      case ir::Value::Kind::Argument: {
        size_t idx = instIdx_.at(v);
        return "a[" + std::to_string(idx) + "].i";
      }
      case ir::Value::Kind::Instruction:
        return var(static_cast<const ir::Instruction *>(v)) + ".i";
    }
    panic("unknown value kind");
}

std::string
Emitter::exprF(const ir::Value *v)
{
    switch (v->valueKind()) {
      case ir::Value::Kind::ConstFloat:
        return f64Lit(static_cast<const ir::ConstFloat *>(v)->value());
      case ir::Value::Kind::ConstInt:
      case ir::Value::Kind::ConstNull:
      case ir::Value::Kind::Global:
      case ir::Value::Kind::Function:
        return "0.0"; // float read of a pointer/int cannot occur
      case ir::Value::Kind::Argument: {
        size_t idx = instIdx_.at(v);
        return "a[" + std::to_string(idx) + "].f";
      }
      case ir::Value::Kind::Instruction:
        return var(static_cast<const ir::Instruction *>(v)) + ".f";
    }
    panic("unknown value kind");
}

std::string
Emitter::exprWhole(const ir::Value *v)
{
    switch (v->valueKind()) {
      case ir::Value::Kind::ConstInt:
        return "(NolVal){" +
               intLit(static_cast<const ir::ConstInt *>(v)->value()) +
               ", 0.0}";
      case ir::Value::Kind::ConstFloat:
        return "(NolVal){0, " +
               f64Lit(static_cast<const ir::ConstFloat *>(v)->value()) + "}";
      case ir::Value::Kind::ConstNull:
      case ir::Value::Kind::Global:
      case ir::Value::Kind::Function:
        return "(NolVal){" + exprI(v) + ", 0.0}";
      case ir::Value::Kind::Argument: {
        size_t idx = instIdx_.at(v);
        return "a[" + std::to_string(idx) + "]";
      }
      case ir::Value::Kind::Instruction:
        return var(static_cast<const ir::Instruction *>(v));
    }
    panic("unknown value kind");
}

LoweredModule
Emitter::run()
{
    out_ = kAbiHeader;
    // A field added on one side only fails the module's compile
    // instead of corrupting memory.
    line("_Static_assert(sizeof(NolCtx) == %zu, \"NolCtx size\");",
         sizeof(NolCtx));
    for (const auto &field : kCtxFields)
        line("_Static_assert(offsetof(NolCtx, %s) == %zu, \"NolCtx.%s\");",
             field.name, field.offset, field.name);
    line("enum { NOL_CACHE_WAYS = %zu, NOL_PAGE_SIZE = %" PRIu64 " };",
         sim::PagedMemory::kCacheWays, sim::kPageSize);
    out_ += kGuestOps;
    out_ += kPreambleHelpers;
    for (const auto &g : m_.globals()) {
        globalIdx_[g.get()] = lowered_.globals.size();
        lowered_.globals.push_back(g.get());
    }
    for (const auto &fn : m_.functions()) {
        fnIdx_[fn.get()] = lowered_.functions.size();
        lowered_.functions.push_back(fn.get());
    }

    // Forward declarations for direct calls in any order.
    for (size_t i = 0; i < lowered_.functions.size(); ++i) {
        if (lowered_.functions[i]->hasBody())
            line("static NolVal nol_f%zu(NolCtx *ctx, NolVal *a);", i);
    }
    out_ += '\n';

    for (size_t i = 0; i < lowered_.functions.size(); ++i) {
        if (lowered_.functions[i]->hasBody())
            emitFunction(lowered_.functions[i], i);
    }

    line("const NolFn nol_fn_table[] = {");
    for (size_t i = 0; i < lowered_.functions.size(); ++i) {
        if (lowered_.functions[i]->hasBody())
            line("    nol_f%zu,", i);
        else
            line("    0, /* external: %s */",
                 lowered_.functions[i]->name().c_str());
    }
    line("};");
    line("const uint32_t nol_fn_count = %zu;", lowered_.functions.size());

    lowered_.source = std::move(out_);
    lowered_.digest = contentDigest(lowered_.source);
    return lowered_;
}

void
Emitter::openSegment(const ir::BasicBlock &bb, size_t first)
{
    ++segment_;
    segLen_ = 0;
    segPos_ = 0;
    std::string row = "  static const uint8_t c" + std::to_string(segment_) +
                      "[] = {";
    for (size_t i = first; i < bb.size(); ++i) {
        ir::Opcode op = bb.inst(i)->op();
        uint32_t cost = static_cast<uint32_t>(sim::opcodeCost(op));
        uint32_t kind = static_cast<uint32_t>(sim::costKind(op));
        NOL_ASSERT(cost >= 1 && cost < NOL_COST_SLOTS && kind < NOL_COST_KINDS,
                   "charge (%u, %u) is outside the charge table", cost, kind);
        if (row.size() > 68) {
            out_ += row + '\n';
            row = "      ";
        }
        row += std::to_string(sim::chargeSlot(op)) + ",";
        ++segLen_;
        if (endsSegment(bb.inst(i)))
            break;
    }
    row.back() = '}';
    out_ += row + ";\n";
}

void
Emitter::emitFunction(const ir::Function *fn, size_t fn_id)
{
    // The C below reads a value only where its definition has run.
    ir::assertRunnable(*fn);
    instIdx_.clear();
    allocaIdx_.clear();
    blockIdx_.clear();

    for (size_t i = 0; i < fn->numArgs(); ++i)
        instIdx_[fn->arg(i)] = i;

    size_t n_vals = 0;
    size_t n_allocas = 0;
    for (const auto &bb : fn->blocks()) {
        blockIdx_[bb.get()] = blockIdx_.size();
        for (size_t i = 0; i < bb->size(); ++i) {
            const ir::Instruction *inst = bb->inst(i);
            if (!inst->type()->isVoid())
                instIdx_[inst] = n_vals++;
            if (inst->op() == Opcode::Alloca)
                allocaIdx_[inst] = n_allocas++;
        }
    }

    line("/* %s */", fn->name().c_str());
    line("static NolVal nol_f%zu(NolCtx *ctx, NolVal *a)", fn_id);
    line("{");
    line("  uint64_t saved_sp = ctx->sp;");
    // One NolVal per value-producing instruction. Each is written by
    // exactly one instruction which always assigns the same field(s),
    // so the {0, 0.0} init makes every assignment equivalent to a
    // fresh RtVal::ofInt/ofFloat/ofPtr — the dead field stays zeroed.
    for (size_t i = 0; i < n_vals; ++i)
        line("  NolVal v%zu = {0, 0.0};", i);
    for (size_t i = 0; i < n_allocas; ++i)
        line("  uint64_t s%zu = 0; int s%zu_live = 0;", i, i);

    for (const auto &bb : fn->blocks()) {
        line("L%zu:;", blockIdx_.at(bb.get()));
        for (size_t i = 0; i < bb->size(); ++i) {
            if (i == 0 || endsSegment(bb->inst(i - 1)))
                openSegment(*bb, i);
            ++segPos_;
            emitInst(bb->inst(i), fn_id);
        }
    }
    line("}");
    out_ += '\n';
}

void
Emitter::emitInst(const ir::Instruction *inst, size_t fn_id)
{
    const uint32_t ptr_bits = dl_.spec().pointerSize * 8;

    switch (inst->op()) {
      case Opcode::Alloca: {
        std::string v = var(inst);
        size_t slot = allocaIdx_.at(inst);
        uint64_t size = dl_.sizeOf(inst->accessType());
        uint64_t align =
            std::max<uint64_t>(dl_.alignOf(inst->accessType()), 8);
        line("  if (!s%zu_live) {", slot);
        line("    ctx->sp = (ctx->sp - %sULL) & ~(uint64_t)%sULL;",
             std::to_string(size).c_str(),
             std::to_string(align - 1).c_str());
        line("    if (ctx->sp < ctx->stack_limit) ctx->trap(ctx, %d, %zu);",
             NOL_TRAP_STACK_OVERFLOW, fn_id);
        line("    s%zu = ctx->sp; s%zu_live = 1;", slot, slot);
        line("  }");
        line("  %s.i = (int64_t)s%zu;", v.c_str(), slot);
        break;
      }
      case Opcode::Load: {
        std::string v = var(inst);
        std::string args = "(uint64_t)(" + exprI(inst->operand(0)) + "), " +
                           segmentThrough() + ", " + std::to_string(fn_id);
        const ir::Type *ty = inst->accessType();
        if (ty->isFloat()) {
            if (isF32(ty))
                line("  %s.f = nol_f32_from((uint32_t)nol_load4(ctx, %s));",
                     v.c_str(), args.c_str());
            else
                line("  %s.f = nol_f64_from(nol_load8(ctx, %s));", v.c_str(),
                     args.c_str());
        } else if (ty->isPointer() || ty->isFunction()) {
            line("  %s.i = (int64_t)nol_load%u(ctx, %s);", v.c_str(),
                 dl_.spec().pointerSize, args.c_str());
        } else {
            uint32_t width = intWidth(ty);
            line("  %s.i = nol_sext(nol_load%u(ctx, %s), %u);", v.c_str(),
                 width == 1 ? 1 : width / 8, args.c_str(), width);
        }
        break;
      }
      case Opcode::Store: {
        std::string addr = "(uint64_t)(" + exprI(inst->operand(1)) + ")";
        std::string seg = segmentThrough() + ", " + std::to_string(fn_id);
        const ir::Type *ty = inst->accessType();
        if (ty->isFloat()) {
            uint32_t bytes = isF32(ty) ? 4 : 8;
            line("  nol_store%u(ctx, %s, nol_f%u_bits(%s), %s);", bytes,
                 addr.c_str(), bytes * 8, exprF(inst->operand(0)).c_str(),
                 seg.c_str());
        } else if (ty->isPointer() || ty->isFunction()) {
            line("  nol_store%u(ctx, %s, nol_low(%s, %u), %s);",
                 dl_.spec().pointerSize, addr.c_str(),
                 exprI(inst->operand(0)).c_str(), ptr_bits, seg.c_str());
        } else {
            uint32_t width = intWidth(ty);
            line("  nol_store%u(ctx, %s, (uint64_t)(%s), %s);",
                 width == 1 ? 1 : width / 8, addr.c_str(),
                 exprI(inst->operand(0)).c_str(), seg.c_str());
        }
        break;
      }
      // ---- Guest operations: a call of guestops.h's helper ------------
#define NOL_INT_CASE(OP, FN)                                               \
      case Opcode::OP:                                                     \
        line("  %s.i = " #FN "(%s, %s, %u);", var(inst).c_str(),           \
             exprI(inst->operand(0)).c_str(),                              \
             exprI(inst->operand(1)).c_str(), operandWidth(inst));         \
        break;
      NOL_GUEST_INT_OPS(NOL_INT_CASE)
#undef NOL_INT_CASE
#define NOL_DIV_CASE(OP, FN)                                               \
      case Opcode::OP:                                                     \
        line("  { uint32_t t = " #FN "(%s, %s, %u, &%s.i);",              \
             exprI(inst->operand(0)).c_str(),                              \
             exprI(inst->operand(1)).c_str(), operandWidth(inst),          \
             var(inst).c_str());                                           \
        line("    if (t) ctx->trap(ctx, t, %zu); }", fn_id);               \
        break;
      NOL_GUEST_DIV_OPS(NOL_DIV_CASE)
#undef NOL_DIV_CASE
#define NOL_FLOAT_CASE(OP, FN)                                             \
      case Opcode::OP:                                                     \
        line("  %s.f = " #FN "(%s, %s, %d);", var(inst).c_str(),           \
             exprF(inst->operand(0)).c_str(),                              \
             exprF(inst->operand(1)).c_str(), isF32(inst->type()));        \
        break;
      NOL_GUEST_FLOAT_OPS(NOL_FLOAT_CASE)
#undef NOL_FLOAT_CASE
#define NOL_FCMP_CASE(OP, FN)                                              \
      case Opcode::OP:                                                     \
        line("  %s.i = " #FN "(%s, %s);", var(inst).c_str(),               \
             exprF(inst->operand(0)).c_str(),                              \
             exprF(inst->operand(1)).c_str());                             \
        break;
      NOL_GUEST_FCMP_OPS(NOL_FCMP_CASE)
#undef NOL_FCMP_CASE
      case Opcode::Trunc:
      case Opcode::PtrToInt:
        line("  %s.i = nol_trunc(%s, %u);", var(inst).c_str(),
             exprI(inst->operand(0)).c_str(), intWidth(inst->type()));
        break;
      case Opcode::ZExt:
        line("  %s.i = nol_zext(%s, %u, %u);", var(inst).c_str(),
             exprI(inst->operand(0)).c_str(), operandWidth(inst),
             intWidth(inst->type()));
        break;
      case Opcode::SExt:
      case Opcode::FPExt:
      case Opcode::Bitcast:
        // The interpreter copies the whole RtVal through unchanged.
        line("  %s = %s;", var(inst).c_str(),
             exprWhole(inst->operand(0)).c_str());
        break;
      case Opcode::FPToSI:
        line("  %s.i = nol_fptosi(%s, %u);", var(inst).c_str(),
             exprF(inst->operand(0)).c_str(), intWidth(inst->type()));
        break;
      case Opcode::SIToFP:
        line("  %s.f = nol_sitofp(%s, %d);", var(inst).c_str(),
             exprI(inst->operand(0)).c_str(), isF32(inst->type()));
        break;
      case Opcode::FPTrunc:
        line("  %s.f = nol_fptrunc(%s);", var(inst).c_str(),
             exprF(inst->operand(0)).c_str());
        break;
      case Opcode::IntToPtr:
        line("  %s.i = nol_inttoptr(%s, %u);", var(inst).c_str(),
             exprI(inst->operand(0)).c_str(), ptr_bits);
        break;
      case Opcode::FieldAddr: {
        uint64_t off = dl_.fieldOffset(inst->structType(),
                                       inst->fieldIndex());
        line("  %s.i = (int64_t)((uint64_t)(%s) + %sULL);",
             var(inst).c_str(), exprI(inst->operand(0)).c_str(),
             std::to_string(off).c_str());
        break;
      }
      case Opcode::IndexAddr: {
        uint64_t stride = dl_.sizeOf(inst->accessType());
        line("  %s.i = (int64_t)((uint64_t)(%s) + (uint64_t)(%s) * "
             "%sULL);",
             var(inst).c_str(), exprI(inst->operand(0)).c_str(),
             exprI(inst->operand(1)).c_str(),
             std::to_string(stride).c_str());
        break;
      }
      case Opcode::Call: {
        flushSegment(fn_id);
        const ir::Function *callee = inst->callee();
        size_t n = inst->numOperands();
        line("  { NolVal ca[%zu];", n > 0 ? n : 1);
        for (size_t i = 0; i < n; ++i)
            line("    ca[%zu] = %s;", i,
                 exprWhole(inst->operand(i)).c_str());
        if (callee->isExternal()) {
            size_t site = lowered_.callSites.size();
            lowered_.callSites.push_back(inst);
            if (inst->type()->isVoid())
                line("    ctx->call_external(ctx, %zu, ca, %zu); }", site,
                     n);
            else
                line("    %s = ctx->call_external(ctx, %zu, ca, %zu); }",
                     var(inst).c_str(), site, n);
        } else {
            size_t callee_id = fnIdx_.at(callee);
            if (inst->type()->isVoid())
                line("    nol_f%zu(ctx, ca); }", callee_id);
            else
                line("    %s = nol_f%zu(ctx, ca); }", var(inst).c_str(),
                     callee_id);
        }
        break;
      }
      case Opcode::CallIndirect: {
        flushSegment(fn_id);
        size_t site = lowered_.callSites.size();
        lowered_.callSites.push_back(inst);
        size_t n = inst->numOperands() - 1;
        line("  { NolVal ca[%zu];", n > 0 ? n : 1);
        for (size_t i = 0; i < n; ++i)
            line("    ca[%zu] = %s;", i,
                 exprWhole(inst->operand(i + 1)).c_str());
        std::string tgt =
            "(uint64_t)(" + exprI(inst->operand(0)) + ")";
        if (inst->type()->isVoid())
            line("    ctx->call_indirect(ctx, %s, %zu, ca, %zu); }",
                 tgt.c_str(), site, n);
        else
            line("    %s = ctx->call_indirect(ctx, %s, %zu, ca, %zu); }",
                 var(inst).c_str(), tgt.c_str(), site, n);
        break;
      }
      case Opcode::MachineAsm: {
        flushSegment(fn_id);
        size_t site = lowered_.asmSites.size();
        lowered_.asmSites.push_back(inst);
        line("  ctx->machine_asm(ctx, %zu);", site);
        break;
      }
      case Opcode::Br:
        flushSegment(fn_id);
        line("  goto L%zu;", blockIdx_.at(inst->successor(0)));
        break;
      case Opcode::CondBr:
        flushSegment(fn_id);
        line("  if ((%s) != 0) goto L%zu; else goto L%zu;",
             exprI(inst->operand(0)).c_str(),
             blockIdx_.at(inst->successor(0)),
             blockIdx_.at(inst->successor(1)));
        break;
      case Opcode::Switch: {
        flushSegment(fn_id);
        line("  { int64_t sw = %s;", exprI(inst->operand(0)).c_str());
        const auto &cases = inst->caseValues();
        for (size_t c = 0; c < cases.size(); ++c)
            line("    if (sw == %s) goto L%zu;", intLit(cases[c]).c_str(),
                 blockIdx_.at(inst->successor(c + 1)));
        line("    goto L%zu; }", blockIdx_.at(inst->successor(0)));
        break;
      }
      case Opcode::Ret:
        flushSegment(fn_id);
        line("  ctx->sp = saved_sp;");
        if (inst->numOperands() == 1)
            line("  return %s;", exprWhole(inst->operand(0)).c_str());
        else
            line("  return (NolVal){0, 0.0};");
        break;
      case Opcode::Unreachable:
        flushSegment(fn_id);
        line("  ctx->trap(ctx, %d, %zu);", NOL_TRAP_UNREACHABLE, fn_id);
        line("  return (NolVal){0, 0.0};");
        break;
    }
}

} // namespace

std::string
contentDigest(const std::string &text)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
    return buf;
}

LoweredModule
emitModule(const ir::Module &module, const ir::DataLayout &dl)
{
    return Emitter(module, dl).run();
}

} // namespace nol::codegen
