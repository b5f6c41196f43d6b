#include "interp/interp.hpp"

#include <algorithm>

#include "arch/endian.hpp"
#include "interp/guestops.h"
#include "ir/verifier.hpp"
#include "sim/costmodel.hpp"

namespace nol::interp {

using ir::Opcode;

namespace {

/** How a Load or Store moves its value. */
enum class Access : uint8_t { Int, F32, F64, Ptr };

/**
 * One decoded instruction. Which fields an op reads depends on its
 * opcode; decode() is the one place that fills them.
 */
struct Op {
    Opcode op = Opcode::Unreachable;
    uint8_t charge = 0;   ///< sim::chargeSlot of the op's charge
    /** Load/Store: Access. FP result: 1 if f32. Call: 1 if it has a
     *  result. Ret: 1 if it returns a value. */
    uint8_t aux = 0;
    uint32_t width = 0;   ///< integer width in bits of the result (of the
                          ///< operands for ICmp); access bytes of Load/Store
    uint32_t dst = 0;     ///< result slot
    /** Operand slots, in operand order. Alloca: a is the alloca index,
     *  b the alignment. Br/CondBr: b and c are successor blocks.
     *  Switch: b is the default block, c the case count. Calls: b is
     *  the argument count, c the target slot of an indirect call. */
    uint32_t a = 0, b = 0, c = 0;
    /** Alloca: size. FieldAddr: offset. IndexAddr: stride. ZExt and
     *  integer Load/Store: source width in bits. IntToPtr and pointer
     *  Load/Store: pointer width in bits. Calls: first argument in
     *  argSlots. Switch: first case in cases. */
    uint64_t imm = 0;
    const ir::Instruction *inst = nullptr;
};

/** One decoded block. */
struct Block {
    uint32_t first = 0; ///< index of the block's first op
    /** Entering this block is a loop edge: it is a loop exit, or it is
     *  a loop header and the edge comes from block enteredFrom (-1 at
     *  function entry; kNoEdge when it is no header). */
    bool exit = false;
    int32_t enteredFrom = kNoEdge;
    const ir::BasicBlock *bb = nullptr;

    static constexpr int32_t kNoEdge = -2;
};

/** Bit width of an integer type. */
uint32_t
intWidth(const ir::Type *type)
{
    return static_cast<const ir::IntType *>(type)->bits();
}

/** True if the type is 32-bit float. */
bool
isF32(const ir::Type *type)
{
    return type->isFloat() &&
           static_cast<const ir::FloatType *>(type)->bits() == 32;
}

} // namespace

/** One function, decoded once per interpreter. */
struct Interp::Decoded {
    std::vector<Op> ops;
    std::vector<Block> blocks;
    /** Frame layout: arguments, results, then constants (copied in at
     *  each call). */
    uint32_t numSlots = 0;
    uint32_t firstConstant = 0;
    std::vector<RtVal> constants;
    uint32_t numAllocas = 0;
    std::vector<uint32_t> argSlots; ///< call argument lists
    std::vector<std::pair<int64_t, uint32_t>> cases; ///< value, block
};

/** Per-call-depth frame storage, reused by every call at that depth. */
struct Interp::Frame {
    std::vector<RtVal> slots;
    std::vector<uint64_t> allocas; ///< 0 until the alloca first runs
};

Interp::Interp(sim::SimMachine &machine, const ir::Module &module,
               const ProgramImage &image, ExecEnv &env)
    : ExecBackend(machine, module, image, env), sp_(machine.stackBase())
{
}

Interp::~Interp() = default;

Interp::Decoded &
Interp::decoded(ir::Function *fn)
{
    std::unique_ptr<Decoded> &slot = decoded_[fn];
    if (slot == nullptr)
        slot = decode(*fn);
    return *slot;
}

std::unique_ptr<Interp::Decoded>
Interp::decode(ir::Function &fn) const
{
    // Every use is defined, so no slot needs checking at run time.
    ir::assertRunnable(fn);
    auto out = std::make_unique<Decoded>();
    Decoded &d = *out;

    std::unordered_map<const ir::BasicBlock *, uint32_t> block_index;
    for (size_t i = 0; i < fn.blocks().size(); ++i)
        block_index[fn.blocks()[i].get()] = static_cast<uint32_t>(i);
    auto blockOf = [&](const ir::BasicBlock *bb) {
        return block_index.at(bb);
    };

    // Slots: arguments, then each result in block order, then
    // constants.
    std::unordered_map<const ir::Value *, uint32_t> value_slot;
    uint32_t next_slot = 0;
    for (size_t i = 0; i < fn.numArgs(); ++i)
        value_slot[fn.arg(i)] = next_slot++;
    for (const auto &bb : fn.blocks()) {
        for (const auto &inst : bb->insts()) {
            if (!inst->type()->isVoid())
                value_slot[inst.get()] = next_slot++;
        }
    }
    d.firstConstant = next_slot;

    std::unordered_map<const ir::Value *, uint32_t> constant_slot;
    auto constantSlot = [&](const ir::Value *v, RtVal value) {
        auto [it, inserted] = constant_slot.try_emplace(v, 0);
        if (inserted) {
            it->second = d.firstConstant +
                         static_cast<uint32_t>(d.constants.size());
            d.constants.push_back(value);
        }
        return it->second;
    };
    auto slotOf = [&](const ir::Value *v) -> uint32_t {
        switch (v->valueKind()) {
          case ir::Value::Kind::ConstInt:
            return constantSlot(v, RtVal::ofInt(
                static_cast<const ir::ConstInt *>(v)->value()));
          case ir::Value::Kind::ConstFloat:
            return constantSlot(v, RtVal::ofFloat(
                static_cast<const ir::ConstFloat *>(v)->value()));
          case ir::Value::Kind::ConstNull:
            return constantSlot(v, RtVal::ofPtr(0));
          case ir::Value::Kind::Global:
            return constantSlot(v, RtVal::ofPtr(image_.addressOf(
                static_cast<const ir::GlobalVariable *>(v))));
          case ir::Value::Kind::Function:
            return constantSlot(v, RtVal::ofPtr(image_.addressOf(
                static_cast<const ir::Function *>(v))));
          case ir::Value::Kind::Argument:
          case ir::Value::Kind::Instruction:
            break;
        }
        return value_slot.at(v);
    };

    uint32_t ptr_bits = ptrSize() * 8;
    for (const auto &bb : fn.blocks()) {
        Block blk;
        blk.first = static_cast<uint32_t>(d.ops.size());
        blk.bb = bb.get();
        d.blocks.push_back(blk);
        for (const auto &inst_ptr : bb->insts()) {
            const ir::Instruction &inst = *inst_ptr;
            Op op;
            op.op = inst.op();
            op.charge = static_cast<uint8_t>(sim::chargeSlot(inst.op()));
            op.inst = &inst;
            const ir::Type *ty = inst.type();
            if (!ty->isVoid())
                op.dst = value_slot.at(&inst);
            bool is_call = inst.op() == Opcode::Call ||
                           inst.op() == Opcode::CallIndirect;
            if (!is_call && inst.op() != Opcode::MachineAsm) {
                uint32_t *fields[] = {&op.a, &op.b, &op.c};
                for (size_t k = 0; k < inst.numOperands() && k < 3; ++k)
                    *fields[k] = slotOf(inst.operand(k));
            }
            if (ty->isInt())
                op.width = intWidth(ty);
            op.aux = isF32(ty) ? 1 : 0;
            switch (inst.op()) {
              case Opcode::Alloca:
                op.a = d.numAllocas++;
                op.imm = dl_.sizeOf(inst.accessType());
                op.b = std::max<uint32_t>(dl_.alignOf(inst.accessType()), 8);
                break;
              case Opcode::Load:
              case Opcode::Store: {
                const ir::Type *acc = inst.accessType();
                if (acc->isFloat()) {
                    op.aux = static_cast<uint8_t>(isF32(acc) ? Access::F32
                                                             : Access::F64);
                } else if (acc->isPointer() || acc->isFunction()) {
                    op.aux = static_cast<uint8_t>(Access::Ptr);
                    op.width = ptrSize();
                    op.imm = ptr_bits;
                } else {
                    op.aux = static_cast<uint8_t>(Access::Int);
                    op.imm = intWidth(acc);
                    op.width = op.imm == 1 ? 1 : intWidth(acc) / 8;
                }
                break;
              }
              case Opcode::ICmpEq:
              case Opcode::ICmpNe:
              case Opcode::ICmpSlt:
              case Opcode::ICmpSle:
              case Opcode::ICmpSgt:
              case Opcode::ICmpSge:
              case Opcode::ICmpUlt:
              case Opcode::ICmpUle:
              case Opcode::ICmpUgt:
              case Opcode::ICmpUge: {
                const ir::Type *opty = inst.operand(0)->type();
                op.width = opty->isInt() ? intWidth(opty) : ptr_bits;
                break;
              }
              case Opcode::ZExt:
                op.imm = intWidth(inst.operand(0)->type());
                break;
              case Opcode::IntToPtr:
                op.imm = ptr_bits;
                break;
              case Opcode::FieldAddr:
                op.imm = dl_.fieldOffset(inst.structType(),
                                         inst.fieldIndex());
                break;
              case Opcode::IndexAddr:
                op.imm = dl_.sizeOf(inst.accessType());
                break;
              case Opcode::Call:
              case Opcode::CallIndirect: {
                size_t first_arg = inst.op() == Opcode::CallIndirect ? 1 : 0;
                if (first_arg == 1)
                    op.c = slotOf(inst.operand(0));
                op.imm = d.argSlots.size();
                op.b = static_cast<uint32_t>(inst.numOperands() - first_arg);
                for (size_t k = first_arg; k < inst.numOperands(); ++k)
                    d.argSlots.push_back(slotOf(inst.operand(k)));
                op.aux = ty->isVoid() ? 0 : 1;
                break;
              }
              case Opcode::Br:
                op.b = blockOf(inst.successor(0));
                break;
              case Opcode::CondBr:
                op.b = blockOf(inst.successor(0));
                op.c = blockOf(inst.successor(1));
                break;
              case Opcode::Switch:
                op.b = blockOf(inst.successor(0));
                op.imm = d.cases.size();
                op.c = static_cast<uint32_t>(inst.caseValues().size());
                for (size_t k = 0; k < inst.caseValues().size(); ++k) {
                    d.cases.push_back({inst.caseValues()[k],
                                       blockOf(inst.successor(k + 1))});
                }
                break;
              case Opcode::Ret:
                op.aux = inst.numOperands() == 1 ? 1 : 0;
                break;
              default:
                break;
            }
            d.ops.push_back(op);
        }
    }
    d.numSlots = d.firstConstant + static_cast<uint32_t>(d.constants.size());

    // Loop edges, as the profiler sees them.
    for (const ir::LoopMeta &loop : fn.loops()) {
        auto header = block_index.find(loop.header);
        if (header != block_index.end()) {
            int32_t from = Block::kNoEdge;
            if (loop.preheader == nullptr) {
                from = -1;
            } else if (auto p = block_index.find(loop.preheader);
                       p != block_index.end()) {
                from = static_cast<int32_t>(p->second);
            }
            d.blocks[header->second].enteredFrom = from;
        }
        auto exit = block_index.find(loop.exit);
        if (exit != block_index.end())
            d.blocks[exit->second].exit = true;
    }
    return out;
}

RtVal
Interp::call(ir::Function *fn, const std::vector<RtVal> &args)
{
    if (depth_ == 0) {
        try {
            return execFunction(fn, args.data(), nullptr, args.size());
        } catch (const GuestExit &exit_req) {
            return RtVal::ofInt(exit_req.code);
        }
    }
    return execFunction(fn, args.data(), nullptr, args.size());
}

RtVal
Interp::execFunction(ir::Function *fn, const RtVal *args,
                     const uint32_t *arg_slots, size_t nargs)
{
    NOL_ASSERT(fn->hasBody(), "call of external function %s through "
               "execFunction", fn->name().c_str());
    NOL_ASSERT(nargs >= fn->numArgs(),
               "too few arguments calling %s", fn->name().c_str());
    Decoded &d = decoded(fn);

    ++depth_;
    uint64_t saved_sp = sp_;
    if (hooks_.callBoundary)
        hooks_.callBoundary(fn, true);

    struct FrameGuard {
        Interp *self;
        uint64_t saved_sp;
        ir::Function *fn;
        ~FrameGuard()
        {
            self->sp_ = saved_sp;
            if (self->hooks_.callBoundary)
                self->hooks_.callBoundary(fn, false);
            --self->depth_;
        }
    } guard{this, saved_sp, fn};

    if (frames_.size() < static_cast<size_t>(depth_))
        frames_.push_back(std::make_unique<Frame>());
    Frame &frame = *frames_[depth_ - 1];
    frame.slots.resize(d.numSlots);
    RtVal *s = frame.slots.data();
    for (size_t i = 0; i < fn->numArgs(); ++i)
        s[i] = args[arg_slots != nullptr ? arg_slots[i] : i];
    std::copy(d.constants.begin(), d.constants.end(), s + d.firstConstant);
    frame.allocas.assign(d.numAllocas, 0);

    const Op *ops = d.ops.data();
    int32_t cur = -1;
    size_t pc = 0;
    // Enter block @p to from the current block (none at entry).
    auto jump = [&](uint32_t to) {
        const Block &blk = d.blocks[to];
        if (hooks_.loopEdge && (blk.exit || blk.enteredFrom == cur)) {
            hooks_.loopEdge(fn, blk.bb,
                            cur < 0 ? nullptr : d.blocks[cur].bb);
        }
        cur = static_cast<int32_t>(to);
        pc = blk.first;
    };
    jump(0);

    // Call @p callee with @p op's arguments: an external through the
    // environment, a defined function in a frame one deeper.
    auto callOut = [&](ir::Function *callee, const Op &op) -> RtVal {
        const uint32_t *slots = d.argSlots.data() + op.imm;
        if (callee->isExternal()) {
            std::vector<RtVal> call_args(op.b);
            for (uint32_t k = 0; k < op.b; ++k)
                call_args[k] = s[slots[k]];
            chargeExternalCall(*callee);
            return env_.callExternal(*this, *callee, *op.inst, call_args);
        }
        return execFunction(callee, s, slots, op.b);
    };

    while (true) {
        const Op &op = ops[pc];
        if (++steps_ > kStepLimit)
            panic("step limit exceeded in %s", fn->name().c_str());
        machine_.charge(op.charge);

        switch (op.op) {
          // ---- Memory ------------------------------------------------
          case Opcode::Alloca: {
            uint64_t &addr = frame.allocas[op.a];
            if (addr == 0) { // loop re-entry reuses the slot
                sp_ = (sp_ - op.imm) & ~(static_cast<uint64_t>(op.b) - 1);
                if (sp_ < machine_.stackBase() - sim::kStackSize)
                    raiseTrap(NOL_TRAP_STACK_OVERFLOW, fn->name().c_str());
                addr = sp_;
            }
            s[op.dst] = RtVal::ofPtr(addr);
            break;
          }
          case Opcode::Load: {
            uint64_t addr = s[op.a].ptr();
            RtVal out;
            switch (static_cast<Access>(op.aux)) {
              case Access::F32:
                out.f = nol_f32_from(
                    static_cast<uint32_t>(loadScalarAt(addr, 4)));
                break;
              case Access::F64:
                out.f = nol_f64_from(loadScalarAt(addr, 8));
                break;
              case Access::Ptr:
                out.i = static_cast<int64_t>(loadScalarAt(addr, op.width));
                break;
              case Access::Int:
                out.i = nol_sext(loadScalarAt(addr, op.width),
                                 static_cast<uint32_t>(op.imm));
                break;
            }
            s[op.dst] = out;
            break;
          }
          case Opcode::Store: {
            const RtVal &value = s[op.a];
            uint64_t addr = s[op.b].ptr();
            switch (static_cast<Access>(op.aux)) {
              case Access::F32:
                storeScalarAt(addr, 4, nol_f32_bits(value.f));
                break;
              case Access::F64:
                storeScalarAt(addr, 8, nol_f64_bits(value.f));
                break;
              case Access::Ptr:
                storeScalarAt(addr, op.width,
                              nol_low(value.i, static_cast<uint32_t>(op.imm)));
                break;
              case Access::Int:
                storeScalarAt(addr, op.width,
                              static_cast<uint64_t>(value.i));
                break;
            }
            break;
          }
          // ---- Guest operations: a direct call of guestops.h's helper -
#define NOL_INT_CASE(OP, FN)                                             \
          case Opcode::OP:                                               \
            s[op.dst] = RtVal::ofInt(FN(s[op.a].i, s[op.b].i, op.width)); \
            break;
          NOL_GUEST_INT_OPS(NOL_INT_CASE)
#undef NOL_INT_CASE
#define NOL_DIV_CASE(OP, FN)                                             \
          case Opcode::OP: {                                             \
            int64_t r = 0;                                               \
            if (uint32_t trap = FN(s[op.a].i, s[op.b].i, op.width, &r))  \
                raiseTrap(trap, fn->name().c_str());                     \
            s[op.dst] = RtVal::ofInt(r);                                 \
            break;                                                       \
          }
          NOL_GUEST_DIV_OPS(NOL_DIV_CASE)
#undef NOL_DIV_CASE
#define NOL_FLOAT_CASE(OP, FN)                                           \
          case Opcode::OP:                                               \
            s[op.dst] = RtVal::ofFloat(FN(s[op.a].f, s[op.b].f, op.aux)); \
            break;
          NOL_GUEST_FLOAT_OPS(NOL_FLOAT_CASE)
#undef NOL_FLOAT_CASE
#define NOL_FCMP_CASE(OP, FN)                                            \
          case Opcode::OP:                                               \
            s[op.dst] = RtVal::ofInt(FN(s[op.a].f, s[op.b].f));          \
            break;
          NOL_GUEST_FCMP_OPS(NOL_FCMP_CASE)
#undef NOL_FCMP_CASE
          case Opcode::Trunc:
          case Opcode::PtrToInt:
            s[op.dst] = RtVal::ofInt(nol_trunc(s[op.a].i, op.width));
            break;
          case Opcode::ZExt:
            s[op.dst] = RtVal::ofInt(nol_zext(
                s[op.a].i, static_cast<uint32_t>(op.imm), op.width));
            break;
          case Opcode::SExt:
          case Opcode::FPExt:
          case Opcode::Bitcast:
            s[op.dst] = s[op.a];
            break;
          case Opcode::FPToSI:
            s[op.dst] = RtVal::ofInt(nol_fptosi(s[op.a].f, op.width));
            break;
          case Opcode::SIToFP:
            s[op.dst] = RtVal::ofFloat(nol_sitofp(s[op.a].i, op.aux));
            break;
          case Opcode::FPTrunc:
            s[op.dst] = RtVal::ofFloat(nol_fptrunc(s[op.a].f));
            break;
          case Opcode::IntToPtr:
            s[op.dst] = RtVal::ofInt(
                nol_inttoptr(s[op.a].i, static_cast<uint32_t>(op.imm)));
            break;
          // ---- Addressing ----------------------------------------------
          case Opcode::FieldAddr:
            s[op.dst] = RtVal::ofPtr(s[op.a].ptr() + op.imm);
            break;
          case Opcode::IndexAddr:
            s[op.dst] = RtVal::ofPtr(
                s[op.a].ptr() + static_cast<uint64_t>(s[op.b].i) * op.imm);
            break;
          // ---- Calls ------------------------------------------------------
          case Opcode::Call: {
            RtVal r = callOut(op.inst->callee(), op);
            if (op.aux)
                s[op.dst] = r;
            break;
          }
          case Opcode::CallIndirect: {
            chargeIndirectCall();
            uint64_t target = s[op.c].ptr();
            ir::Function *callee = image_.functionAt(target);
            if (callee == nullptr)
                fatal("indirect call through wild pointer 0x%llx",
                      static_cast<unsigned long long>(target));
            RtVal r = callOut(callee, op);
            if (op.aux)
                s[op.dst] = r;
            break;
          }
          // ---- Misc -----------------------------------------------------------
          case Opcode::MachineAsm:
            env_.onMachineAsm(*this, *op.inst);
            break;
          // ---- Terminators ------------------------------------------------
          case Opcode::Br:
            jump(op.b);
            continue;
          case Opcode::CondBr:
            jump(s[op.a].i != 0 ? op.b : op.c);
            continue;
          case Opcode::Switch: {
            int64_t v = s[op.a].i;
            uint32_t next = op.b; // default
            for (uint32_t k = 0; k < op.c; ++k) {
                if (d.cases[op.imm + k].first == v) {
                    next = d.cases[op.imm + k].second;
                    break;
                }
            }
            jump(next);
            continue;
          }
          case Opcode::Ret:
            return op.aux ? s[op.a] : RtVal{};
          case Opcode::Unreachable:
            raiseTrap(NOL_TRAP_UNREACHABLE, fn->name().c_str());
        }
        ++pc;
    }
}

} // namespace nol::interp
