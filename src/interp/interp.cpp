#include "interp/interp.hpp"

#include <cmath>
#include <cstring>
#include <unordered_map>

#include "arch/endian.hpp"
#include "sim/costmodel.hpp"

namespace nol::interp {

using ir::Opcode;

/** Per-call execution state. */
struct Interp::Frame {
    ir::Function *fn = nullptr;
    std::unordered_map<const ir::Value *, RtVal> regs;
    std::unordered_map<const ir::Instruction *, uint64_t> allocas;
};

Interp::Interp(sim::SimMachine &machine, const ir::Module &module,
               const ProgramImage &image, ExecEnv &env)
    : ExecBackend(machine, module, image, env), sp_(machine.stackBase())
{
}

namespace {

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

RtVal
Interp::evalValue(const ir::Value *v, Frame &frame)
{
    switch (v->valueKind()) {
      case ir::Value::Kind::ConstInt:
        return RtVal::ofInt(static_cast<const ir::ConstInt *>(v)->value());
      case ir::Value::Kind::ConstFloat:
        return RtVal::ofFloat(
            static_cast<const ir::ConstFloat *>(v)->value());
      case ir::Value::Kind::ConstNull:
        return RtVal::ofPtr(0);
      case ir::Value::Kind::Global:
        return RtVal::ofPtr(
            image_.addressOf(static_cast<const ir::GlobalVariable *>(v)));
      case ir::Value::Kind::Function:
        return RtVal::ofPtr(
            image_.addressOf(static_cast<const ir::Function *>(v)));
      case ir::Value::Kind::Argument:
      case ir::Value::Kind::Instruction: {
        auto it = frame.regs.find(v);
        NOL_ASSERT(it != frame.regs.end(), "use of undefined value '%s'",
                   v->name().c_str());
        return it->second;
      }
    }
    panic("unknown value kind");
}

RtVal
Interp::call(ir::Function *fn, const std::vector<RtVal> &args)
{
    if (depth_ == 0) {
        try {
            return execFunction(fn, args);
        } catch (const GuestExit &exit_req) {
            return RtVal::ofInt(exit_req.code);
        }
    }
    return execFunction(fn, args);
}

RtVal
Interp::execCall(const ir::Instruction &inst, ir::Function *callee,
                 Frame &frame)
{
    size_t first_arg = inst.op() == Opcode::CallIndirect ? 1 : 0;
    std::vector<RtVal> args;
    args.reserve(inst.numOperands() - first_arg);
    for (size_t i = first_arg; i < inst.numOperands(); ++i)
        args.push_back(evalValue(inst.operand(i), frame));

    if (callee->isExternal()) {
        chargeExternalCall(*callee);
        return env_.callExternal(*this, *callee, inst, args);
    }
    return execFunction(callee, args);
}

RtVal
Interp::execFunction(ir::Function *fn, const std::vector<RtVal> &args)
{
    NOL_ASSERT(fn->hasBody(), "call of external function %s through "
               "execFunction", fn->name().c_str());
    NOL_ASSERT(args.size() >= fn->numArgs(),
               "too few arguments calling %s", fn->name().c_str());

    ++depth_;
    uint64_t saved_sp = sp_;
    if (hooks_.callBoundary)
        hooks_.callBoundary(fn, true);

    Frame frame;
    frame.fn = fn;
    for (size_t i = 0; i < fn->numArgs(); ++i)
        frame.regs[fn->arg(i)] = args[i];

    const ir::BasicBlock *prev = nullptr;
    const ir::BasicBlock *bb = fn->entry();
    RtVal ret;

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

    while (true) {
        if (hooks_.blockEntry)
            hooks_.blockEntry(fn, bb, prev);

        const ir::BasicBlock *next = nullptr;
        for (size_t idx = 0; idx < bb->size(); ++idx) {
            const ir::Instruction *inst = bb->inst(idx);
            if (++steps_ > kStepLimit)
                panic("step limit exceeded in %s", fn->name().c_str());
            machine_.advanceCompute(
                sim::scaledCost(sim::opcodeCost(inst->op()),
                                sim::costKind(inst->op()),
                                machine_.spec()));

            switch (inst->op()) {
              // ---- Memory ------------------------------------------------
              case Opcode::Alloca: {
                auto it = frame.allocas.find(inst);
                uint64_t addr;
                if (it != frame.allocas.end()) {
                    addr = it->second; // loop re-entry reuses the slot
                } else {
                    uint64_t size = dl_.sizeOf(inst->accessType());
                    uint64_t align =
                        std::max<uint64_t>(dl_.alignOf(inst->accessType()),
                                           8);
                    sp_ = (sp_ - size) & ~(align - 1);
                    if (sp_ < machine_.stackBase() - sim::kStackSize)
                        fatal("guest stack overflow in %s",
                              fn->name().c_str());
                    addr = sp_;
                    frame.allocas[inst] = addr;
                }
                frame.regs[inst] = RtVal::ofPtr(addr);
                break;
              }
              case Opcode::Load: {
                uint64_t addr = evalValue(inst->operand(0), frame).ptr();
                const ir::Type *ty = inst->accessType();
                RtVal out;
                if (ty->isFloat()) {
                    if (isF32(ty)) {
                        uint32_t bits = static_cast<uint32_t>(
                            loadScalarAt(addr, 4));
                        float narrow;
                        std::memcpy(&narrow, &bits, 4);
                        out.f = narrow;
                    } else {
                        uint64_t bits = loadScalarAt(addr, 8);
                        std::memcpy(&out.f, &bits, 8);
                    }
                } else if (ty->isPointer() || ty->isFunction()) {
                    out.i = static_cast<int64_t>(
                        loadScalarAt(addr, ptrSize()));
                } else {
                    uint32_t width = intWidth(ty);
                    uint32_t bytes = width == 1 ? 1 : width / 8;
                    out.i = signExtend(loadScalarAt(addr, bytes), width);
                }
                frame.regs[inst] = out;
                break;
              }
              case Opcode::Store: {
                RtVal value = evalValue(inst->operand(0), frame);
                uint64_t addr = evalValue(inst->operand(1), frame).ptr();
                const ir::Type *ty = inst->accessType();
                if (ty->isFloat()) {
                    if (isF32(ty)) {
                        float narrow = static_cast<float>(value.f);
                        uint32_t bits;
                        std::memcpy(&bits, &narrow, 4);
                        storeScalarAt(addr, 4, bits);
                    } else {
                        uint64_t bits;
                        std::memcpy(&bits, &value.f, 8);
                        storeScalarAt(addr, 8, bits);
                    }
                } else if (ty->isPointer() || ty->isFunction()) {
                    storeScalarAt(addr, ptrSize(),
                                  value.ptr() & maskOf(ptrSize() * 8));
                } else {
                    uint32_t width = intWidth(ty);
                    uint32_t bytes = width == 1 ? 1 : width / 8;
                    storeScalarAt(addr, bytes,
                                  static_cast<uint64_t>(value.i));
                }
                break;
              }
              // ---- Integer arithmetic ------------------------------------
              case Opcode::Add:
              case Opcode::Sub:
              case Opcode::Mul:
              case Opcode::SDiv:
              case Opcode::UDiv:
              case Opcode::SRem:
              case Opcode::URem:
              case Opcode::And:
              case Opcode::Or:
              case Opcode::Xor:
              case Opcode::Shl:
              case Opcode::LShr:
              case Opcode::AShr: {
                uint32_t width = intWidth(inst->type());
                int64_t a = evalValue(inst->operand(0), frame).i;
                int64_t b = evalValue(inst->operand(1), frame).i;
                uint64_t ua = static_cast<uint64_t>(a) & maskOf(width);
                uint64_t ub = static_cast<uint64_t>(b) & maskOf(width);
                uint64_t shift = ub & (width == 1 ? 0 : width - 1);
                int64_t r = 0;
                // Guest integers wrap: add/sub/mul run unsigned, since
                // signed overflow is undefined on the host.
                uint64_t wa = static_cast<uint64_t>(a);
                uint64_t wb = static_cast<uint64_t>(b);
                switch (inst->op()) {
                  case Opcode::Add: r = static_cast<int64_t>(wa + wb); break;
                  case Opcode::Sub: r = static_cast<int64_t>(wa - wb); break;
                  case Opcode::Mul: r = static_cast<int64_t>(wa * wb); break;
                  case Opcode::SDiv:
                    if (b == 0)
                        fatal("guest division by zero");
                    r = a / b;
                    break;
                  case Opcode::UDiv:
                    if (ub == 0)
                        fatal("guest division by zero");
                    r = static_cast<int64_t>(ua / ub);
                    break;
                  case Opcode::SRem:
                    if (b == 0)
                        fatal("guest remainder by zero");
                    r = a % b;
                    break;
                  case Opcode::URem:
                    if (ub == 0)
                        fatal("guest remainder by zero");
                    r = static_cast<int64_t>(ua % ub);
                    break;
                  case Opcode::And: r = a & b; break;
                  case Opcode::Or: r = a | b; break;
                  case Opcode::Xor: r = a ^ b; break;
                  case Opcode::Shl:
                    r = static_cast<int64_t>(ua << shift);
                    break;
                  case Opcode::LShr:
                    r = static_cast<int64_t>(ua >> shift);
                    break;
                  case Opcode::AShr:
                    r = signExtend(ua, width) >> shift;
                    break;
                  default: break;
                }
                frame.regs[inst] =
                    RtVal::ofInt(signExtend(static_cast<uint64_t>(r), width));
                break;
              }
              // ---- Float arithmetic ---------------------------------------
              case Opcode::FAdd:
              case Opcode::FSub:
              case Opcode::FMul:
              case Opcode::FDiv: {
                double a = evalValue(inst->operand(0), frame).f;
                double b = evalValue(inst->operand(1), frame).f;
                double r = 0;
                switch (inst->op()) {
                  case Opcode::FAdd: r = a + b; break;
                  case Opcode::FSub: r = a - b; break;
                  case Opcode::FMul: r = a * b; break;
                  case Opcode::FDiv: r = a / b; break;
                  default: break;
                }
                if (isF32(inst->type()))
                    r = static_cast<float>(r);
                frame.regs[inst] = RtVal::ofFloat(r);
                break;
              }
              // ---- Comparisons ---------------------------------------------
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
                const ir::Type *opty = inst->operand(0)->type();
                uint32_t width =
                    opty->isInt() ? intWidth(opty) : ptrSize() * 8;
                int64_t a = evalValue(inst->operand(0), frame).i;
                int64_t b = evalValue(inst->operand(1), frame).i;
                uint64_t ua = static_cast<uint64_t>(a) & maskOf(width);
                uint64_t ub = static_cast<uint64_t>(b) & maskOf(width);
                bool r = false;
                switch (inst->op()) {
                  case Opcode::ICmpEq: r = ua == ub; break;
                  case Opcode::ICmpNe: r = ua != ub; break;
                  case Opcode::ICmpSlt: r = a < b; break;
                  case Opcode::ICmpSle: r = a <= b; break;
                  case Opcode::ICmpSgt: r = a > b; break;
                  case Opcode::ICmpSge: r = a >= b; break;
                  case Opcode::ICmpUlt: r = ua < ub; break;
                  case Opcode::ICmpUle: r = ua <= ub; break;
                  case Opcode::ICmpUgt: r = ua > ub; break;
                  case Opcode::ICmpUge: r = ua >= ub; break;
                  default: break;
                }
                frame.regs[inst] = RtVal::ofInt(r ? 1 : 0);
                break;
              }
              case Opcode::FCmpEq:
              case Opcode::FCmpNe:
              case Opcode::FCmpLt:
              case Opcode::FCmpLe:
              case Opcode::FCmpGt:
              case Opcode::FCmpGe: {
                double a = evalValue(inst->operand(0), frame).f;
                double b = evalValue(inst->operand(1), frame).f;
                bool r = false;
                switch (inst->op()) {
                  case Opcode::FCmpEq: r = a == b; break;
                  case Opcode::FCmpNe: r = a != b; break;
                  case Opcode::FCmpLt: r = a < b; break;
                  case Opcode::FCmpLe: r = a <= b; break;
                  case Opcode::FCmpGt: r = a > b; break;
                  case Opcode::FCmpGe: r = a >= b; break;
                  default: break;
                }
                frame.regs[inst] = RtVal::ofInt(r ? 1 : 0);
                break;
              }
              // ---- Conversions ---------------------------------------------
              case Opcode::Trunc: {
                int64_t a = evalValue(inst->operand(0), frame).i;
                frame.regs[inst] = RtVal::ofInt(signExtend(
                    static_cast<uint64_t>(a), intWidth(inst->type())));
                break;
              }
              case Opcode::ZExt: {
                const ir::Type *src_ty = inst->operand(0)->type();
                int64_t a = evalValue(inst->operand(0), frame).i;
                uint64_t u =
                    static_cast<uint64_t>(a) & maskOf(intWidth(src_ty));
                frame.regs[inst] = RtVal::ofInt(
                    signExtend(u, intWidth(inst->type())));
                break;
              }
              case Opcode::SExt: {
                frame.regs[inst] = evalValue(inst->operand(0), frame);
                break;
              }
              case Opcode::FPToSI: {
                double a = evalValue(inst->operand(0), frame).f;
                int64_t r = static_cast<int64_t>(a);
                frame.regs[inst] = RtVal::ofInt(signExtend(
                    static_cast<uint64_t>(r), intWidth(inst->type())));
                break;
              }
              case Opcode::SIToFP: {
                int64_t a = evalValue(inst->operand(0), frame).i;
                double r = static_cast<double>(a);
                if (isF32(inst->type()))
                    r = static_cast<float>(r);
                frame.regs[inst] = RtVal::ofFloat(r);
                break;
              }
              case Opcode::FPTrunc: {
                double a = evalValue(inst->operand(0), frame).f;
                frame.regs[inst] =
                    RtVal::ofFloat(static_cast<float>(a));
                break;
              }
              case Opcode::FPExt: {
                frame.regs[inst] = evalValue(inst->operand(0), frame);
                break;
              }
              case Opcode::Bitcast: {
                frame.regs[inst] = evalValue(inst->operand(0), frame);
                break;
              }
              case Opcode::PtrToInt: {
                uint64_t a = evalValue(inst->operand(0), frame).ptr();
                frame.regs[inst] = RtVal::ofInt(
                    signExtend(a, intWidth(inst->type())));
                break;
              }
              case Opcode::IntToPtr: {
                int64_t a = evalValue(inst->operand(0), frame).i;
                frame.regs[inst] = RtVal::ofPtr(
                    static_cast<uint64_t>(a) & maskOf(ptrSize() * 8));
                break;
              }
              // ---- Addressing ----------------------------------------------
              case Opcode::FieldAddr: {
                uint64_t base = evalValue(inst->operand(0), frame).ptr();
                uint64_t offset =
                    dl_.fieldOffset(inst->structType(), inst->fieldIndex());
                frame.regs[inst] = RtVal::ofPtr(base + offset);
                break;
              }
              case Opcode::IndexAddr: {
                uint64_t base = evalValue(inst->operand(0), frame).ptr();
                int64_t index = evalValue(inst->operand(1), frame).i;
                uint64_t stride = dl_.sizeOf(inst->accessType());
                frame.regs[inst] = RtVal::ofPtr(
                    base + static_cast<uint64_t>(index) * stride);
                break;
              }
              // ---- Calls ------------------------------------------------------
              case Opcode::Call: {
                RtVal r = execCall(*inst, inst->callee(), frame);
                if (!inst->type()->isVoid())
                    frame.regs[inst] = r;
                break;
              }
              case Opcode::CallIndirect: {
                chargeIndirectCall();
                uint64_t target = evalValue(inst->operand(0), frame).ptr();
                ir::Function *callee = image_.functionAt(target);
                if (callee == nullptr)
                    fatal("indirect call through wild pointer 0x%llx",
                          static_cast<unsigned long long>(target));
                RtVal r = execCall(*inst, callee, frame);
                if (!inst->type()->isVoid())
                    frame.regs[inst] = r;
                break;
              }
              // ---- Misc -----------------------------------------------------------
              case Opcode::Select: {
                int64_t c = evalValue(inst->operand(0), frame).i;
                frame.regs[inst] = evalValue(
                    inst->operand(c != 0 ? 1 : 2), frame);
                break;
              }
              case Opcode::MachineAsm:
                env_.onMachineAsm(*this, *inst);
                break;
              // ---- Terminators ------------------------------------------------
              case Opcode::Br:
                next = inst->successor(0);
                break;
              case Opcode::CondBr: {
                int64_t c = evalValue(inst->operand(0), frame).i;
                next = inst->successor(c != 0 ? 0 : 1);
                break;
              }
              case Opcode::Switch: {
                int64_t v = evalValue(inst->operand(0), frame).i;
                next = inst->successor(0); // default
                const auto &cases = inst->caseValues();
                for (size_t c = 0; c < cases.size(); ++c) {
                    if (cases[c] == v) {
                        next = inst->successor(c + 1);
                        break;
                    }
                }
                break;
              }
              case Opcode::Ret:
                if (inst->numOperands() == 1)
                    ret = evalValue(inst->operand(0), frame);
                return ret;
              case Opcode::Unreachable:
                panic("guest reached 'unreachable' in %s",
                      fn->name().c_str());
            }
            if (next != nullptr)
                break;
        }
        NOL_ASSERT(next != nullptr, "block %s fell through without "
                   "terminator", bb->name().c_str());
        prev = bb;
        bb = next;
    }
}

} // namespace nol::interp
