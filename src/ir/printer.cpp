#include "ir/printer.hpp"

#include <map>
#include <sstream>

#include "support/strings.hpp"

namespace nol::ir {

namespace {

/** Assigns stable %N ids to unnamed values within one function. */
class NameMap
{
  public:
    std::string
    of(const Value *v)
    {
        if (!v->name().empty())
            return "%" + v->name();
        auto it = ids_.find(v);
        if (it == ids_.end())
            it = ids_.emplace(v, next_++).first;
        return "%" + std::to_string(it->second);
    }

  private:
    std::map<const Value *, unsigned> ids_;
    unsigned next_ = 0;
};

std::string
operandStr(const Value *v, NameMap &names)
{
    switch (v->valueKind()) {
      case Value::Kind::ConstInt: {
        const auto *ci = static_cast<const ConstInt *>(v);
        return v->type()->str() + " " + std::to_string(ci->value());
      }
      case Value::Kind::ConstFloat: {
        const auto *cf = static_cast<const ConstFloat *>(v);
        return v->type()->str() + " " + fixed(cf->value(), 6);
      }
      case Value::Kind::ConstNull:
        return v->type()->str() + " null";
      case Value::Kind::Global:
        return v->type()->str() + " @" + v->name();
      case Value::Kind::Function:
        return "@" + v->name();
      case Value::Kind::Argument:
      case Value::Kind::Instruction:
        return v->type()->str() + " " + names.of(v);
    }
    return "?";
}

std::string
printInstWith(const Instruction &inst, NameMap &names)
{
    std::ostringstream os;
    if (!inst.type()->isVoid())
        os << names.of(&inst) << " = ";
    os << opcodeName(inst.op());

    if (inst.op() == Opcode::Alloca) {
        os << " " << inst.accessType()->str();
    } else if (inst.op() == Opcode::FieldAddr) {
        os << " " << operandStr(inst.operand(0), names) << ", field "
           << inst.fieldIndex() << " (" << inst.structType()->name() << "."
           << inst.structType()->field(inst.fieldIndex()).name << ")";
    } else if (inst.op() == Opcode::Call) {
        os << " @" << inst.callee()->name() << "(";
        for (size_t i = 0; i < inst.numOperands(); ++i) {
            if (i != 0)
                os << ", ";
            os << operandStr(inst.operand(i), names);
        }
        os << ")";
        // The type sizeof sizes; a load's or store's shows in its operands.
        if (inst.accessType() != nullptr)
            os << ", type " << inst.accessType()->str();
    } else if (inst.op() == Opcode::CallIndirect) {
        os << " " << operandStr(inst.operand(0), names) << "(";
        for (size_t i = 1; i < inst.numOperands(); ++i) {
            if (i != 1)
                os << ", ";
            os << operandStr(inst.operand(i), names);
        }
        os << ")";
    } else if (inst.op() == Opcode::MachineAsm) {
        os << " \"" << inst.asmText() << "\"";
    } else {
        for (size_t i = 0; i < inst.numOperands(); ++i)
            os << (i == 0 ? " " : ", ") << operandStr(inst.operand(i), names);
    }

    // Cast result types.
    switch (inst.op()) {
      case Opcode::Trunc:
      case Opcode::ZExt:
      case Opcode::SExt:
      case Opcode::FPToSI:
      case Opcode::SIToFP:
      case Opcode::FPTrunc:
      case Opcode::FPExt:
      case Opcode::Bitcast:
      case Opcode::PtrToInt:
      case Opcode::IntToPtr:
        os << " to " << inst.type()->str();
        break;
      default:
        break;
    }

    if (inst.op() == Opcode::Switch) {
        os << " [";
        const auto &cases = inst.caseValues();
        for (size_t i = 0; i < cases.size(); ++i) {
            if (i != 0)
                os << ", ";
            os << cases[i] << " -> " << inst.successor(i + 1)->name();
        }
        os << "], default " << inst.successor(0)->name();
    } else if (!inst.successors().empty()) {
        for (size_t i = 0; i < inst.successors().size(); ++i)
            os << (i == 0 && inst.numOperands() == 0 ? " " : ", ")
               << inst.successor(i)->name();
    }
    return os.str();
}

} // namespace

std::string
printInst(const Instruction &inst)
{
    NameMap names;
    return printInstWith(inst, names);
}

std::string
printFunction(const Function &fn)
{
    std::ostringstream os;
    NameMap names;
    os << (fn.isExternal() ? "declare " : "define ")
       << fn.functionType()->returnType()->str() << " @" << fn.name() << "(";
    for (size_t i = 0; i < fn.numArgs(); ++i) {
        if (i != 0)
            os << ", ";
        os << fn.arg(i)->type()->str() << " " << names.of(fn.arg(i));
    }
    if (fn.functionType()->isVariadic())
        os << (fn.numArgs() > 0 ? ", ..." : "...");
    os << ")";
    if (fn.isExternal()) {
        os << "\n";
        return os.str();
    }
    os << " {\n";
    for (const auto &bb : fn.blocks()) {
        os << bb->name() << ":\n";
        for (const auto &inst : bb->insts())
            os << "    " << printInstWith(*inst, names) << "\n";
    }
    os << "}\n";
    for (const auto &loop : fn.loops()) {
        os << "; loop " << loop.name << " header=" << loop.header->name()
           << " blocks=" << loop.blocks.size() << "\n";
    }
    return os.str();
}

std::string
printModule(const Module &module)
{
    std::ostringstream os;
    os << "; module " << module.name() << "\n";
    for (const StructType *st : module.types().structs()) {
        os << "%" << st->name() << " = { ";
        for (size_t i = 0; i < st->numFields(); ++i) {
            if (i != 0)
                os << ", ";
            os << st->field(i).type->str() << " " << st->field(i).name;
        }
        os << " }";
        if (st->hasExplicitLayout()) {
            os << "  ; unified layout: size " << st->explicitLayout().size
               << ", offsets [";
            const auto &offs = st->explicitLayout().offsets;
            for (size_t i = 0; i < offs.size(); ++i)
                os << (i == 0 ? "" : ", ") << offs[i];
            os << "]";
        }
        os << "\n";
    }
    for (const auto &gv : module.globals()) {
        os << "@" << gv->name() << " = "
           << (gv->isConst() ? "const " : "global ")
           << gv->valueType()->str();
        if (gv->inUva())
            os << "  ; uva";
        os << "\n";
    }
    os << "\n";
    for (const auto &fn : module.functions())
        os << printFunction(*fn) << "\n";
    return os.str();
}

} // namespace nol::ir
