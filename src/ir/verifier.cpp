#include "ir/verifier.hpp"

#include <set>
#include <sstream>
#include <unordered_map>

#include "ir/loopinfo.hpp"
#include "ir/printer.hpp"

namespace nol::ir {

namespace {

/** Per-function verification state. */
class FunctionVerifier
{
  public:
    FunctionVerifier(const Function &fn, std::vector<std::string> &problems)
        : fn_(fn), problems_(problems)
    {}

    void
    run()
    {
        if (!fn_.hasBody())
            return;

        // Collect everything defined in this function.
        for (const auto &arg : fn_.args())
            defined_.insert(arg.get());
        for (const auto &bb : fn_.blocks()) {
            blocks_.insert(bb.get());
            for (const auto &inst : bb->insts())
                defined_.insert(inst.get());
        }

        for (const auto &bb : fn_.blocks())
            checkBlock(*bb);

        for (const LoopMeta &loop : fn_.loops())
            checkLoop(loop);

        for (const UndefinedUse &use : undefinedUses(fn_)) {
            if (defined_.count(use.value) == 0) {
                problem("operand of '" + printInst(*use.user) +
                        "' defined in another function");
            } else {
                problem("use of undefined value '" + use.value->name() +
                        "' in '" + printInst(*use.user) + "'");
            }
        }
    }

  private:
    void
    problem(const std::string &what)
    {
        problems_.push_back("in @" + fn_.name() + ": " + what);
    }

    void
    checkBlock(const BasicBlock &bb)
    {
        if (bb.empty()) {
            problem("empty block " + bb.name());
            return;
        }
        if (bb.terminator() == nullptr)
            problem("block " + bb.name() + " lacks a terminator");

        for (size_t i = 0; i < bb.size(); ++i) {
            const Instruction *inst = bb.inst(i);
            if (inst->isTerminator() && i + 1 != bb.size())
                problem("terminator mid-block in " + bb.name());
            checkInst(*inst);
        }
    }

    void
    checkInst(const Instruction &inst)
    {
        for (const BasicBlock *succ : inst.successors()) {
            if (blocks_.count(succ) == 0)
                problem("successor " + succ->name() + " of '" +
                        printInst(inst) + "' not in function");
        }

        switch (inst.op()) {
          case Opcode::Load:
            if (!inst.operand(0)->type()->isPointer())
                problem("load from non-pointer: " + printInst(inst));
            break;
          case Opcode::Store:
            if (!inst.operand(1)->type()->isPointer())
                problem("store to non-pointer: " + printInst(inst));
            break;
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
          case Opcode::AShr:
            if (!inst.operand(0)->type()->isInt() ||
                !inst.operand(1)->type()->isInt()) {
                problem("integer op on non-int: " + printInst(inst));
            }
            break;
          case Opcode::FAdd:
          case Opcode::FSub:
          case Opcode::FMul:
          case Opcode::FDiv:
            if (!inst.operand(0)->type()->isFloat() ||
                !inst.operand(1)->type()->isFloat()) {
                problem("float op on non-float: " + printInst(inst));
            }
            break;
          case Opcode::Call: {
            if (inst.callee() == nullptr) {
                problem("call with no callee: " + printInst(inst));
                break;
            }
            const FunctionType *ft = inst.callee()->functionType();
            if (inst.numOperands() < ft->params().size() ||
                (inst.numOperands() != ft->params().size() &&
                 !ft->isVariadic())) {
                problem("bad argument count calling @" +
                        inst.callee()->name());
            }
            break;
          }
          case Opcode::CallIndirect:
            if (!inst.operand(0)->type()->isPointer())
                problem("indirect call through non-pointer: " +
                        printInst(inst));
            if (inst.calleeType() == nullptr)
                problem("indirect call without signature: " +
                        printInst(inst));
            break;
          case Opcode::CondBr:
            if (!inst.operand(0)->type()->isInt())
                problem("condbr on non-int condition");
            if (inst.successors().size() != 2)
                problem("condbr needs exactly 2 successors");
            break;
          case Opcode::Br:
            if (inst.successors().size() != 1)
                problem("br needs exactly 1 successor");
            break;
          case Opcode::Switch:
            if (inst.successors().size() != inst.caseValues().size() + 1)
                problem("switch successor/case count mismatch");
            break;
          case Opcode::Ret: {
            const Type *ret = fn_.functionType()->returnType();
            if (ret->isVoid() && inst.numOperands() != 0)
                problem("ret with value in void function");
            if (!ret->isVoid() && inst.numOperands() != 1)
                problem("ret without value in non-void function");
            break;
          }
          case Opcode::FieldAddr:
            if (inst.structType() == nullptr ||
                inst.fieldIndex() >= inst.structType()->numFields()) {
                problem("bad fieldaddr: " + printInst(inst));
            }
            break;
          default:
            break;
        }
    }

    void
    checkLoop(const LoopMeta &loop)
    {
        if (loop.header == nullptr || blocks_.count(loop.header) == 0) {
            problem("loop " + loop.name + " header not in function");
            return;
        }
        if (!loop.contains(loop.header))
            problem("loop " + loop.name + " does not contain its header");
        for (const BasicBlock *bb : loop.blocks) {
            if (blocks_.count(bb) == 0)
                problem("loop " + loop.name + " block not in function");
        }
        if (loop.exit != nullptr && loop.contains(loop.exit))
            problem("loop " + loop.name + " exit inside loop");
    }

    const Function &fn_;
    std::vector<std::string> &problems_;
    std::set<const Value *> defined_;
    std::set<const BasicBlock *> blocks_;
};

} // namespace

std::vector<std::string>
verifyModule(const Module &module)
{
    std::vector<std::string> problems;
    std::set<std::string> fn_names;
    for (const auto &fn : module.functions()) {
        if (!fn_names.insert(fn->name()).second)
            problems.push_back("duplicate function @" + fn->name());
        FunctionVerifier(*fn, problems).run();
    }
    std::set<std::string> gv_names;
    for (const auto &gv : module.globals()) {
        if (!gv_names.insert(gv->name()).second)
            problems.push_back("duplicate global @" + gv->name());
    }
    return problems;
}

std::vector<UndefinedUse>
undefinedUses(const Function &fn)
{
    std::vector<UndefinedUse> out;
    if (!fn.hasBody())
        return out;
    DominatorTree dom(fn);
    // Where each value of fn is defined; an argument has no block.
    struct Def {
        const BasicBlock *block = nullptr;
        size_t index = 0;
    };
    std::unordered_map<const Value *, Def> defs;
    for (const auto &arg : fn.args())
        defs.emplace(arg.get(), Def{});
    for (const auto &bb : fn.blocks()) {
        for (size_t i = 0; i < bb->size(); ++i) {
            if (!bb->inst(i)->type()->isVoid())
                defs.emplace(bb->inst(i), Def{bb.get(), i});
        }
    }
    for (const auto &bb : fn.blocks()) {
        bool runs = dom.reachable(bb.get());
        for (size_t i = 0; i < bb->size(); ++i) {
            const Instruction *inst = bb->inst(i);
            for (const Value *v : inst->operands()) {
                if (v->valueKind() != Value::Kind::Argument &&
                    v->valueKind() != Value::Kind::Instruction) {
                    continue;
                }
                auto it = defs.find(v);
                bool ok = it != defs.end();
                if (ok && runs && it->second.block != nullptr) {
                    const Def &def = it->second;
                    ok = def.block == bb.get()
                             ? def.index < i
                             : dom.dominates(def.block, bb.get());
                }
                if (!ok)
                    out.push_back({inst, v});
            }
        }
    }
    return out;
}

void
assertRunnable(const Function &fn)
{
    for (const auto &bb : fn.blocks()) {
        size_t terminators = 0;
        for (const auto &inst : bb->insts())
            terminators += inst->isTerminator() ? 1 : 0;
        if (terminators != 1 || bb->terminator() == nullptr) {
            panic("block %s of @%s does not end in exactly one terminator",
                  bb->name().c_str(), fn.name().c_str());
        }
        for (const BasicBlock *succ : bb->terminator()->successors()) {
            if (succ->parent() != &fn) {
                panic("block %s of @%s branches to block %s of another "
                      "function",
                      bb->name().c_str(), fn.name().c_str(),
                      succ->name().c_str());
            }
        }
    }
    std::vector<UndefinedUse> undefined = undefinedUses(fn);
    if (!undefined.empty()) {
        panic("use of undefined value '%s' in @%s",
              undefined.front().value->name().c_str(), fn.name().c_str());
    }
}

void
verifyModuleOrDie(const Module &module)
{
    auto problems = verifyModule(module);
    if (!problems.empty()) {
        std::ostringstream os;
        for (size_t i = 0; i < std::min<size_t>(problems.size(), 10); ++i)
            os << problems[i] << "\n";
        panic("module %s failed verification (%zu problems):\n%s",
              module.name().c_str(), problems.size(), os.str().c_str());
    }
}

} // namespace nol::ir
