#include "ir/module.hpp"

namespace nol::ir {

Function *
CloneMap::fn(const Function *fn) const
{
    auto it = values.find(fn);
    NOL_ASSERT(it != values.end(), "function %s not in clone map",
               fn->name().c_str());
    return static_cast<Function *>(it->second);
}

GlobalVariable *
CloneMap::global(const GlobalVariable *gv) const
{
    auto it = values.find(gv);
    NOL_ASSERT(it != values.end(), "global %s not in clone map",
               gv->name().c_str());
    return static_cast<GlobalVariable *>(it->second);
}

Module::Module(std::string name)
    : name_(std::move(name)), types_(std::make_shared<TypeContext>())
{
}

Function *
Module::createFunction(const std::string &name, const FunctionType *type,
                       bool external)
{
    NOL_ASSERT(functionByName(name) == nullptr, "duplicate function %s",
               name.c_str());
    const PointerType *ptr_type = types_->pointerTo(type);
    functions_.push_back(
        std::make_unique<Function>(type, ptr_type, name, this, external));
    return functions_.back().get();
}

Function *
Module::functionByName(const std::string &name) const
{
    for (const auto &fn : functions_) {
        if (fn->name() == name)
            return fn.get();
    }
    return nullptr;
}

void
Module::removeFunction(Function *fn)
{
    for (size_t i = 0; i < functions_.size(); ++i) {
        if (functions_[i].get() == fn) {
            functions_.erase(functions_.begin() + static_cast<ptrdiff_t>(i));
            return;
        }
    }
    panic("function %s not found in module %s", fn->name().c_str(),
          name_.c_str());
}

GlobalVariable *
Module::createGlobal(const std::string &name, const Type *value_type,
                     Initializer init, bool is_const)
{
    NOL_ASSERT(globalByName(name) == nullptr, "duplicate global %s",
               name.c_str());
    const PointerType *ptr_type = types_->pointerTo(value_type);
    globals_.push_back(std::make_unique<GlobalVariable>(
        ptr_type, value_type, name, std::move(init), is_const));
    return globals_.back().get();
}

GlobalVariable *
Module::globalByName(const std::string &name) const
{
    for (const auto &gv : globals_) {
        if (gv->name() == name)
            return gv.get();
    }
    return nullptr;
}

void
Module::removeGlobal(GlobalVariable *gv)
{
    for (size_t i = 0; i < globals_.size(); ++i) {
        if (globals_[i].get() == gv) {
            globals_.erase(globals_.begin() + static_cast<ptrdiff_t>(i));
            return;
        }
    }
    panic("global %s not found in module %s", gv->name().c_str(),
          name_.c_str());
}

ConstInt *
Module::constInt(const IntType *type, int64_t value)
{
    constants_.push_back(std::make_unique<ConstInt>(type, value));
    return static_cast<ConstInt *>(constants_.back().get());
}

ConstInt *
Module::constI32(int64_t value)
{
    return constInt(types_->i32(), value);
}

ConstInt *
Module::constI64(int64_t value)
{
    return constInt(types_->i64(), value);
}

ConstInt *
Module::constBool(bool value)
{
    return constInt(types_->i1(), value ? 1 : 0);
}

ConstFloat *
Module::constFloat(const FloatType *type, double value)
{
    constants_.push_back(std::make_unique<ConstFloat>(type, value));
    return static_cast<ConstFloat *>(constants_.back().get());
}

ConstNull *
Module::constNull(const PointerType *type)
{
    constants_.push_back(std::make_unique<ConstNull>(type));
    return static_cast<ConstNull *>(constants_.back().get());
}

namespace {

/** Clone one instruction shell (operands filled in later). */
std::unique_ptr<Instruction>
cloneInstShell(const Instruction *inst)
{
    auto copy = std::make_unique<Instruction>(inst->op(), inst->type(),
                                              inst->name());
    copy->setAccessType(inst->accessType());
    copy->setStructType(inst->structType());
    copy->setFieldIndex(inst->fieldIndex());
    copy->setCalleeType(inst->calleeType());
    copy->setAsmText(inst->asmText());
    copy->setUvaStack(inst->uvaStack());
    for (int64_t case_value : inst->caseValues())
        copy->addCase(case_value);
    return copy;
}

/** Remap an initializer's global/function references through @p map. */
Initializer
remapInit(const Initializer &init, const CloneMap &map)
{
    Initializer out = init;
    if (init.kind == Initializer::Kind::Global && init.global != nullptr)
        out.global = map.global(init.global);
    if (init.kind == Initializer::Kind::Function && init.function != nullptr)
        out.function = map.fn(init.function);
    out.elems.clear();
    for (const auto &elem : init.elems)
        out.elems.push_back(remapInit(elem, map));
    return out;
}

} // namespace

std::unique_ptr<Module>
Module::clone(const std::string &new_name, CloneMap &map) const
{
    auto out = std::make_unique<Module>(new_name);
    out->types_ = types_; // clones share the type context
    out->unified_abi_ = unified_abi_;

    // Pass 1: create globals with placeholder initializers.
    for (const auto &gv : globals_) {
        GlobalVariable *ngv = out->createGlobal(
            gv->name(), gv->valueType(), Initializer::zero(), gv->isConst());
        ngv->setInUva(gv->inUva());
        if (gv->uvaFieldLimited())
            ngv->setUvaFields(gv->uvaFields());
        map.values[gv.get()] = ngv;
    }

    // Pass 2: create function declarations.
    for (const auto &fn : functions_) {
        Function *nfn = out->createFunction(fn->name(), fn->functionType(),
                                            fn->isExternal());
        map.values[fn.get()] = nfn;
    }

    // Pass 3: fix global initializers (they may reference fns/globals).
    for (const auto &gv : globals_)
        map.global(gv.get())->setInit(remapInit(gv->init(), map));

    // Operand mapper; constants are re-created in the new module.
    auto map_value = [&](Value *v) -> Value * {
        auto it = map.values.find(v);
        if (it != map.values.end())
            return it->second;
        switch (v->valueKind()) {
          case Value::Kind::ConstInt: {
            auto *ci = static_cast<ConstInt *>(v);
            Value *nv = out->constInt(static_cast<const IntType *>(ci->type()),
                                      ci->value());
            map.values[v] = nv;
            return nv;
          }
          case Value::Kind::ConstFloat: {
            auto *cf = static_cast<ConstFloat *>(v);
            Value *nv = out->constFloat(
                static_cast<const FloatType *>(cf->type()), cf->value());
            map.values[v] = nv;
            return nv;
          }
          case Value::Kind::ConstNull: {
            Value *nv = out->constNull(
                static_cast<const PointerType *>(v->type()));
            map.values[v] = nv;
            return nv;
          }
          default:
            panic("unmapped value '%s' during module clone",
                  v->name().c_str());
        }
    };

    // Pass 4: clone bodies.
    for (const auto &fn : functions_) {
        Function *nfn = map.fn(fn.get());

        std::vector<std::string> arg_names;
        arg_names.reserve(fn->numArgs());
        for (const auto &arg : fn->args())
            arg_names.push_back(arg->name());
        nfn->materializeArgs(arg_names);
        for (size_t i = 0; i < fn->numArgs(); ++i)
            map.values[fn->arg(i)] = nfn->arg(i);

        if (!fn->hasBody())
            continue;

        for (const auto &bb : fn->blocks())
            map.blocks[bb.get()] = nfn->createBlock(bb->name());

        // Create instruction shells first so forward references to
        // later-defined values (cross-block) resolve.
        for (const auto &bb : fn->blocks()) {
            BasicBlock *nbb = map.blocks[bb.get()];
            for (const auto &inst : bb->insts()) {
                Instruction *ninst = nbb->append(cloneInstShell(inst.get()));
                map.values[inst.get()] = ninst;
            }
        }

        // Fill operands, successors and callees.
        for (const auto &bb : fn->blocks()) {
            BasicBlock *nbb = map.blocks[bb.get()];
            for (size_t i = 0; i < bb->size(); ++i) {
                const Instruction *inst = bb->inst(i);
                Instruction *ninst = nbb->inst(i);
                for (Value *op : inst->operands())
                    ninst->addOperand(map_value(op));
                for (BasicBlock *succ : inst->successors())
                    ninst->addSuccessor(map.blocks.at(succ));
                if (inst->callee() != nullptr)
                    ninst->setCallee(map.fn(inst->callee()));
            }
        }

        // Remap loop metadata.
        for (const LoopMeta &loop : fn->loops()) {
            LoopMeta nloop;
            nloop.name = loop.name;
            nloop.preheader = loop.preheader != nullptr
                                  ? map.blocks.at(loop.preheader)
                                  : nullptr;
            nloop.header = map.blocks.at(loop.header);
            nloop.exit = loop.exit != nullptr ? map.blocks.at(loop.exit)
                                              : nullptr;
            for (BasicBlock *lb : loop.blocks)
                nloop.blocks.push_back(map.blocks.at(lb));
            nfn->addLoop(std::move(nloop));
        }
    }

    return out;
}

} // namespace nol::ir
