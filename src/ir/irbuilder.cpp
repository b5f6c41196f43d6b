#include "ir/irbuilder.hpp"

namespace nol::ir {

Instruction *
IRBuilder::emit(std::unique_ptr<Instruction> inst)
{
    NOL_ASSERT(bb_ != nullptr, "no insertion point set");
    if (insert_idx_ < 0)
        return bb_->append(std::move(inst));
    Instruction *out =
        bb_->insertAt(static_cast<size_t>(insert_idx_), std::move(inst));
    ++insert_idx_;
    return out;
}

Instruction *
IRBuilder::alloca_(const Type *type, const std::string &name)
{
    auto inst = std::make_unique<Instruction>(
        Opcode::Alloca, types().pointerTo(type), name);
    inst->setAccessType(type);
    return emit(std::move(inst));
}

Instruction *
IRBuilder::load(Value *ptr, const std::string &name)
{
    NOL_ASSERT(ptr->type()->isPointer(), "load from non-pointer %s",
               ptr->type()->str().c_str());
    const Type *value_type =
        static_cast<const PointerType *>(ptr->type())->pointee();
    NOL_ASSERT(value_type->isScalar(), "load of non-scalar type %s",
               value_type->str().c_str());
    auto inst =
        std::make_unique<Instruction>(Opcode::Load, value_type, name);
    inst->setAccessType(value_type);
    inst->addOperand(ptr);
    return emit(std::move(inst));
}

Instruction *
IRBuilder::store(Value *value, Value *ptr)
{
    NOL_ASSERT(ptr->type()->isPointer(), "store to non-pointer %s",
               ptr->type()->str().c_str());
    auto inst =
        std::make_unique<Instruction>(Opcode::Store, types().voidTy(), "");
    inst->setAccessType(value->type());
    inst->addOperand(value);
    inst->addOperand(ptr);
    return emit(std::move(inst));
}

Instruction *
IRBuilder::binary(Opcode op, Value *lhs, Value *rhs, const std::string &name)
{
    auto inst = std::make_unique<Instruction>(op, lhs->type(), name);
    inst->addOperand(lhs);
    inst->addOperand(rhs);
    return emit(std::move(inst));
}

Instruction *
IRBuilder::cmp(Opcode op, Value *lhs, Value *rhs, const std::string &name)
{
    auto inst = std::make_unique<Instruction>(op, types().i1(), name);
    inst->addOperand(lhs);
    inst->addOperand(rhs);
    return emit(std::move(inst));
}

Instruction *
IRBuilder::cast(Opcode op, Value *value, const Type *to,
                const std::string &name)
{
    auto inst = std::make_unique<Instruction>(op, to, name);
    inst->addOperand(value);
    return emit(std::move(inst));
}

Instruction *
IRBuilder::fieldAddr(Value *base, unsigned field_idx, const std::string &name)
{
    NOL_ASSERT(base->type()->isPointer(), "fieldAddr base is not a pointer");
    const Type *pointee =
        static_cast<const PointerType *>(base->type())->pointee();
    NOL_ASSERT(pointee->isStruct(), "fieldAddr base does not point to struct");
    const auto *st = static_cast<const StructType *>(pointee);
    const Type *field_type = st->field(field_idx).type;
    auto inst = std::make_unique<Instruction>(
        Opcode::FieldAddr, types().pointerTo(field_type), name);
    inst->setStructType(st);
    inst->setFieldIndex(field_idx);
    inst->addOperand(base);
    return emit(std::move(inst));
}

Instruction *
IRBuilder::indexAddr(Value *base, Value *index, const std::string &name)
{
    NOL_ASSERT(base->type()->isPointer(), "indexAddr base is not a pointer");
    const Type *elem =
        static_cast<const PointerType *>(base->type())->pointee();
    auto inst = std::make_unique<Instruction>(
        Opcode::IndexAddr, types().pointerTo(elem), name);
    inst->setAccessType(elem);
    inst->addOperand(base);
    inst->addOperand(index);
    return emit(std::move(inst));
}

Instruction *
IRBuilder::call(Function *callee, std::vector<Value *> args,
                const std::string &name)
{
    const FunctionType *fn_type = callee->functionType();
    NOL_ASSERT(args.size() >= fn_type->params().size(),
               "call to %s with too few arguments", callee->name().c_str());
    auto inst = std::make_unique<Instruction>(
        Opcode::Call, fn_type->returnType(), name);
    inst->setCallee(callee);
    inst->setCalleeType(fn_type);
    for (Value *arg : args)
        inst->addOperand(arg);
    return emit(std::move(inst));
}

Instruction *
IRBuilder::callIndirect(Value *fn_ptr, const FunctionType *fn_type,
                        std::vector<Value *> args, const std::string &name)
{
    auto inst = std::make_unique<Instruction>(
        Opcode::CallIndirect, fn_type->returnType(), name);
    inst->setCalleeType(fn_type);
    inst->addOperand(fn_ptr);
    for (Value *arg : args)
        inst->addOperand(arg);
    return emit(std::move(inst));
}

Instruction *
IRBuilder::br(BasicBlock *dest)
{
    auto inst = std::make_unique<Instruction>(Opcode::Br, types().voidTy(), "");
    inst->addSuccessor(dest);
    return emit(std::move(inst));
}

Instruction *
IRBuilder::condBr(Value *cond, BasicBlock *if_true, BasicBlock *if_false)
{
    auto inst =
        std::make_unique<Instruction>(Opcode::CondBr, types().voidTy(), "");
    inst->addOperand(cond);
    inst->addSuccessor(if_true);
    inst->addSuccessor(if_false);
    return emit(std::move(inst));
}

Instruction *
IRBuilder::switch_(Value *value, BasicBlock *default_dest)
{
    auto inst =
        std::make_unique<Instruction>(Opcode::Switch, types().voidTy(), "");
    inst->addOperand(value);
    inst->addSuccessor(default_dest);
    return emit(std::move(inst));
}

Instruction *
IRBuilder::ret(Value *value)
{
    auto inst = std::make_unique<Instruction>(Opcode::Ret, types().voidTy(), "");
    if (value != nullptr)
        inst->addOperand(value);
    return emit(std::move(inst));
}

Instruction *
IRBuilder::unreachable()
{
    return emit(std::make_unique<Instruction>(Opcode::Unreachable,
                                              types().voidTy(), ""));
}

Instruction *
IRBuilder::machineAsm(const std::string &text)
{
    auto inst = std::make_unique<Instruction>(Opcode::MachineAsm,
                                              types().voidTy(), "");
    inst->setAsmText(text);
    return emit(std::move(inst));
}

} // namespace nol::ir
