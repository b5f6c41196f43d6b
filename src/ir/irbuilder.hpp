/**
 * @file
 * Convenience builder for emitting IR. Tracks an insertion point
 * (block + position) and provides one factory method per opcode with
 * type checking at construction time.
 */
#ifndef NOL_IR_IRBUILDER_HPP
#define NOL_IR_IRBUILDER_HPP

#include "ir/module.hpp"

namespace nol::ir {

/** Stateful instruction factory appending at an insertion point. */
class IRBuilder
{
  public:
    explicit IRBuilder(Module &module) : module_(module) {}

    Module &module() const { return module_; }
    TypeContext &types() const { return module_.types(); }

    /** Append new instructions at the end of @p bb. */
    void setInsertPoint(BasicBlock *bb) { bb_ = bb; insert_idx_ = -1; }

    /** Insert before position @p idx of @p bb (subsequent inserts shift). */
    void
    setInsertPoint(BasicBlock *bb, size_t idx)
    {
        bb_ = bb;
        insert_idx_ = static_cast<int>(idx);
    }

    BasicBlock *insertBlock() const { return bb_; }

    // --- Memory -----------------------------------------------------------
    Instruction *alloca_(const Type *type, const std::string &name = "");
    Instruction *load(Value *ptr, const std::string &name = "");
    Instruction *store(Value *value, Value *ptr);

    // --- Arithmetic ---------------------------------------------------------
    Instruction *binary(Opcode op, Value *lhs, Value *rhs,
                        const std::string &name = "");
    Instruction *cmp(Opcode op, Value *lhs, Value *rhs,
                     const std::string &name = "");
    Instruction *cast(Opcode op, Value *value, const Type *to,
                      const std::string &name = "");

    // --- Addressing ----------------------------------------------------------
    /** &base->field (base must be pointer-to-struct). */
    Instruction *fieldAddr(Value *base, unsigned field_idx,
                           const std::string &name = "");

    /** base + index*sizeof(elem) where base is T* (or decayed [N x T]*). */
    Instruction *indexAddr(Value *base, Value *index,
                           const std::string &name = "");

    // --- Calls -----------------------------------------------------------------
    Instruction *call(Function *callee, std::vector<Value *> args,
                      const std::string &name = "");
    Instruction *callIndirect(Value *fn_ptr, const FunctionType *fn_type,
                              std::vector<Value *> args,
                              const std::string &name = "");

    // --- Terminators -----------------------------------------------------------
    Instruction *br(BasicBlock *dest);
    Instruction *condBr(Value *cond, BasicBlock *if_true,
                        BasicBlock *if_false);
    Instruction *switch_(Value *value, BasicBlock *default_dest);
    Instruction *ret(Value *value = nullptr);
    Instruction *unreachable();

    /** Opaque machine-specific instruction (inline assembly stand-in). */
    Instruction *machineAsm(const std::string &text);

  private:
    Instruction *emit(std::unique_ptr<Instruction> inst);

    Module &module_;
    BasicBlock *bb_ = nullptr;
    int insert_idx_ = -1;
};

} // namespace nol::ir

#endif // NOL_IR_IRBUILDER_HPP
