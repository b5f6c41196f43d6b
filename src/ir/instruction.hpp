/**
 * @file
 * Instruction set of the offloading IR. The IR is register-based and
 * alloca-form (mutable locals live in stack slots, so no phi nodes are
 * needed); each instruction yields at most one value.
 */
#ifndef NOL_IR_INSTRUCTION_HPP
#define NOL_IR_INSTRUCTION_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "ir/value.hpp"

namespace nol::ir {

class BasicBlock;
class Function;

/** Every operation the IR supports. */
enum class Opcode {
    // Memory
    Alloca,     ///< reserve a stack slot; yields its address
    Load,       ///< load accessType() from operand 0 (a pointer)
    Store,      ///< store operand 0 to pointer operand 1
    // Integer arithmetic / bitwise
    Add, Sub, Mul, SDiv, UDiv, SRem, URem,
    And, Or, Xor, Shl, LShr, AShr,
    // Floating point arithmetic
    FAdd, FSub, FMul, FDiv,
    // Integer compare (yields i1)
    ICmpEq, ICmpNe, ICmpSlt, ICmpSle, ICmpSgt, ICmpSge,
    ICmpUlt, ICmpUle, ICmpUgt, ICmpUge,
    // Float compare (yields i1)
    FCmpEq, FCmpNe, FCmpLt, FCmpLe, FCmpGt, FCmpGe,
    // Conversions
    Trunc, ZExt, SExt, FPToSI, SIToFP, FPTrunc, FPExt,
    Bitcast, PtrToInt, IntToPtr,
    // Address computation
    FieldAddr,  ///< &ptr->field_idx of structType()
    IndexAddr,  ///< ptr + index * sizeof(accessType())
    // Calls
    Call,         ///< direct call of callee()
    CallIndirect, ///< call through function pointer operand 0
    // Terminators
    Br,         ///< unconditional branch to successor 0
    CondBr,     ///< operand 0 ? successor 0 : successor 1
    Switch,     ///< jump table on operand 0; successor 0 is the default
    Ret,        ///< return (operand 0 if non-void)
    // Machine-specific marker: inline assembly the filter must reject
    MachineAsm,
    Unreachable,
};

/** Printable mnemonic of @p op. */
const char *opcodeName(Opcode op);

/** True if @p op ends a basic block. */
bool isTerminator(Opcode op);

/**
 * One IR instruction. A deliberately "fat node" design: a single class
 * carries optional fields (access type, struct field, callee, switch
 * cases) rather than a deep subclass tree — the interpreter and passes
 * switch on the opcode anyway.
 */
class Instruction : public Value
{
  public:
    Instruction(Opcode op, const Type *result_type, std::string name)
        : Value(Kind::Instruction, result_type, std::move(name)), op_(op)
    {}

    Opcode op() const { return op_; }

    BasicBlock *parent() const { return parent_; }
    void setParent(BasicBlock *bb) { parent_ = bb; }

    // --- Operands -------------------------------------------------------
    const std::vector<Value *> &operands() const { return operands_; }
    Value *
    operand(size_t idx) const
    {
        NOL_ASSERT(idx < operands_.size(), "operand %zu out of range on %s",
                   idx, opcodeName(op_));
        return operands_[idx];
    }
    size_t numOperands() const { return operands_.size(); }
    void addOperand(Value *v) { operands_.push_back(v); }
    void
    setOperand(size_t idx, Value *v)
    {
        NOL_ASSERT(idx < operands_.size(), "operand %zu out of range", idx);
        operands_[idx] = v;
    }

    // --- Successors (terminators only) ----------------------------------
    const std::vector<BasicBlock *> &successors() const { return succs_; }
    BasicBlock *
    successor(size_t idx) const
    {
        NOL_ASSERT(idx < succs_.size(), "successor %zu out of range", idx);
        return succs_[idx];
    }
    void addSuccessor(BasicBlock *bb) { succs_.push_back(bb); }
    void
    setSuccessor(size_t idx, BasicBlock *bb)
    {
        NOL_ASSERT(idx < succs_.size(), "successor %zu out of range", idx);
        succs_[idx] = bb;
    }

    bool isTerminator() const { return ir::isTerminator(op_); }

    // --- Memory / address extras ----------------------------------------
    /** Type loaded/stored/allocated/indexed over. */
    const Type *accessType() const { return access_type_; }
    void setAccessType(const Type *t) { access_type_ = t; }

    /** Struct addressed by FieldAddr. */
    const StructType *structType() const { return struct_type_; }
    void setStructType(const StructType *t) { struct_type_ = t; }

    /** Field index of FieldAddr. */
    unsigned fieldIndex() const { return field_index_; }
    void setFieldIndex(unsigned idx) { field_index_ = idx; }

    // --- Call extras ------------------------------------------------------
    /** Direct callee (Call) — may be external/builtin. */
    Function *callee() const { return callee_; }
    void setCallee(Function *fn) { callee_ = fn; }

    /** Signature of an indirect call. */
    const FunctionType *calleeType() const { return callee_type_; }
    void setCalleeType(const FunctionType *t) { callee_type_ = t; }

    // --- Switch extras ----------------------------------------------------
    /** Case values; case i branches to successor i+1 (0 is default). */
    const std::vector<int64_t> &caseValues() const { return case_values_; }
    void addCase(int64_t value) { case_values_.push_back(value); }

    // --- MachineAsm extras -------------------------------------------------
    const std::string &asmText() const { return asm_text_; }
    void setAsmText(std::string text) { asm_text_ = std::move(text); }

    // --- Alloca extras ------------------------------------------------------
    /**
     * Stack-reallocation mark (paper Sec. 3.2): set by the memory
     * unifier on Alloca slots whose address escapes from an
     * offload-reachable frame, so both binaries place the slot in
     * unified space. The partition verifier checks the mobile and
     * server clones agree on every mark.
     */
    bool uvaStack() const { return uva_stack_; }
    void setUvaStack(bool v) { uva_stack_ = v; }

  private:
    Opcode op_;
    BasicBlock *parent_ = nullptr;
    std::vector<Value *> operands_;
    std::vector<BasicBlock *> succs_;
    const Type *access_type_ = nullptr;
    const StructType *struct_type_ = nullptr;
    unsigned field_index_ = 0;
    Function *callee_ = nullptr;
    const FunctionType *callee_type_ = nullptr;
    std::vector<int64_t> case_values_;
    std::string asm_text_;
    bool uva_stack_ = false;
};

} // namespace nol::ir

#endif // NOL_IR_INSTRUCTION_HPP
