/**
 * @file
 * Basic block: an ordered list of instructions ending in a terminator.
 * Blocks own their instructions.
 */
#ifndef NOL_IR_BASICBLOCK_HPP
#define NOL_IR_BASICBLOCK_HPP

#include <memory>
#include <string>
#include <vector>

#include "ir/instruction.hpp"

namespace nol::ir {

class Function;

/** A straight-line instruction sequence with a single terminator. */
class BasicBlock
{
  public:
    BasicBlock(std::string name, Function *parent)
        : name_(std::move(name)), parent_(parent)
    {}

    BasicBlock(const BasicBlock &) = delete;
    BasicBlock &operator=(const BasicBlock &) = delete;

    const std::string &name() const { return name_; }
    void setName(std::string name) { name_ = std::move(name); }

    Function *parent() const { return parent_; }
    void setParent(Function *fn) { parent_ = fn; }

    /** Instructions in execution order. */
    const std::vector<std::unique_ptr<Instruction>> &insts() const
    {
        return insts_;
    }

    bool empty() const { return insts_.empty(); }
    size_t size() const { return insts_.size(); }

    Instruction *inst(size_t idx) const { return insts_[idx].get(); }

    /** Append @p inst; sets its parent. */
    Instruction *append(std::unique_ptr<Instruction> inst);

    /** Insert @p inst before position @p idx. */
    Instruction *insertAt(size_t idx, std::unique_ptr<Instruction> inst);

    /** The terminator, or nullptr if the block is still open. */
    Instruction *terminator() const;

    /** True once the block ends in a terminator. */
    bool isTerminated() const { return terminator() != nullptr; }

    /** Successor blocks (from the terminator). */
    std::vector<BasicBlock *> successors() const;

  private:
    std::string name_;
    Function *parent_;
    std::vector<std::unique_ptr<Instruction>> insts_;
};

} // namespace nol::ir

#endif // NOL_IR_BASICBLOCK_HPP
