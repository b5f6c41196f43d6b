#include "ir/basicblock.hpp"

namespace nol::ir {

Instruction *
BasicBlock::append(std::unique_ptr<Instruction> inst)
{
    inst->setParent(this);
    insts_.push_back(std::move(inst));
    return insts_.back().get();
}

Instruction *
BasicBlock::insertAt(size_t idx, std::unique_ptr<Instruction> inst)
{
    NOL_ASSERT(idx <= insts_.size(), "insert position %zu out of range", idx);
    inst->setParent(this);
    auto it = insts_.insert(insts_.begin() + static_cast<ptrdiff_t>(idx),
                            std::move(inst));
    return it->get();
}

Instruction *
BasicBlock::terminator() const
{
    if (insts_.empty())
        return nullptr;
    Instruction *last = insts_.back().get();
    return last->isTerminator() ? last : nullptr;
}

std::vector<BasicBlock *>
BasicBlock::successors() const
{
    Instruction *term = terminator();
    if (term == nullptr)
        return {};
    return term->successors();
}

} // namespace nol::ir
