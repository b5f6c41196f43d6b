#include "ir/function.hpp"

namespace nol::ir {

void
Function::materializeArgs(const std::vector<std::string> &names)
{
    NOL_ASSERT(args_.empty(), "arguments of %s already materialized",
               name().c_str());
    const auto &params = fn_type_->params();
    for (size_t i = 0; i < params.size(); ++i) {
        std::string arg_name =
            i < names.size() ? names[i] : "arg" + std::to_string(i);
        args_.push_back(std::make_unique<Argument>(
            params[i], std::move(arg_name), this, static_cast<unsigned>(i)));
    }
}

BasicBlock *
Function::createBlock(const std::string &name)
{
    blocks_.push_back(std::make_unique<BasicBlock>(name, this));
    return blocks_.back().get();
}

BasicBlock *
Function::adoptBlock(std::unique_ptr<BasicBlock> bb)
{
    bb->setParent(this);
    blocks_.push_back(std::move(bb));
    return blocks_.back().get();
}

std::unique_ptr<BasicBlock>
Function::removeBlock(BasicBlock *bb)
{
    for (size_t i = 0; i < blocks_.size(); ++i) {
        if (blocks_[i].get() == bb) {
            std::unique_ptr<BasicBlock> out = std::move(blocks_[i]);
            blocks_.erase(blocks_.begin() + static_cast<ptrdiff_t>(i));
            out->setParent(nullptr);
            return out;
        }
    }
    panic("block %s not found in function %s", bb->name().c_str(),
          name().c_str());
}

int
Function::blockIndex(const BasicBlock *bb) const
{
    for (size_t i = 0; i < blocks_.size(); ++i) {
        if (blocks_[i].get() == bb)
            return static_cast<int>(i);
    }
    return -1;
}

const LoopMeta *
Function::loopByName(const std::string &name) const
{
    for (const auto &loop : loops_) {
        if (loop.name == name)
            return &loop;
    }
    return nullptr;
}

} // namespace nol::ir
