/**
 * @file
 * Function: arguments plus a list of basic blocks, with loop metadata
 * attached by the front end (the hot function/LOOP profiler and the
 * target selector treat loops as first-class offload candidates).
 */
#ifndef NOL_IR_FUNCTION_HPP
#define NOL_IR_FUNCTION_HPP

#include <memory>
#include <string>
#include <vector>

#include "ir/basicblock.hpp"
#include "ir/value.hpp"

namespace nol::ir {

class Module;

/**
 * Structured-loop metadata recorded during lowering. Front-end loops
 * are single-entry (preheader → header) and single-exit, which is what
 * makes them outlineable offload targets.
 */
struct LoopMeta {
    std::string name;           ///< e.g. "getAITurn_for.cond1"
    BasicBlock *preheader = nullptr; ///< unique predecessor outside the loop
    BasicBlock *header = nullptr;    ///< loop entry block
    std::vector<BasicBlock *> blocks; ///< all blocks in the loop (incl. header)
    BasicBlock *exit = nullptr;      ///< unique block the loop exits to

    /** True if @p bb is one of the loop's blocks. */
    bool
    contains(const BasicBlock *bb) const
    {
        for (const auto *b : blocks) {
            if (b == bb)
                return true;
        }
        return false;
    }
};

/** A function definition or external declaration. */
class Function : public Value
{
  public:
    Function(const FunctionType *fn_type, const PointerType *ptr_type,
             std::string name, Module *parent, bool is_external)
        : Value(Kind::Function, ptr_type, std::move(name)),
          fn_type_(fn_type), parent_(parent), external_(is_external)
    {}

    Function(const Function &) = delete;
    Function &operator=(const Function &) = delete;

    const FunctionType *functionType() const { return fn_type_; }
    Module *parent() const { return parent_; }

    /** True for declarations with no body (libc builtins, externs). */
    bool isExternal() const { return external_; }

    // --- Arguments -------------------------------------------------------
    const std::vector<std::unique_ptr<Argument>> &args() const
    {
        return args_;
    }
    Argument *arg(size_t idx) const { return args_[idx].get(); }
    size_t numArgs() const { return args_.size(); }

    /** Create the argument list from the function type. */
    void materializeArgs(const std::vector<std::string> &names = {});

    // --- Blocks -----------------------------------------------------------
    const std::vector<std::unique_ptr<BasicBlock>> &blocks() const
    {
        return blocks_;
    }
    bool hasBody() const { return !blocks_.empty(); }
    BasicBlock *entry() const
    {
        NOL_ASSERT(!blocks_.empty(), "function %s has no body",
                   name().c_str());
        return blocks_.front().get();
    }

    /** Create and append a new block. */
    BasicBlock *createBlock(const std::string &name);

    /** Append an externally built block (used by outlining). */
    BasicBlock *adoptBlock(std::unique_ptr<BasicBlock> bb);

    /** Detach @p bb (by pointer) without destroying it. */
    std::unique_ptr<BasicBlock> removeBlock(BasicBlock *bb);

    /** Index of @p bb in the block list, or -1. */
    int blockIndex(const BasicBlock *bb) const;

    /**
     * Drop the body, turning the definition into an external
     * declaration — the partitioner's "unused function removal" keeps
     * declarations so canonical function addresses stay aligned across
     * the mobile and server binaries.
     */
    void
    stripBody()
    {
        blocks_.clear();
        loops_.clear();
        external_ = true;
    }

    // --- Loop metadata ----------------------------------------------------
    const std::vector<LoopMeta> &loops() const { return loops_; }
    std::vector<LoopMeta> &loops() { return loops_; }
    void addLoop(LoopMeta meta) { loops_.push_back(std::move(meta)); }

    /** Loop whose name is @p name, or nullptr. */
    const LoopMeta *loopByName(const std::string &name) const;

  private:
    const FunctionType *fn_type_;
    Module *parent_;
    bool external_;
    std::vector<std::unique_ptr<Argument>> args_;
    std::vector<std::unique_ptr<BasicBlock>> blocks_;
    std::vector<LoopMeta> loops_;
};

} // namespace nol::ir

#endif // NOL_IR_FUNCTION_HPP
