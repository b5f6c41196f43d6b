/**
 * @file
 * Dominator tree and natural-loop detection computed from the CFG.
 * The front end already records structured LoopMeta during lowering;
 * this analysis re-derives loops from first principles so transformed
 * IR (and hand-built IR in tests) can be checked against it.
 */
#ifndef NOL_IR_LOOPINFO_HPP
#define NOL_IR_LOOPINFO_HPP

#include <cstdint>
#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "ir/function.hpp"

namespace nol::ir {

/** One natural loop discovered from back edges. */
struct NaturalLoop {
    BasicBlock *header = nullptr;
    std::set<BasicBlock *> blocks;        ///< includes the header
    std::set<BasicBlock *> exitTargets;   ///< blocks outside, jumped to from inside
    std::vector<BasicBlock *> latches;    ///< sources of back edges
};

/**
 * Dominance over one function's CFG (Cooper, Harvey and Kennedy, "A
 * Simple, Fast Dominance Algorithm"), indexed by block position. As in
 * LLVM, a block the entry cannot reach is dominated by every block.
 */
class DominatorTree
{
  public:
    explicit DominatorTree(const Function &fn);

    /** Immediate dominator of @p bb; nullptr for the entry and for
     *  blocks the entry cannot reach. */
    BasicBlock *idom(const BasicBlock *bb) const;

    /** True if every path from the entry to @p b passes through @p a
     *  (reflexive). */
    bool dominates(const BasicBlock *a, const BasicBlock *b) const;

    /** True if the entry reaches @p bb. */
    bool reachable(const BasicBlock *bb) const
    {
        return idom_[indexOf(bb)] >= 0;
    }

  private:
    uint32_t indexOf(const BasicBlock *bb) const;

    const Function &fn_;
    std::unordered_map<const BasicBlock *, uint32_t> index_;
    /** By block position: the immediate dominator's position, the
     *  entry's own for the entry, -1 where the entry does not reach. */
    std::vector<int32_t> idom_;
};

/** Natural loops of @p fn, outermost first within each header. */
std::vector<NaturalLoop> findNaturalLoops(const Function &fn);

/** Predecessor map of @p fn's CFG. */
std::map<const BasicBlock *, std::vector<BasicBlock *>>
predecessors(const Function &fn);

} // namespace nol::ir

#endif // NOL_IR_LOOPINFO_HPP
