#include "compiler/functionfilter.hpp"

namespace nol::compiler {

std::string
FilterResult::reason(const ir::Function *fn) const
{
    const analysis::TaintWitness *witness = taint_.witness(fn);
    if (witness == nullptr)
        return "";
    if (witness->steps.size() == 1)
        return witness->reason;
    // Propagated: lead with the first call edge, end with the seed.
    return witness->steps.front().note + ": " + witness->reason;
}

bool
FilterResult::loopIsMachineSpecific(const ir::Function *fn,
                                    const ir::LoopMeta &loop) const
{
    const std::set<const ir::BasicBlock *> &tainted_blocks =
        taint_.blocks(fn);
    for (const ir::BasicBlock *bb : loop.blocks) {
        if (tainted_blocks.count(bb) != 0)
            return true;
    }
    return false;
}

FilterResult
runFunctionFilter(const ir::Module &module, const FilterConfig &config)
{
    analysis::TaintPolicy policy;
    policy.remoteIoEnabled = config.remoteIoEnabled;
    // Pre-partition modules carry the original builtin names; the r_*/
    // u_* runtime twins only appear after unification/partitioning.
    policy.allowRuntimeNames = false;

    analysis::PointsToResult pts = analysis::analyzePointsTo(module);
    FilterResult result;
    result.taint_ = analysis::machineSpecificTaint(module, pts, policy);
    return result;
}

} // namespace nol::compiler
