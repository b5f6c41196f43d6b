#include "analysis/taint.hpp"

#include "frontend/builtins.hpp"
#include "ir/printer.hpp"

namespace nol::analysis {

namespace {

/** Why a call that may reach external @p callee (through a function
 *  pointer if @p indirect) is machine specific; "" if it is not. */
std::string
externalTaint(const ir::Function &callee, bool indirect,
              const TaintPolicy &policy)
{
    frontend::BuiltinName found = frontend::lookupBuiltin(callee.name());
    if (found.row == nullptr ||
        (found.twin != frontend::Twin::None && !policy.allowRuntimeNames))
        return "unknown external library call (" + callee.name() + ")";
    if (found.twin == frontend::Twin::Uva)
        return ""; // UVA allocator twin (post-unification modules)
    std::string name = found.row->name;
    switch (found.row->io) {
      case frontend::IoClass::None:
        return "";
      case frontend::IoClass::Assembly:
        return "assembly instruction";
      case frontend::IoClass::System:
        return "system call";
      case frontend::IoClass::Interactive:
        return "interactive I/O (" + name + ")";
      case frontend::IoClass::RemoteOutput:
      case frontend::IoClass::RemoteInput:
        if (!policy.remoteIoEnabled)
            return "I/O instruction (" + name + ")";
        // Remote I/O (Sec. 3.4) only retargets direct call sites.
        if (indirect)
            return "I/O through a function pointer (" + name + ")";
        return "";
    }
    return "";
}

/**
 * Why @p inst is machine specific by itself; "" if it is not. Every
 * external callee a call site may reach is classified through the
 * builtin table, whether the call is direct or indirect. Defined
 * callees taint the caller through propagation; an unresolved indirect
 * call is conservatively machine specific.
 */
std::string
instructionTaint(const ir::Instruction &inst, const TaintPolicy &policy,
                 const PointsToResult &pts)
{
    if (inst.op() == ir::Opcode::MachineAsm)
        return "assembly instruction";
    if (inst.op() == ir::Opcode::Call && inst.callee() == nullptr)
        return "call with no callee";
    PointsToResult::SiteCallees callees = pts.siteCallees(inst);
    if (!callees.resolved)
        return "indirect call with unresolved targets";
    for (const ir::Function *callee : callees.external) {
        std::string why = externalTaint(*callee, callees.indirect, policy);
        if (!why.empty())
            return why;
    }
    return "";
}

} // namespace

std::vector<std::string>
TaintWitness::frames() const
{
    std::vector<std::string> out;
    for (size_t i = 0; i < steps.size(); ++i) {
        const TaintStep &step = steps[i];
        std::string frame = "@" + step.fn->name() + ": ";
        if (i + 1 == steps.size()) {
            frame += "'";
            frame += ir::printInst(*step.inst);
            frame += "': ";
            frame += step.note;
        } else {
            frame += step.note;
            frame += " at '";
            frame += ir::printInst(*step.inst);
            frame += "'";
        }
        out.push_back(std::move(frame));
    }
    return out;
}

std::string
TaintWitness::str() const
{
    std::string out;
    for (const std::string &frame : frames()) {
        if (!out.empty())
            out += "; ";
        out += frame;
    }
    return out;
}

const TaintWitness *
AttributeResult::witness(const ir::Function *fn) const
{
    auto it = witnesses_.find(fn);
    return it == witnesses_.end() ? nullptr : &it->second;
}

const std::set<const ir::BasicBlock *> &
AttributeResult::blocks(const ir::Function *fn) const
{
    auto it = blocks_.find(fn);
    return it == blocks_.end() ? empty_blocks_ : it->second;
}

AttributeResult
machineSpecificTaint(const ir::Module &module, const PointsToResult &pts,
                     const TaintPolicy &policy)
{
    AttributeResult result;

    // Pass 1: per-instruction seeds.
    for (const auto &fn : module.functions()) {
        for (const auto &bb : fn->blocks()) {
            for (const auto &inst : bb->insts()) {
                std::string why = instructionTaint(*inst, policy, pts);
                if (why.empty())
                    continue;
                result.blocks_[fn.get()].insert(bb.get());
                if (result.witnesses_.count(fn.get()) != 0)
                    continue;
                TaintWitness witness;
                witness.reason = why;
                witness.steps.push_back({fn.get(), inst.get(), why});
                result.witnesses_.emplace(fn.get(), std::move(witness));
                result.members_.insert(fn.get());
            }
        }
    }

    // Pass 2: bottom-up fixpoint over the defined callees of each
    // call site.
    bool changed = true;
    while (changed) {
        changed = false;
        for (const auto &fn : module.functions()) {
            if (result.witnesses_.count(fn.get()) != 0)
                continue;
            for (const auto &bb : fn->blocks()) {
                for (const auto &inst : bb->insts()) {
                    PointsToResult::SiteCallees callees =
                        pts.siteCallees(*inst);
                    for (const ir::Function *callee : callees.defined) {
                        auto it = result.witnesses_.find(callee);
                        if (it == result.witnesses_.end())
                            continue;
                        TaintWitness witness;
                        witness.reason = it->second.reason;
                        witness.steps.push_back(
                            {fn.get(), inst.get(),
                             (callees.indirect ? "may reach @"
                                               : "calls @") +
                                 callee->name()});
                        witness.steps.insert(witness.steps.end(),
                                             it->second.steps.begin(),
                                             it->second.steps.end());
                        result.witnesses_.emplace(fn.get(),
                                                  std::move(witness));
                        result.members_.insert(fn.get());
                        changed = true;
                        break;
                    }
                    if (result.witnesses_.count(fn.get()) != 0)
                        break;
                }
                if (result.witnesses_.count(fn.get()) != 0)
                    break;
            }
        }
    }

    // Pass 3: block-level marks for call sites reaching members (the
    // loop filter needs per-block verdicts inside untainted callers
    // too, e.g. a loop around a call to a tainted helper).
    for (const auto &fn : module.functions()) {
        for (const auto &bb : fn->blocks()) {
            for (const auto &inst : bb->insts()) {
                for (const ir::Function *callee :
                     pts.siteCallees(*inst).defined) {
                    if (result.members_.count(callee) != 0) {
                        result.blocks_[fn.get()].insert(bb.get());
                        break;
                    }
                }
            }
        }
    }

    return result;
}

} // namespace nol::analysis
