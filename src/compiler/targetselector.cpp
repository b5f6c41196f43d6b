#include "compiler/targetselector.hpp"

#include <algorithm>
#include <set>

namespace nol::compiler {

const Candidate *
SelectionResult::byName(const std::string &name) const
{
    for (const Candidate &cand : candidates) {
        if (cand.name == name)
            return &cand;
    }
    return nullptr;
}

namespace {

/** Functions directly called from within @p loop's blocks. */
std::vector<ir::Function *>
loopCallees(const ir::LoopMeta &loop)
{
    std::set<ir::Function *> seen;
    std::vector<ir::Function *> out;
    for (const ir::BasicBlock *bb : loop.blocks) {
        for (const auto &inst : bb->insts()) {
            if (inst->op() == ir::Opcode::Call &&
                seen.insert(inst->callee()).second) {
                out.push_back(inst->callee());
            }
        }
    }
    return out;
}

} // namespace

SelectionResult
selectTargets(ir::Module &module, const profile::ProfileResult &prof,
              const FilterResult &filter, const ir::CallGraph &cg,
              const EstimatorParams &params)
{
    SelectionResult result;

    // Build the candidate list from profiled regions.
    for (const auto &[name, region] : prof.regions) {
        Candidate cand;
        cand.name = name;
        cand.isLoop = region.isLoop;
        cand.fn = module.functionByName(region.fn->name());
        if (cand.fn == nullptr || !cand.fn->hasBody())
            continue;
        if (!region.isLoop && cand.fn->name() == "main")
            continue; // main drives the app; never offloaded wholesale
        if (region.isLoop) {
            cand.loopName = name;
            if (cand.fn->loopByName(name) == nullptr)
                continue; // loop metadata vanished (transformed module)
        }

        if (region.isLoop) {
            const ir::LoopMeta *loop = cand.fn->loopByName(name);
            cand.machineSpecific =
                filter.loopIsMachineSpecific(cand.fn, *loop);
            if (cand.machineSpecific)
                cand.filterReason = "loop contains machine-specific code";
        } else {
            cand.machineSpecific = filter.isMachineSpecific(cand.fn);
            cand.filterReason = filter.reason(cand.fn);
        }
        cand.estimate =
            decision::evaluate(region.execSeconds(), region.memBytes(),
                               region.invocations, params);
        result.candidates.push_back(std::move(cand));
    }

    // Profitable, machine-independent candidates by descending gain;
    // functions win ties against loops (coarser granularity amortizes
    // better), then stable by name.
    std::vector<Candidate *> order;
    for (Candidate &cand : result.candidates) {
        if (cand.machineSpecific) {
            cand.rejectReason = "machine specific: " + cand.filterReason;
            continue;
        }
        if (prof.totalNs > 0 &&
            prof.coverage(cand.name) < kMinCoverage) {
            cand.rejectReason = "not a heavy task";
            continue;
        }
        if (!cand.estimate.profitable()) {
            cand.rejectReason = "not profitable";
            continue;
        }
        order.push_back(&cand);
    }
    std::sort(order.begin(), order.end(),
              [](const Candidate *a, const Candidate *b) {
                  if (a->estimate.gain != b->estimate.gain)
                      return a->estimate.gain > b->estimate.gain;
                  if (a->isLoop != b->isLoop)
                      return !a->isLoop;
                  return a->name < b->name;
              });

    // Greedy non-overlapping selection.
    std::set<ir::Function *> covered;
    std::map<ir::Function *, std::vector<const ir::LoopMeta *>>
        selected_loops;
    for (Candidate *cand : order) {
        if (covered.count(cand->fn) != 0) {
            cand->rejectReason = "nested inside a selected target";
            continue;
        }
        if (cand->isLoop) {
            const ir::LoopMeta *loop = cand->fn->loopByName(cand->loopName);
            // Skip if nested within an already-selected loop of the
            // same function.
            bool nested = false;
            for (const ir::LoopMeta *sel : selected_loops[cand->fn]) {
                for (ir::BasicBlock *bb : loop->blocks)
                    nested |= sel->contains(bb);
            }
            if (nested) {
                cand->rejectReason = "nested inside a selected loop";
                continue;
            }
            cand->selected = true;
            selected_loops[cand->fn].push_back(loop);
            auto callees = loopCallees(*loop);
            auto reach = cg.reachableFrom(
                {callees.begin(), callees.end()});
            covered.insert(reach.begin(), reach.end());
        } else {
            if (!selected_loops[cand->fn].empty()) {
                cand->rejectReason = "contains an already-selected loop";
                continue;
            }
            cand->selected = true;
            auto reach = cg.reachableFrom({cand->fn});
            covered.insert(reach.begin(), reach.end());
        }
        result.targets.push_back(*cand);
    }
    return result;
}

} // namespace nol::compiler
