#include "compiler/partitioner.hpp"

#include <set>

#include "analysis/footprint.hpp"
#include "frontend/builtins.hpp"
#include "ir/callgraph.hpp"
#include "ir/outline.hpp"
#include "ir/verifier.hpp"
#include "support/logging.hpp"

namespace nol::compiler {

const char *const kOffloadStubPrefix = "nol.offload.";

OutlinedTargets
outlineTargets(ir::Module &module, const SelectionResult &selection)
{
    OutlinedTargets out;
    for (const Candidate &target : selection.targets) {
        ir::Function *target_fn = nullptr;
        bool was_loop = target.isLoop;
        if (target.isLoop) {
            const ir::LoopMeta *loop =
                target.fn->loopByName(target.loopName);
            NOL_ASSERT(loop != nullptr, "selected loop %s disappeared",
                       target.loopName.c_str());
            ir::OutlineResult check =
                ir::canOutlineLoop(*target.fn, *loop);
            if (!check.ok) {
                warn("dropping loop target %s: %s",
                     target.loopName.c_str(), check.reason.c_str());
                continue;
            }
            target_fn = ir::outlineLoop(module, *target.fn,
                                        target.loopName, target.loopName);
        } else {
            target_fn = target.fn;
        }
        PartitionedTarget pt;
        pt.name = target_fn->name();
        pt.wasLoop = was_loop;
        out.targets.push_back(pt);
        out.fns.push_back(target_fn);
    }
    ir::verifyModuleOrDie(module);
    return out;
}

PartitionResult
partitionModule(ir::Module &module, const OutlinedTargets &outlined,
                const PartitionOptions &options)
{
    PartitionResult result;
    result.targets = outlined.targets;
    for (const auto &fn : module.functions())
        result.totalFunctions += fn->hasBody() ? 1 : 0;

    ir::CloneMap mobile_map;
    result.mobileModule = module.clone(module.name() + ".mobile",
                                       mobile_map);
    ir::CloneMap server_map;
    result.serverModule = module.clone(module.name() + ".server",
                                       server_map);

    // ------------------------------------------------------------------
    // Mobile side: rewrite target call sites to offload stubs, leaving
    // call sites *inside* offloaded code untouched (they only run when
    // the whole target executes, locally or remotely).
    // ------------------------------------------------------------------
    {
        ir::Module &mob = *result.mobileModule;
        std::vector<ir::Function *> mob_targets;
        std::set<ir::Function *> target_set;
        for (ir::Function *fn : outlined.fns) {
            ir::Function *mapped = mobile_map.fn(fn);
            mob_targets.push_back(mapped);
            target_set.insert(mapped);
        }
        ir::CallGraph cg(mob);
        std::set<ir::Function *> inside = cg.reachableFrom(mob_targets);

        std::map<ir::Function *, ir::Function *> stub_for;
        for (ir::Function *target : mob_targets) {
            stub_for[target] = frontend::declareTwin(
                mob, std::string(kOffloadStubPrefix) + target->name(),
                target);
        }

        for (const auto &fn : mob.functions()) {
            if (!fn->hasBody() || inside.count(fn.get()) != 0)
                continue;
            for (const auto &bb : fn->blocks()) {
                for (const auto &inst : bb->insts()) {
                    if (inst->op() != ir::Opcode::Call)
                        continue;
                    auto it = stub_for.find(inst->callee());
                    if (it == stub_for.end())
                        continue;
                    inst->setCallee(it->second);
                    ++result.callSitesRewritten;
                }
            }
        }
        ir::verifyModuleOrDie(mob);
    }

    // ------------------------------------------------------------------
    // Server side: unused-function removal, remote I/O rewriting and
    // function-pointer accounting.
    // ------------------------------------------------------------------
    {
        ir::Module &srv = *result.serverModule;
        std::vector<ir::Function *> srv_targets;
        for (ir::Function *fn : outlined.fns)
            srv_targets.push_back(server_map.fn(fn));
        ir::CallGraph cg(srv);
        std::set<ir::Function *> keep = cg.reachableFrom(srv_targets);

        // Snapshot: declaring r_* twins below grows srv.functions().
        std::vector<ir::Function *> fns;
        for (const auto &fn : srv.functions())
            fns.push_back(fn.get());
        for (ir::Function *fn : fns) {
            if (!fn->hasBody())
                continue;
            if (keep.count(fn) == 0) {
                fn->stripBody(); // declaration remains (Fig. 3(c))
                continue;
            }
            ++result.serverFunctionsKept;
            for (const auto &bb : fn->blocks()) {
                for (const auto &inst : bb->insts()) {
                    if (inst->op() == ir::Opcode::CallIndirect) {
                        ++result.functionPointerUses;
                        continue;
                    }
                    if (inst->op() != ir::Opcode::Call ||
                        !inst->callee()->isExternal())
                        continue;
                    const frontend::Builtin *row =
                        frontend::findBuiltin(inst->callee()->name());
                    if (row == nullptr || !row->remoteIo())
                        continue;
                    inst->setCallee(
                        frontend::declareTwin(srv, row->remoteTwin(),
                                              inst->callee()));
                    if (row->io == frontend::IoClass::RemoteInput)
                        ++result.remoteInputSites;
                    else
                        ++result.remoteOutputSites;
                }
            }
        }

        // Function pointer mapping (Sec. 3.4): the translation map
        // needs one entry per function whose address may flow to an
        // indirect call that can execute here. Points-to shrinks that
        // from the conservative "every address-taken function"; a site
        // whose pointer escaped tracking falls back to the baseline.
        // Field-sensitive resolution narrows struct-held tables to the
        // slots actually dispatched through.
        analysis::PointsToResult pts = analysis::analyzePointsTo(
            srv, {.fieldSensitive = options.fieldSensitive});
        result.fptrMapConservative = pts.addressTaken().size();
        for (const auto &[name, ref] : analysis::fptrTargets(srv, pts))
            result.fptrMap.insert(name);
        ir::verifyModuleOrDie(srv);
    }

    return result;
}

} // namespace nol::compiler
