#include "analysis/partitionverifier.hpp"

#include "analysis/footprint.hpp"
#include "analysis/taint.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"

namespace nol::analysis {

namespace {

using support::DiagSeverity;
using support::Diagnostic;
using support::DiagnosticEngine;

void
checkStructural(const ir::Module &module, DiagnosticEngine &engine)
{
    for (const std::string &problem : ir::verifyModule(module)) {
        Diagnostic &diag =
            engine.report(DiagSeverity::Error, diag::kStructural,
                          "module " + module.name() + ": " + problem);
        diag.function = "";
        // ir::verifyModule prefixes function-level problems with
        // "in @<fn>: " — surface the name so repair can act on it.
        if (problem.rfind("in @", 0) == 0) {
            size_t colon = problem.find(':');
            if (colon != std::string::npos)
                diag.subject = problem.substr(4, colon - 4);
        }
    }
}

/** Resolve the dispatch roots; reports target-missing for absentees. */
std::vector<const ir::Function *>
resolveTargets(const PartitionCheckInput &input, DiagnosticEngine &engine)
{
    std::vector<const ir::Function *> roots;
    for (const std::string &name : input.targets) {
        const ir::Function *fn = input.server->functionByName(name);
        if (fn == nullptr || !fn->hasBody()) {
            Diagnostic &diag = engine.report(
                DiagSeverity::Error, diag::kTargetMissing,
                "offload target @" + name +
                    " has no body in the server module");
            diag.function = name;
            diag.subject = name;
            continue;
        }
        roots.push_back(fn);
    }
    return roots;
}

void
checkMachineSpecific(const PartitionCheckInput &input,
                     const PointsToResult &pts,
                     const std::vector<const ir::Function *> &roots,
                     DiagnosticEngine &engine)
{
    AttributeResult taint =
        machineSpecificTaint(*input.server, pts, TaintPolicy{});
    for (const ir::Function *root : roots) {
        const TaintWitness *witness = taint.witness(root);
        if (witness == nullptr)
            continue;
        Diagnostic &diag = engine.report(
            DiagSeverity::Error, diag::kMachineSpecific,
            "machine-specific instruction reachable from server dispatch "
            "root @" + root->name() + ": " + witness->reason);
        diag.function = root->name();
        diag.subject = root->name();
        diag.instruction = ir::printInst(*witness->steps.back().inst);
        diag.witness = witness->frames();
    }
}

void
checkReferencedGlobals(const PointsToResult &pts, const FunctionSet &reach,
                       DiagnosticEngine &engine)
{
    for (const auto &[gv, ref] : referencedGlobals(pts, reach)) {
        if (gv->inUva())
            continue;
        Diagnostic &diag = engine.report(
            DiagSeverity::Error, diag::kGlobalNotUva,
            "global @" + gv->name() +
                " is referenced by offloaded code but was not relocated "
                "into the UVA region");
        diag.function = ref.fn->name();
        diag.subject = gv->name();
        diag.instruction = ir::printInst(*ref.inst);
        diag.witness = {"@" + ref.fn->name() + ": references global @" +
                        gv->name() + " at '" + ir::printInst(*ref.inst) +
                        "'"};
    }
}

/**
 * Field-granular UVA check (field-sensitive mode only): for struct
 * globals whose UVA mark was limited to a field subset, every memory
 * access offloaded code can perform — the unifier's own field walk —
 * must land on a marked field. A whole-object access (unknown offset,
 * or the address escaping to an external routine) needs every field,
 * which a limited mark cannot promise. Field-insensitive verification
 * cannot see this at all — it stops at gv->inUva(), which is still
 * true for these globals.
 */
void
checkUvaFieldMarks(const PointsToResult &pts, const FunctionSet &reach,
                   DiagnosticEngine &engine)
{
    for (const auto &[key, ref] : globalFieldAccesses(pts, reach)) {
        const ir::GlobalVariable *gv = key.first;
        int32_t field = key.second;
        if (!gv->inUva() || !gv->uvaFieldLimited())
            continue; // whole-global marking covers every access
        if (field != kWholeObject && gv->uvaFields().count(field) != 0)
            continue;
        std::string what =
            field == kWholeObject
                ? "with unknown offset (whole object)"
                : "at field #" + std::to_string(field);
        Diagnostic &diag = engine.report(
            DiagSeverity::Error, diag::kGlobalNotUva,
            "global @" + gv->name() + " is accessed by offloaded code " +
                what + " but its UVA mark does not cover that field");
        diag.function = ref.fn->name();
        diag.subject = gv->name();
        diag.field = field;
        diag.instruction = ir::printInst(*ref.inst);
        diag.witness = {"@" + ref.fn->name() + ": accesses global @" +
                        gv->name() + " " + what + " at '" +
                        ir::printInst(*ref.inst) + "'"};
    }
}

/** The partitioner's fptr map must hold every function the server's
 *  indirect calls may reach (fptrTargets, the walk it was built
 *  from); entries beyond that are dead weight. */
void
checkFptrMap(const PartitionCheckInput &input, const PointsToResult &pts,
             DiagnosticEngine &engine)
{
    std::map<std::string, SiteRef> needed = fptrTargets(*input.server, pts);
    for (const auto &[name, ref] : needed) {
        if (input.fptrMap.count(name) != 0)
            continue;
        Diagnostic &diag = engine.report(
            DiagSeverity::Error, diag::kFptrMapMissing,
            "function address @" + name +
                " can flow to a server indirect call but is missing from "
                "the fptr map");
        diag.function = ref.fn->name();
        diag.subject = name;
        diag.instruction = ir::printInst(*ref.inst);
        diag.witness = {"@" + ref.fn->name() + ": '" +
                        ir::printInst(*ref.inst) + "' may call @" + name};
    }

    for (const std::string &name : input.fptrMap) {
        if (needed.count(name) != 0)
            continue;
        Diagnostic &diag = engine.report(
            DiagSeverity::Warning, diag::kFptrMapExtra,
            "fptr map entry @" + name +
                " cannot flow to any server indirect call");
        diag.function = name;
        diag.subject = name;
    }
}

void
checkStackMarks(const PartitionCheckInput &input, DiagnosticEngine &engine)
{
    for (const auto &mob_fn : input.mobile->functions()) {
        if (!mob_fn->hasBody())
            continue;
        const ir::Function *srv_fn =
            input.server->functionByName(mob_fn->name());
        if (srv_fn == nullptr || !srv_fn->hasBody())
            continue; // stripped on the server side
        // Clones share block/instruction structure; walk in lockstep.
        size_t blocks = std::min(mob_fn->blocks().size(),
                                 srv_fn->blocks().size());
        for (size_t b = 0; b < blocks; ++b) {
            const ir::BasicBlock &mbb = *mob_fn->blocks()[b];
            const ir::BasicBlock &sbb = *srv_fn->blocks()[b];
            size_t insts = std::min(mbb.size(), sbb.size());
            for (size_t i = 0; i < insts; ++i) {
                const ir::Instruction *mi = mbb.inst(i);
                const ir::Instruction *si = sbb.inst(i);
                if (mi->op() != ir::Opcode::Alloca ||
                    si->op() != ir::Opcode::Alloca) {
                    continue;
                }
                if (mi->uvaStack() == si->uvaStack())
                    continue;
                Diagnostic &diag = engine.report(
                    DiagSeverity::Error, diag::kStackMarkMismatch,
                    "stack-reallocation mark of '" + ir::printInst(*si) +
                        "' in @" + mob_fn->name() +
                        " differs between the mobile (" +
                        (mi->uvaStack() ? "uva" : "local") +
                        ") and server (" +
                        (si->uvaStack() ? "uva" : "local") + ") clones");
                diag.function = mob_fn->name();
                diag.subject = mob_fn->name();
                diag.instruction = ir::printInst(*si);
            }
        }
    }
}

} // namespace

void
verifyPartition(const PartitionCheckInput &input, DiagnosticEngine &engine)
{
    NOL_ASSERT(input.mobile != nullptr && input.server != nullptr,
               "verifyPartition needs both modules");
    checkStructural(*input.mobile, engine);
    checkStructural(*input.server, engine);

    std::vector<const ir::Function *> roots =
        resolveTargets(input, engine);

    PointsToResult pts = analyzePointsTo(
        *input.server, {.fieldSensitive = input.fieldSensitive});
    checkMachineSpecific(input, pts, roots, engine);
    PointsToResult::Reachable reach = pts.reachableFrom(roots);
    checkReferencedGlobals(pts, reach.fns, engine);
    // Conservative (imprecise) marking never limits fields.
    if (input.fieldSensitive && reach.precise)
        checkUvaFieldMarks(pts, reach.fns, engine);
    checkFptrMap(input, pts, engine);
    checkStackMarks(input, engine);
}

} // namespace nol::analysis
