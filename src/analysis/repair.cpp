#include "analysis/repair.hpp"

#include <algorithm>

#include "support/logging.hpp"

namespace nol::analysis {

namespace {

using support::DiagSeverity;
using support::Diagnostic;
using support::DiagnosticEngine;

/** One verify pass over the current state of @p input. */
DiagnosticEngine
verifyOnce(const RepairInput &input)
{
    DiagnosticEngine engine;
    verifyPartition(input.check(), engine);
    return engine;
}

/** Apply the marks of one global-not-uva finding to @p gv. */
void
promoteGlobal(ir::GlobalVariable *gv, const Diagnostic &diag)
{
    if (!gv->inUva()) {
        gv->setInUva(true);
        return;
    }
    // Already in UVA: a field-limited mark was too narrow.
    if (!gv->uvaFieldLimited())
        return;
    if (diag.field >= 0)
        gv->addUvaField(diag.field);
    else
        gv->clearUvaFields(); // whole-object access: lift the limit
}

/** Demote @p name from the dispatch roots (target runs locally only). */
bool
demoteTarget(std::vector<std::string> &targets, const std::string &name)
{
    auto it = std::find(targets.begin(), targets.end(), name);
    if (it == targets.end())
        return false;
    targets.erase(it);
    return true;
}

/** OR-align the uvaStack marks of @p name's clones (lockstep walk). */
bool
alignStackMarks(ir::Module &mobile, ir::Module &server,
                const std::string &name)
{
    ir::Function *mob_fn = mobile.functionByName(name);
    ir::Function *srv_fn = server.functionByName(name);
    if (mob_fn == nullptr || srv_fn == nullptr || !mob_fn->hasBody() ||
        !srv_fn->hasBody()) {
        return false;
    }
    bool changed = false;
    size_t blocks =
        std::min(mob_fn->blocks().size(), srv_fn->blocks().size());
    for (size_t b = 0; b < blocks; ++b) {
        ir::BasicBlock &mbb = *mob_fn->blocks()[b];
        ir::BasicBlock &sbb = *srv_fn->blocks()[b];
        size_t insts = std::min(mbb.size(), sbb.size());
        for (size_t i = 0; i < insts; ++i) {
            ir::Instruction *mi = mbb.inst(i);
            ir::Instruction *si = sbb.inst(i);
            if (mi->op() != ir::Opcode::Alloca ||
                si->op() != ir::Opcode::Alloca ||
                mi->uvaStack() == si->uvaStack()) {
                continue;
            }
            mi->setUvaStack(true);
            si->setUvaStack(true);
            changed = true;
        }
    }
    return changed;
}

/** Apply one round of fixes; true if anything changed. */
bool
applyRepairs(const RepairInput &input, const DiagnosticEngine &engine,
             RepairReport &report)
{
    bool changed = false;
    auto act = [&](const Diagnostic &diag, const std::string &detail) {
        report.actions.push_back(
            {diag.code, diag.subject, diag.field, detail});
        changed = true;
    };

    for (const Diagnostic &diag : engine.diagnostics()) {
        if (diag.code == diag::kGlobalNotUva) {
            bool promoted = false;
            bool widened = false;
            for (ir::Module *module : {input.mobile, input.server}) {
                ir::GlobalVariable *gv = module->globalByName(diag.subject);
                if (gv == nullptr)
                    continue;
                bool was_uva = gv->inUva();
                bool was_limited = gv->uvaFieldLimited();
                size_t marks = gv->uvaFields().size();
                promoteGlobal(gv, diag);
                promoted |= gv->inUva() != was_uva;
                widened |= gv->uvaFieldLimited() != was_limited ||
                           gv->uvaFields().size() != marks;
            }
            if (promoted) {
                ++report.globalsPromoted;
                act(diag, "promoted global @" + diag.subject +
                              " into the UVA region");
            } else if (widened) {
                ++report.fieldsPromoted;
                act(diag, diag.field >= 0
                              ? "widened UVA field marks of @" +
                                    diag.subject + " by field #" +
                                    std::to_string(diag.field)
                              : "lifted the UVA field limit of @" +
                                    diag.subject);
            }
        } else if (diag.code == diag::kFptrMapMissing) {
            if (!input.fptrMap->insert(diag.subject).second)
                continue;
            ++report.fptrAdded;
            act(diag, "added @" + diag.subject + " to the fptr map");
        } else if (diag.code == diag::kFptrMapExtra) {
            if (input.fptrMap->erase(diag.subject) == 0)
                continue;
            ++report.fptrDropped;
            act(diag, "dropped dead fptr map entry @" + diag.subject);
        } else if (diag.code == diag::kMachineSpecific ||
                   diag.code == diag::kTargetMissing) {
            if (!demoteTarget(*input.targets, diag.subject))
                continue;
            ++report.targetsDemoted;
            act(diag, "demoted target @" + diag.subject +
                          " to local-only execution");
        } else if (diag.code == diag::kStackMarkMismatch) {
            if (!alignStackMarks(*input.mobile, *input.server,
                                 diag.subject)) {
                continue;
            }
            ++report.stackMarksAligned;
            act(diag, "aligned stack-reallocation marks of @" +
                          diag.subject);
        } else if (diag.code == diag::kStructural) {
            if (diag.subject.empty())
                continue; // module-level problem: not repairable
            // The message names the malformed module; strip the
            // function's body there (a declaration is always well
            // formed). Any target that loses its body this way is
            // demoted by the next round's target-missing finding.
            for (ir::Module *module : {input.mobile, input.server}) {
                if (diag.message.find("module " + module->name() + ":") ==
                    std::string::npos) {
                    continue;
                }
                ir::Function *fn = module->functionByName(diag.subject);
                if (fn == nullptr || !fn->hasBody())
                    continue;
                fn->stripBody();
                ++report.bodiesStripped;
                act(diag, "stripped malformed body of @" + diag.subject +
                              " in " + module->name());
            }
        }
    }
    return changed;
}

} // namespace

RepairReport
repairPartition(const RepairInput &input)
{
    NOL_ASSERT(input.mobile != nullptr && input.server != nullptr &&
                   input.targets != nullptr && input.fptrMap != nullptr,
               "repairPartition needs a fully wired RepairInput");
    RepairReport report;
    for (;;) {
        ++report.iterations;
        DiagnosticEngine engine = verifyOnce(input);
        if (engine.empty()) {
            report.converged = true;
            report.remaining = std::move(engine);
            return report;
        }
        if (report.iterations >= kMaxRepairIterations ||
            !applyRepairs(input, engine, report)) {
            // Out of budget, or nothing left we know how to fix —
            // report the surviving diagnostics.
            report.remaining = std::move(engine);
            return report;
        }
    }
}

} // namespace nol::analysis
