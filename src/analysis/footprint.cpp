#include "analysis/footprint.hpp"

namespace nol::analysis {

namespace {

/** Record @p ref for every global in @p set, keyed by @p key. */
template <typename Map, typename Key>
void
noteGlobals(Map &out, const PtsSet &set, const SiteRef &ref, Key key)
{
    for (const MemObject &obj : set) {
        if (obj.kind == MemObject::Kind::Global)
            out.emplace(key(obj), ref);
    }
}

} // namespace

std::map<const ir::GlobalVariable *, SiteRef>
referencedGlobals(const PointsToResult &pts, const FunctionSet &fns)
{
    std::map<const ir::GlobalVariable *, SiteRef> out;
    auto global = [](const MemObject &obj) {
        return static_cast<const ir::GlobalVariable *>(obj.value);
    };
    for (const ir::Function *fn : fns) {
        for (const auto &bb : fn->blocks()) {
            for (const auto &inst : bb->insts()) {
                SiteRef ref{fn, inst.get()};
                noteGlobals(out, pts.pointsTo(inst.get()), ref, global);
                for (const ir::Value *op : inst->operands())
                    noteGlobals(out, pts.pointsTo(op), ref, global);
            }
        }
    }
    return out;
}

std::map<GlobalField, SiteRef>
globalFieldAccesses(const PointsToResult &pts, const FunctionSet &fns)
{
    std::map<GlobalField, SiteRef> out;
    auto field = [](const MemObject &obj) {
        return GlobalField{
            static_cast<const ir::GlobalVariable *>(obj.value), obj.field};
    };
    for (const ir::Function *fn : fns) {
        for (const auto &bb : fn->blocks()) {
            for (const auto &inst : bb->insts()) {
                SiteRef ref{fn, inst.get()};
                if (inst->op() == ir::Opcode::Load) {
                    noteGlobals(out, pts.pointsTo(inst->operand(0)), ref,
                                field);
                } else if (inst->op() == ir::Opcode::Store) {
                    noteGlobals(out, pts.pointsTo(inst->operand(1)), ref,
                                field);
                } else {
                    PointsToResult::SiteCallees callees =
                        pts.siteCallees(*inst);
                    if (callees.resolved && callees.external.empty())
                        continue;
                    for (const ir::Value *op : inst->operands())
                        noteGlobals(out, pts.pointsTo(op), ref, field);
                }
            }
        }
    }
    return out;
}

std::map<std::string, SiteRef>
fptrTargets(const ir::Module &module, const PointsToResult &pts)
{
    std::map<std::string, SiteRef> out;
    for (const auto &fn : module.functions()) {
        for (const auto &bb : fn->blocks()) {
            for (const auto &inst : bb->insts()) {
                PointsToResult::SiteCallees callees = pts.siteCallees(*inst);
                if (!callees.indirect)
                    continue;
                SiteRef ref{fn.get(), inst.get()};
                for (const ir::Function *target : callees.defined)
                    out.emplace(target->name(), ref);
                for (const ir::Function *target : callees.external)
                    out.emplace(target->name(), ref);
            }
        }
    }
    return out;
}

} // namespace nol::analysis
