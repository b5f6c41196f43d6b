#include "compiler/memunifier.hpp"

#include "analysis/footprint.hpp"
#include "frontend/builtins.hpp"
#include "interp/loader.hpp"
#include "ir/datalayout.hpp"
#include "sim/pagedmemory.hpp"

namespace nol::compiler {

namespace {

/** Collect globals referenced by @p fn (operands + nested in calls). */
void
collectGlobals(const ir::Function &fn,
               std::set<const ir::GlobalVariable *> &out)
{
    for (const auto &bb : fn.blocks()) {
        for (const auto &inst : bb->insts()) {
            for (const ir::Value *op : inst->operands()) {
                if (op->valueKind() == ir::Value::Kind::Global)
                    out.insert(static_cast<const ir::GlobalVariable *>(op));
            }
        }
    }
}

/** Globals referenced (transitively) by a global initializer. */
void
collectInitGlobals(const ir::Initializer &init,
                   std::set<const ir::GlobalVariable *> &out)
{
    if (init.kind == ir::Initializer::Kind::Global && init.global != nullptr)
        out.insert(init.global);
    for (const auto &elem : init.elems)
        collectInitGlobals(elem, out);
}

/** Close @p referenced over initializer cross-references: a UVA global
 *  whose initializer points at another global drags that one in too
 *  (both loaders must serialize the same address into UVA space). */
void
closeOverInitializers(std::set<const ir::GlobalVariable *> &referenced)
{
    bool grew = true;
    while (grew) {
        grew = false;
        std::set<const ir::GlobalVariable *> extra;
        for (const ir::GlobalVariable *gv : referenced)
            collectInitGlobals(gv->init(), extra);
        for (const ir::GlobalVariable *gv : extra)
            grew |= referenced.insert(gv).second;
    }
}

/** Alloca slots whose address escapes their frame: stored into any
 *  object, passed to a call, or returned. */
std::set<const ir::Instruction *>
escapedStackSlots(const ir::Module &module,
                  const analysis::PointsToResult &pts)
{
    std::set<const ir::Instruction *> escaped;
    auto note = [&](const analysis::PtsSet &set) {
        for (const analysis::MemObject &obj : set) {
            if (obj.kind == analysis::MemObject::Kind::Stack) {
                escaped.insert(
                    static_cast<const ir::Instruction *>(obj.value));
            }
        }
    };
    for (const auto &[obj, set] : pts.allContents()) {
        (void)obj;
        note(set);
    }
    for (const auto &fn : module.functions()) {
        for (const auto &bb : fn->blocks()) {
            for (const auto &inst : bb->insts()) {
                bool passes_pointers =
                    inst->op() == ir::Opcode::Call ||
                    inst->op() == ir::Opcode::CallIndirect ||
                    inst->op() == ir::Opcode::Ret;
                if (!passes_pointers)
                    continue;
                for (const ir::Value *op : inst->operands())
                    note(pts.pointsTo(op));
            }
        }
    }
    return escaped;
}

/** Pack @p referenced with the loader's UVA packing and return the
 *  page footprint — the static count of 4 KiB pages the UVA global
 *  region would span. */
size_t
uvaPageFootprint(const ir::Module &module, const ir::DataLayout &dl,
                 const std::set<const ir::GlobalVariable *> &referenced)
{
    uint64_t cursor = sim::kUvaGlobalBase;
    for (const auto &gv : module.globals()) {
        if (referenced.count(gv.get()) != 0)
            interp::packGlobal(cursor, *gv, dl);
    }
    return static_cast<size_t>(
        (cursor - sim::kUvaGlobalBase + sim::kPageSize - 1) /
        sim::kPageSize);
}

} // namespace

UnifyStats
unifyMemory(ir::Module &module, const std::vector<ir::Function *> &targets,
            const arch::ArchSpec &mobile, const arch::ArchSpec &server,
            const UnifyOptions &options)
{
    UnifyStats stats;
    stats.fieldSensitive = options.fieldSensitive;

    // 1. Memory layout realignment: pin every struct to the mobile
    //    layout (the mobile device is the offloading default, Fig. 4).
    ir::DataLayout mobile_dl{mobile};
    for (ir::StructType *st : module.types().structs()) {
        if (st->hasExplicitLayout())
            continue;
        st->setExplicitLayout(mobile_dl.naturalLayout(st));
        ++stats.structsRealigned;
    }

    // 2. Unified ABI: address size conversion and endianness
    //    translation are implied by pinning the module to the mobile
    //    ArchSpec — both interpreters then access memory with mobile
    //    pointer width and byte order.
    module.setUnifiedAbi(mobile);
    stats.addressSizeConversion = mobile.pointerSize != server.pointerSize;
    stats.endiannessTranslation = mobile.endian != server.endian;

    // 3. Heap allocation replacement: every allocation site moves to
    //    the UVA allocator ("the compiler replaces all the
    //    allocation/deallocation sites because a server may access an
    //    object not on the UVA space due to imprecise alias analysis").
    //    Snapshot the function list first: declaring u_* functions
    //    grows module.functions() and would invalidate iterators.
    std::vector<ir::Function *> fns;
    for (const auto &fn : module.functions())
        fns.push_back(fn.get());
    for (ir::Function *fn : fns) {
        for (const auto &bb : fn->blocks()) {
            for (const auto &inst : bb->insts()) {
                if (inst->op() != ir::Opcode::Call)
                    continue;
                const frontend::Builtin *row =
                    frontend::findBuiltin(inst->callee()->name());
                if (row == nullptr || row->uvaTwin == nullptr)
                    continue;
                inst->setCallee(
                    frontend::declareTwin(module, row->uvaTwin,
                                          inst->callee()));
                ++stats.allocSitesReplaced;
            }
        }
    }

    // 4. Referenced global variable allocation: globals the offloaded
    //    code may touch move to UVA space. The conservative baseline
    //    (the paper's Sec. 3.2 algorithm) takes every global that
    //    appears syntactically in any call-graph-reachable function;
    //    points-to refines that to globals whose *address* can actually
    //    reach an instruction of a points-to-reachable function —
    //    which both shrinks the set (helpers only reachable through
    //    resolved function pointers no longer drag their globals in)
    //    and catches address flows the syntactic walk misses (a global
    //    passed into a target by pointer argument).
    ir::CallGraph cg(module);
    std::set<ir::Function *> cg_reach = cg.reachableFrom(targets);
    std::set<const ir::GlobalVariable *> conservative;
    for (const ir::Function *fn : cg_reach)
        collectGlobals(*fn, conservative);
    closeOverInitializers(conservative);
    stats.uvaGlobalsConservative = conservative.size();

    analysis::PointsToResult pts = analysis::analyzePointsTo(
        module, {.fieldSensitive = options.fieldSensitive});
    std::vector<const ir::Function *> roots(targets.begin(),
                                            targets.end());
    analysis::PointsToResult::Reachable reach = pts.reachableFrom(roots);
    std::set<const ir::GlobalVariable *> referenced;
    if (reach.precise) {
        for (const auto &[gv, ref] :
             analysis::referencedGlobals(pts, reach.fns))
            referenced.insert(gv);
        closeOverInitializers(referenced);
    } else {
        referenced = conservative;
    }
    stats.uvaPages = uvaPageFootprint(module, mobile_dl, referenced);

    stats.totalGlobals = module.globals().size();
    for (const auto &gv : module.globals()) {
        if (referenced.count(gv.get()) != 0) {
            gv->setInUva(true);
            ++stats.uvaGlobals;
        }
    }

    // Per-field UVA marks: a struct global whose accesses all carry a
    // concrete field index gets its mark limited to those fields. The
    // placement is untouched (the loader still maps the whole global,
    // keeping addresses bit-identical to insensitive mode); the marks
    // feed the verifier's field-level check and the repair loop.
    if (options.fieldSensitive && reach.precise) {
        std::map<const ir::GlobalVariable *, std::set<int32_t>> fields;
        std::set<const ir::GlobalVariable *> whole;
        for (const auto &[key, ref] :
             analysis::globalFieldAccesses(pts, reach.fns)) {
            if (key.second == analysis::kWholeObject)
                whole.insert(key.first);
            else
                fields[key.first].insert(key.second);
        }
        for (const auto &gv : module.globals()) {
            if (!gv->inUva() || !gv->valueType()->isStruct() ||
                whole.count(gv.get()) != 0) {
                continue;
            }
            auto it = fields.find(gv.get());
            if (it == fields.end())
                continue; // never accessed (initializer-dragged): whole
            gv->setUvaFields(it->second);
            ++stats.uvaFieldLimitedGlobals;
        }
    }

    // 5. Stack reallocation marks: an alloca whose address escapes an
    //    offload-reachable frame must live at the same address on both
    //    machines; mark it here, before the partitioner clones the
    //    module, so the mobile and server clones agree by construction.
    std::set<const ir::Instruction *> escaped =
        escapedStackSlots(module, pts);
    std::set<const ir::Function *> mark_in;
    if (reach.precise) {
        mark_in = reach.fns;
    } else {
        mark_in.insert(cg_reach.begin(), cg_reach.end());
    }
    for (const auto &fn : module.functions()) {
        if (mark_in.count(fn.get()) == 0)
            continue;
        for (const auto &bb : fn->blocks()) {
            for (const auto &inst : bb->insts()) {
                if (inst->op() != ir::Opcode::Alloca ||
                    escaped.count(inst.get()) == 0) {
                    continue;
                }
                inst->setUvaStack(true);
                ++stats.stackSlotsUnified;
            }
        }
    }
    return stats;
}

} // namespace nol::compiler
