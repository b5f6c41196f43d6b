#include "analysis/pointsto.hpp"

#include "frontend/builtins.hpp"
#include "ir/callgraph.hpp"
#include "ir/printer.hpp"
#include "ir/type.hpp"

namespace nol::analysis {

std::string
MemObject::str() const
{
    std::string base;
    switch (kind) {
      case Kind::Global:
        base = "global @" + value->name();
        break;
      case Kind::Function:
        return "fn @" + value->name();
      case Kind::Heap:
        base = "heap site '" +
               ir::printInst(*static_cast<const ir::Instruction *>(value)) +
               "'";
        break;
      case Kind::Stack:
        base = "stack slot '" +
               ir::printInst(*static_cast<const ir::Instruction *>(value)) +
               "'";
        break;
      case Kind::Unknown:
        return "<unknown>";
      default:
        return "<invalid>";
    }
    if (hasField())
        base += " field #" + std::to_string(field);
    return base;
}

/** The worklist-free fixpoint solver (module-sized passes). */
class PointsToSolver
{
  public:
    PointsToSolver(const ir::Module &module, PointsToResult &result)
        : module_(module), result_(result),
          sensitive_(result.options_.fieldSensitive)
    {}

    void
    run()
    {
        seed();
        bool changed = true;
        while (changed) {
            changed = false;
            ++result_.stats_.iterations;
            for (const auto &fn : module_.functions()) {
                for (const auto &bb : fn->blocks()) {
                    for (const auto &inst : bb->insts())
                        changed |= transfer(*fn, *inst);
                }
            }
        }
    }

  private:
    PtsSet &pts(const ir::Value *v) { return result_.pts_[v]; }
    PtsSet &contents(const MemObject &obj) { return result_.contents_[obj]; }

    /** Contents of @p obj's exact slot, without materializing it. */
    const PtsSet &
    contentsConst(const MemObject &obj) const
    {
        auto it = result_.contents_.find(obj);
        return it == result_.contents_.end() ? result_.empty_ : it->second;
    }

    /** dst ⊇ src; true if dst grew. */
    static bool
    addAll(PtsSet &dst, const PtsSet &src)
    {
        bool grew = false;
        for (const MemObject &obj : src)
            grew |= dst.insert(obj).second;
        return grew;
    }

    static bool
    add(PtsSet &dst, const MemObject &obj)
    {
        return dst.insert(obj).second;
    }

    /** Union of contents over every slot of @p obj's base object — what
     *  a load through the whole-object slot may observe. Materialized
     *  into a fresh set so callers can mutate the contents map while
     *  consuming it. */
    PtsSet
    collectAllSlots(const MemObject &obj) const
    {
        PtsSet out;
        MemObject lo = obj.base();
        for (auto it = result_.contents_.lower_bound(lo);
             it != result_.contents_.end() && it->first.sameBase(lo); ++it)
            out.insert(it->second.begin(), it->second.end());
        return out;
    }

    /** The fields (kWholeObject included) with recorded contents on
     *  @p obj's base — snapshot for slot-preserving copies. */
    std::vector<int32_t>
    slotsOf(const MemObject &obj) const
    {
        std::vector<int32_t> out;
        MemObject lo = obj.base();
        for (auto it = result_.contents_.lower_bound(lo);
             it != result_.contents_.end() && it->first.sameBase(lo); ++it)
            out.push_back(it->first.field);
        return out;
    }

    void
    seed()
    {
        // Using a global or a function as an operand yields its
        // address; stored function pointers and global cross-references
        // in initializers become object contents.
        for (const auto &gv : module_.globals()) {
            add(pts(gv.get()), MemObject::global(gv.get()));
            seedInit(MemObject::global(gv.get()), gv->valueType(),
                     gv->init());
        }
        for (const auto &fn : module_.functions())
            add(pts(fn.get()), MemObject::function(fn.get()));
    }

    /** Seed initializer-held addresses into @p obj. In field-sensitive
     *  mode a struct aggregate at the whole-object level distributes
     *  its elements into per-field slots (one level deep — nested
     *  aggregates stay in their field's slot); arrays and already-
     *  fielded objects keep everything in the current slot. */
    void
    seedInit(const MemObject &obj, const ir::Type *type,
             const ir::Initializer &init)
    {
        if (init.kind == ir::Initializer::Kind::Global &&
            init.global != nullptr) {
            add(contents(obj), MemObject::global(init.global));
        }
        if (init.kind == ir::Initializer::Kind::Function &&
            init.function != nullptr) {
            add(contents(obj), MemObject::function(init.function));
        }
        if (init.kind != ir::Initializer::Kind::Aggregate)
            return;
        const ir::StructType *st =
            (sensitive_ && !obj.hasField() && type != nullptr &&
             type->isStruct())
                ? static_cast<const ir::StructType *>(type)
                : nullptr;
        for (size_t i = 0; i < init.elems.size(); ++i) {
            if (st != nullptr && i < st->numFields()) {
                seedInit(obj.withField(static_cast<int32_t>(i)),
                         st->field(i).type, init.elems[i]);
            } else {
                seedInit(obj, nullptr, init.elems[i]);
            }
        }
    }

    bool
    transfer(const ir::Function &fn, const ir::Instruction &inst)
    {
        (void)fn;
        using Op = ir::Opcode;
        switch (inst.op()) {
          case Op::Alloca:
            return add(pts(&inst), MemObject::stack(&inst));
          case Op::Load: {
            bool grew = false;
            // Copy to tolerate pts(&inst) aliasing pts(op0) growth.
            PtsSet addr = pts(inst.operand(0));
            for (const MemObject &obj : addr) {
                if (obj.isUnknown()) {
                    grew |= addAll(pts(&inst), contents(obj));
                    grew |= add(pts(&inst), MemObject::unknown());
                } else if (!sensitive_) {
                    grew |= addAll(pts(&inst), contents(obj));
                } else if (obj.hasField()) {
                    // A field slot may also hold values written through
                    // the whole-object (unknown-offset) slot.
                    grew |= addAll(pts(&inst), contents(obj));
                    grew |= addAll(pts(&inst), contents(obj.base()));
                } else {
                    // Whole-object load: any field's contents.
                    grew |= addAll(pts(&inst), collectAllSlots(obj));
                }
            }
            return grew;
          }
          case Op::Store: {
            bool grew = false;
            PtsSet addr = pts(inst.operand(1));
            const PtsSet value = pts(inst.operand(0));
            for (const MemObject &obj : addr)
                grew |= addAll(contents(obj), value);
            return grew;
          }
          case Op::FieldAddr: {
            if (!sensitive_)
                return addAll(pts(&inst), pts(inst.operand(0)));
            bool grew = false;
            PtsSet base = pts(inst.operand(0));
            for (const MemObject &obj : base) {
                if (obj.isUnknown() || obj.hasField()) {
                    // One-level sensitivity: a nested field stays in
                    // its enclosing field's slot.
                    grew |= add(pts(&inst), obj);
                } else {
                    grew |= add(pts(&inst), obj.withField(inst.fieldIndex()));
                }
            }
            return grew;
          }
          case Op::IndexAddr:
          case Op::Bitcast:
          case Op::PtrToInt:
          case Op::IntToPtr:
          case Op::Trunc:
          case Op::ZExt:
          case Op::SExt:
            // Derived addresses and int round trips stay in their slot
            // (indexing is assumed to remain within the addressed
            // subobject, the standard C-level assumption).
            return addAll(pts(&inst), pts(inst.operand(0)));
          case Op::Add:
          case Op::Sub: {
            // Pointer arithmetic through integers (p2i + offset): the
            // offset is untyped, so collapse to the whole object.
            bool grew = false;
            for (size_t i = 0; i < 2; ++i) {
                PtsSet src = pts(inst.operand(i));
                for (const MemObject &obj : src)
                    grew |= add(pts(&inst),
                                sensitive_ ? obj.base() : obj);
            }
            return grew;
          }
          case Op::Call:
            return transferCall(inst, inst.callee(), /*first_arg=*/0);
          case Op::CallIndirect:
            return transferIndirect(inst);
          default:
            return false;
        }
    }

    /** Wire one (possibly resolved-indirect) call to @p callee. */
    bool
    transferCall(const ir::Instruction &inst, const ir::Function *callee,
                 size_t first_arg)
    {
        if (callee == nullptr)
            return false;
        if (!callee->hasBody())
            return transferExternal(inst, *callee, first_arg);

        bool grew = false;
        // Arguments flow into parameters.
        size_t nargs = inst.numOperands() - first_arg;
        for (size_t i = 0; i < std::min(nargs, callee->numArgs()); ++i) {
            grew |= addAll(pts(callee->arg(i)),
                           pts(inst.operand(first_arg + i)));
        }
        // Return values flow back into the call.
        for (const auto &bb : callee->blocks()) {
            for (const auto &ret : bb->insts()) {
                if (ret->op() == ir::Opcode::Ret && ret->numOperands() == 1)
                    grew |= addAll(pts(&inst), pts(ret->operand(0)));
            }
        }
        return grew;
    }

    bool
    transferExternal(const ir::Instruction &inst, const ir::Function &callee,
                     size_t first_arg)
    {
        // The r_* remote I/O twins stay unmodeled, like any external
        // without a row of its own.
        frontend::BuiltinName found = frontend::lookupBuiltin(callee.name());
        if (found.row == nullptr || found.twin == frontend::Twin::Remote)
            return transferUnknown(inst, first_arg);
        switch (found.row->ptr) {
          case frontend::PtrEffect::Allocates:
            return add(pts(&inst), MemObject::heap(&inst));
          case frontend::PtrEffect::Reallocates: {
            // The new block inherits pointers stored in the old, slot
            // for slot.
            bool grew = add(pts(&inst), MemObject::heap(&inst));
            PtsSet old = pts(inst.operand(first_arg));
            for (const MemObject &obj : old) {
                for (int32_t f : slotsOf(obj)) {
                    MemObject src = obj.base().withField(f);
                    grew |= addAll(
                        contents(MemObject::heap(&inst).withField(f)),
                        contentsConst(src));
                }
            }
            return grew;
          }
          case frontend::PtrEffect::ReturnsArg0:
          case frontend::PtrEffect::CopiesArg1: {
            bool grew = addAll(pts(&inst), pts(inst.operand(first_arg)));
            if (found.row->ptr == frontend::PtrEffect::CopiesArg1 &&
                inst.numOperands() > first_arg + 1) {
                PtsSet dst = pts(inst.operand(first_arg));
                PtsSet src = pts(inst.operand(first_arg + 1));
                for (const MemObject &dobj : dst)
                    for (const MemObject &sobj : src)
                        grew |= transferCopy(dobj, sobj);
            }
            return grew;
          }
          case frontend::PtrEffect::None:
            // Never stores pointers into user memory and never
            // returns one we must track.
            return false;
        }
        return false;
    }

    /** Unknown external: everything reachable from the arguments
     *  escapes, and the return value is untracked. The escape is
     *  written to the whole-object slot so every field load (which
     *  always consults that slot) observes it. */
    bool
    transferUnknown(const ir::Instruction &inst, size_t first_arg)
    {
        bool grew = add(pts(&inst), MemObject::unknown());
        for (size_t i = first_arg; i < inst.numOperands(); ++i) {
            const PtsSet arg = pts(inst.operand(i));
            grew |= addAll(contents(MemObject::unknown()), arg);
            for (const MemObject &obj : arg) {
                grew |= add(contents(obj), MemObject::unknown());
                if (sensitive_ && obj.hasField())
                    grew |= add(contents(obj.base()), MemObject::unknown());
            }
        }
        return grew;
    }

    /** memcpy-style contents copy from @p sobj into @p dobj. When both
     *  sides address whole objects the copy is slot-preserving; any
     *  field offset on either side collapses the copy into the
     *  destination's whole-object slot (sound: every field load also
     *  consults it). */
    bool
    transferCopy(const MemObject &dobj, const MemObject &sobj)
    {
        if (!sensitive_)
            return addAll(contents(dobj), contentsConst(sobj));
        bool grew = false;
        if (!dobj.hasField() && !sobj.hasField()) {
            for (int32_t f : slotsOf(sobj)) {
                grew |= addAll(contents(dobj.withField(f)),
                               contentsConst(sobj.base().withField(f)));
            }
        } else {
            grew |= addAll(contents(dobj.base()), collectAllSlots(sobj));
        }
        return grew;
    }

    bool
    transferIndirect(const ir::Instruction &inst)
    {
        bool grew = false;
        PtsSet fn_ptrs = pts(inst.operand(0));
        for (const MemObject &obj : fn_ptrs) {
            if (obj.kind == MemObject::Kind::Function) {
                grew |= transferCall(
                    inst, static_cast<const ir::Function *>(obj.value),
                    /*first_arg=*/1);
            } else if (obj.isUnknown()) {
                // Unresolvable target: the call may do anything.
                grew |= add(pts(&inst), MemObject::unknown());
                for (size_t i = 1; i < inst.numOperands(); ++i) {
                    grew |= addAll(contents(MemObject::unknown()),
                                   pts(inst.operand(i)));
                }
            }
        }
        return grew;
    }

    const ir::Module &module_;
    PointsToResult &result_;
    const bool sensitive_;
};

const PtsSet &
PointsToResult::pointsTo(const ir::Value *v) const
{
    auto it = pts_.find(v);
    return it == pts_.end() ? empty_ : it->second;
}

PointsToResult::CalleeSet
PointsToResult::indirectCallees(const ir::Instruction *site) const
{
    NOL_ASSERT(site->op() == ir::Opcode::CallIndirect,
               "indirectCallees on non-indirect call '%s'",
               ir::printInst(*site).c_str());
    CalleeSet out;
    for (const MemObject &obj : pointsTo(site->operand(0))) {
        if (obj.kind == MemObject::Kind::Function)
            out.fns.insert(static_cast<const ir::Function *>(obj.value));
        else
            out.complete = false;
    }
    return out;
}

PointsToResult::SiteCallees
PointsToResult::siteCallees(const ir::Instruction &site) const
{
    SiteCallees out;
    auto add = [&](const ir::Function *fn) {
        (fn->hasBody() ? out.defined : out.external).push_back(fn);
    };
    if (site.op() == ir::Opcode::Call) {
        if (site.callee() != nullptr)
            add(site.callee());
        return out;
    }
    if (site.op() != ir::Opcode::CallIndirect)
        return out;
    out.indirect = true;
    CalleeSet resolved = indirectCallees(&site);
    out.resolved = resolved.complete;
    for (const ir::Function *fn :
         resolved.complete ? resolved.fns : address_taken_)
        add(fn);
    return out;
}

PointsToResult::Reachable
PointsToResult::reachableFrom(
    const std::vector<const ir::Function *> &roots) const
{
    Reachable out;
    std::vector<const ir::Function *> work(roots.begin(), roots.end());
    while (!work.empty()) {
        const ir::Function *fn = work.back();
        work.pop_back();
        if (!out.fns.insert(fn).second)
            continue;
        for (const auto &bb : fn->blocks()) {
            for (const auto &inst : bb->insts()) {
                SiteCallees callees = siteCallees(*inst);
                out.precise &= callees.resolved;
                work.insert(work.end(), callees.defined.begin(),
                            callees.defined.end());
                work.insert(work.end(), callees.external.begin(),
                            callees.external.end());
            }
        }
    }
    return out;
}

PointsToResult
analyzePointsTo(const ir::Module &module, const PointsToOptions &options)
{
    PointsToResult result;
    result.options_ = options;
    result.stats_.fieldSensitive = options.fieldSensitive;
    PointsToSolver(module, result).run();

    // Conservative fallback universe (includes initializer escapes).
    ir::CallGraph cg(module);
    for (const ir::Function *fn : cg.addressTaken())
        result.address_taken_.insert(fn);

    // Statistics.
    std::set<MemObject> objects;
    for (const auto &[value, set] : result.pts_) {
        (void)value;
        ++result.stats_.nodes;
        result.stats_.totalEdges += set.size();
        result.stats_.maxSetSize =
            std::max(result.stats_.maxSetSize, set.size());
        objects.insert(set.begin(), set.end());
    }
    for (const auto &[obj, set] : result.contents_) {
        objects.insert(obj);
        result.stats_.totalEdges += set.size();
        objects.insert(set.begin(), set.end());
    }
    result.stats_.objects = objects.size();
    std::set<std::pair<int, const ir::Value *>> bases;
    for (const MemObject &obj : objects) {
        bases.insert({static_cast<int>(obj.kind), obj.value});
        if (obj.hasField())
            ++result.stats_.fieldSlots;
    }
    result.stats_.baseObjects = bases.size();
    return result;
}

} // namespace nol::analysis
