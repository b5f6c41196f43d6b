/**
 * @file
 * Flow-insensitive Andersen-style points-to analysis over the
 * offloading IR, with call-graph-driven interprocedural propagation
 * (indirect call edges are resolved from the function-pointer sets as
 * they grow).
 *
 * The solver is *field-sensitive* by default: an abstract object
 * carries an optional field dimension derived from the typed FieldAddr
 * instruction, so a struct whose slot 0 holds a function pointer and
 * whose slot 1 holds a data pointer keeps the two flows apart — the
 * memory unifier ships only the fields the offloaded code can reach
 * and the partitioner resolves function-pointer tables stored *inside*
 * structs to per-slot callee sets. Untyped address arithmetic
 * (ptrtoint + add) and nested aggregates fall back to a conservative
 * field collapse: the whole-object slot over-approximates every field,
 * loads from a field consult the whole-object slot, and loads through
 * the whole-object slot consult every field. The field-insensitive
 * solver is kept alive behind PointsToOptions::fieldSensitive=false as
 * the differential oracle — field-sensitive results must be a subset
 * of the insensitive ones on every workload.
 *
 * Abstract memory objects are globals, functions, heap allocation
 * sites (one per call of a builtin the builtin table marks as
 * allocating, u_* twins included) and stack slots (one per alloca). A
 * distinguished Unknown object models values the analysis cannot
 * track (returns of unmodeled externals, loads through Unknown);
 * its presence in a set makes the consumer fall back to the paper's
 * conservative treatment.
 *
 * Consumers: the function filter (precise indirect-call taint with
 * witnesses), the memory unifier (shrinking the referenced-global set,
 * paper Sec. 3.2), the partitioner (shrinking the function-pointer
 * map, Sec. 3.4) and the post-partition offload-safety verifier.
 */
#ifndef NOL_ANALYSIS_POINTSTO_HPP
#define NOL_ANALYSIS_POINTSTO_HPP

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "ir/module.hpp"

namespace nol::analysis {

class PointsToSolver;

/** Field index meaning "the whole object / unknown offset". */
inline constexpr int32_t kWholeObject = -1;

/** One abstract memory object (optionally one field of it). */
struct MemObject {
    enum class Kind {
        Global,   ///< a GlobalVariable
        Function, ///< a Function (code address)
        Heap,     ///< one allocation site (the allocator call inst)
        Stack,    ///< one alloca instruction
        Unknown,  ///< anything the analysis cannot model
    };

    Kind kind = Kind::Unknown;
    const ir::Value *value = nullptr; ///< null for Unknown
    /** Field subobject (FieldAddr index), or kWholeObject for the base
     *  address / a collapsed (untyped or variable) offset. The whole-
     *  object slot over-approximates every field slot. */
    int32_t field = kWholeObject;

    bool operator<(const MemObject &o) const
    {
        if (kind != o.kind)
            return kind < o.kind;
        if (value != o.value)
            return value < o.value;
        return field < o.field;
    }
    bool operator==(const MemObject &o) const
    {
        return kind == o.kind && value == o.value && field == o.field;
    }

    bool isUnknown() const { return kind == Kind::Unknown; }
    bool hasField() const { return field != kWholeObject; }

    /** Same object, addressed at @p f. */
    MemObject withField(int32_t f) const { return {kind, value, f}; }

    /** Same object, whole-object slot. */
    MemObject base() const { return {kind, value, kWholeObject}; }

    /** True if @p o names (a field of) the same base object. */
    bool sameBase(const MemObject &o) const
    {
        return kind == o.kind && value == o.value;
    }

    /** "global @board", "global @cfg.f1", "fn @evalPawn", ... */
    std::string str() const;

    static MemObject unknown() { return {}; }
    static MemObject global(const ir::GlobalVariable *gv)
    {
        return {Kind::Global, gv, kWholeObject};
    }
    static MemObject function(const ir::Function *fn)
    {
        return {Kind::Function, fn, kWholeObject};
    }
    static MemObject heap(const ir::Instruction *site)
    {
        return {Kind::Heap, site, kWholeObject};
    }
    static MemObject stack(const ir::Instruction *slot)
    {
        return {Kind::Stack, slot, kWholeObject};
    }
};

/** A may-point-to set. */
using PtsSet = std::set<MemObject>;

/** Solver configuration. */
struct PointsToOptions {
    /** Track per-field object contents (default). False selects the
     *  legacy field-insensitive solver — kept as the differential
     *  oracle: sensitive results must be a subset of insensitive. */
    bool fieldSensitive = true;
};

/** Solver statistics (reported by bench_extensions). */
struct PointsToStats {
    size_t nodes = 0;       ///< values with a (possibly empty) set
    size_t objects = 0;     ///< distinct abstract objects (incl. fields)
    size_t baseObjects = 0; ///< distinct base objects (fields merged)
    size_t fieldSlots = 0;  ///< objects with a concrete field index
    size_t totalEdges = 0;  ///< sum of all set sizes
    size_t maxSetSize = 0;  ///< largest single set
    size_t iterations = 0;  ///< fixpoint passes over the module
    bool fieldSensitive = false; ///< mode the solver ran in
};

/** Immutable result of one points-to run over one module. */
class PointsToResult
{
  public:
    /** May-point-to set of @p v (empty for untracked values). */
    const PtsSet &pointsTo(const ir::Value *v) const;

    /** Every object with recorded contents (escape analysis walks
     *  this to find stack slots whose address was stored somewhere). */
    const std::map<MemObject, PtsSet> &allContents() const
    {
        return contents_;
    }

    /** Resolved targets of one indirect call site. */
    struct CalleeSet {
        std::set<const ir::Function *> fns;
        /** False if the pointer may hold values the analysis lost
         *  track of — the consumer must fall back to "any
         *  address-taken function". */
        bool complete = true;
    };

    /** Targets of CallIndirect @p site (must be a CallIndirect). */
    CalleeSet indirectCallees(const ir::Instruction *site) const;

    /** What one call site may reach, split into defined and external
     *  callees. */
    struct SiteCallees {
        std::vector<const ir::Function *> defined;
        std::vector<const ir::Function *> external;
        bool indirect = false;
        /** False if the address-taken fallback applied. */
        bool resolved = true;
    };

    /**
     * The call-site rule every client reads (taint, the unifier's and
     * the verifier's footprints, the fptr map): a direct call reaches
     * its callee; an indirect call reaches its points-to callee set,
     * or every address-taken function when the site is unresolved.
     * Empty for an instruction that is not a call.
     */
    SiteCallees siteCallees(const ir::Instruction &site) const;

    /** Address-taken functions (the conservative fallback universe). */
    const std::set<const ir::Function *> &addressTaken() const
    {
        return address_taken_;
    }

    /** Functions reachable from @p roots over siteCallees edges. */
    struct Reachable {
        std::set<const ir::Function *> fns;
        /** False if an unresolved indirect call was reachable and the
         *  address-taken fallback was applied. */
        bool precise = true;
    };
    Reachable reachableFrom(const std::vector<const ir::Function *> &roots) const;

    const PointsToStats &stats() const { return stats_; }

    /** Mode the solver ran in. */
    bool fieldSensitive() const { return options_.fieldSensitive; }

  private:
    friend class PointsToSolver;
    friend PointsToResult analyzePointsTo(const ir::Module &module,
                                          const PointsToOptions &options);

    PointsToOptions options_;
    std::map<const ir::Value *, PtsSet> pts_;
    std::map<MemObject, PtsSet> contents_;
    std::set<const ir::Function *> address_taken_;
    PointsToStats stats_;
    PtsSet empty_;
};

/** Run the analysis on @p module. */
PointsToResult analyzePointsTo(const ir::Module &module,
                               const PointsToOptions &options = {});

} // namespace nol::analysis

#endif // NOL_ANALYSIS_POINTSTO_HPP
