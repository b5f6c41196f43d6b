/**
 * @file
 * Machine-specificity taint (paper Sec. 3.1) over the points-to call
 * graph: the attribute is seeded on individual instructions (each seed
 * carries a reason) and propagated to (transitive) callers, recording
 * a per-function *witness* — the call chain from the function down to
 * the seeding instruction. Call sites are read through the call-site
 * rule (PointsToResult::siteCallees) and builtins through the builtin
 * table. The function filter runs it on the source module; the
 * offload-safety verifier re-runs it on the partitioned server module.
 */
#ifndef NOL_ANALYSIS_TAINT_HPP
#define NOL_ANALYSIS_TAINT_HPP

#include <map>
#include <set>
#include <string>

#include "analysis/pointsto.hpp"
#include "ir/module.hpp"

namespace nol::analysis {

/** Policy knobs of the machine-specificity classification. */
struct TaintPolicy {
    /** Remotable I/O builtins stay offloadable (paper Sec. 3.4). */
    bool remoteIoEnabled = true;
    /** Accept post-partition runtime names — r_* remote I/O twins and
     *  u_* UVA allocators — as machine independent (the verifier runs
     *  on partitioned modules where these replaced the originals). */
    bool allowRuntimeNames = true;
};

/** One frame of a witness chain. */
struct TaintStep {
    const ir::Function *fn = nullptr;
    const ir::Instruction *inst = nullptr; ///< call site or seed inst
    std::string note; ///< "calls @x" / "may reach @x" / seed reason
};

/** Call chain from a function down to the instruction that gives it
 *  the attribute; steps[0] is the function itself, the last step is
 *  the seeding instruction. */
struct TaintWitness {
    std::vector<TaintStep> steps;
    std::string reason; ///< the seed reason

    /** One rendered frame per line, outermost first. */
    std::vector<std::string> frames() const;

    /** Single-line rendering ("@a: calls @b; @b: <inst>: reason"). */
    std::string str() const;
};

/** Result of the taint propagation. */
class AttributeResult
{
  public:
    bool has(const ir::Function *fn) const
    {
        return witnesses_.count(fn) != 0;
    }

    /** Witness for @p fn, or nullptr if the attribute does not hold. */
    const TaintWitness *witness(const ir::Function *fn) const;

    const std::set<const ir::Function *> &members() const
    {
        return members_;
    }

    /** Blocks of @p fn containing an attribute-carrying instruction
     *  (a seed, or a call whose resolved callee set intersects the
     *  attribute set) — per-function loop-level precision. */
    const std::set<const ir::BasicBlock *> &blocks(const ir::Function *fn) const;

  private:
    friend AttributeResult machineSpecificTaint(const ir::Module &,
                                                const PointsToResult &,
                                                const TaintPolicy &);

    std::map<const ir::Function *, TaintWitness> witnesses_;
    std::set<const ir::Function *> members_;
    std::map<const ir::Function *, std::set<const ir::BasicBlock *>> blocks_;
    std::set<const ir::BasicBlock *> empty_blocks_;
};

/**
 * Seed every instruction of @p module that is machine specific by
 * itself — assembly, an unresolved indirect call, or a call site that
 * may reach an external the builtin table (under @p policy) does not
 * clear, directly or through a function pointer — and propagate
 * bottom-up to callers over the defined callees of each call site.
 */
AttributeResult machineSpecificTaint(const ir::Module &module,
                                     const PointsToResult &pts,
                                     const TaintPolicy &policy);

} // namespace nol::analysis

#endif // NOL_ANALYSIS_TAINT_HPP
