/**
 * @file
 * What offloaded code touches, as points-to sees it: the globals it
 * references, the global fields it accesses and the function addresses
 * its indirect calls need. The memory unifier (paper Sec. 3.2) and the
 * partitioner (Sec. 3.4) build the UVA set, the per-field marks and the
 * fptr map from these walks, and the offload-safety verifier checks a
 * partition against the same walks, so the two cannot disagree about a
 * footprint. Every entry carries the first instruction witnessing it.
 */
#ifndef NOL_ANALYSIS_FOOTPRINT_HPP
#define NOL_ANALYSIS_FOOTPRINT_HPP

#include <map>
#include <set>
#include <string>
#include <utility>

#include "analysis/pointsto.hpp"

namespace nol::analysis {

/** The instruction (in its function) that witnesses an entry. */
struct SiteRef {
    const ir::Function *fn = nullptr;
    const ir::Instruction *inst = nullptr;
};

using FunctionSet = std::set<const ir::Function *>;

/** Globals whose address may reach an instruction of @p fns, as its
 *  result or as an operand. */
std::map<const ir::GlobalVariable *, SiteRef>
referencedGlobals(const PointsToResult &pts, const FunctionSet &fns);

/** One field of a global (kWholeObject: an access at unknown offset). */
using GlobalField = std::pair<const ir::GlobalVariable *, int32_t>;

/**
 * Memory accesses @p fns may perform on globals, per field: loads,
 * stores, and every pointer handed to a call site that may reach an
 * external routine, which may dereference it. A global merely
 * appearing as an operand (its address being computed) touches no
 * field yet; a defined callee's own accesses count when @p fns holds it.
 */
std::map<GlobalField, SiteRef>
globalFieldAccesses(const PointsToResult &pts, const FunctionSet &fns);

/** Functions (by name) whose address may flow to an indirect call of
 *  @p module: the entries the fptr translation map needs. */
std::map<std::string, SiteRef> fptrTargets(const ir::Module &module,
                                           const PointsToResult &pts);

} // namespace nol::analysis

#endif // NOL_ANALYSIS_FOOTPRINT_HPP
