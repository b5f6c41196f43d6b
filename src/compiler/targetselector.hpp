/**
 * @file
 * Target selector (paper Sec. 3.1): combines the profiler, the function
 * filter and the static performance estimate — Equation 1
 * (decision::evaluate) applied to each profiled region — to choose the
 * offloading targets: the profitable, machine-independent hot
 * functions and loops. Nested candidates collapse to the outermost
 * profitable one (the paper picks getAITurn over its inner for_i).
 */
#ifndef NOL_COMPILER_TARGETSELECTOR_HPP
#define NOL_COMPILER_TARGETSELECTOR_HPP

#include <string>
#include <vector>

#include "compiler/functionfilter.hpp"
#include "decision/model.hpp"
#include "ir/callgraph.hpp"
#include "profile/profiler.hpp"

namespace nol::compiler {

/** Equation 1's parameters as the static estimate uses them. */
using EstimatorParams = decision::ModelParams;

/**
 * Hotness threshold: a candidate must account for at least this
 * fraction of the profiled program time to be a "heavy task" (paper
 * Sec. 3.1: the profiler *finds heavy tasks*; cold init loops are never
 * worth the offloading machinery).
 */
constexpr double kMinCoverage = 0.10;

/** One candidate's fate. */
struct Candidate {
    std::string name;
    bool isLoop = false;
    ir::Function *fn = nullptr;     ///< enclosing (or self) function
    std::string loopName;           ///< for loops
    decision::Terms estimate;       ///< the Table 3 columns
    bool machineSpecific = false;
    std::string filterReason;
    bool selected = false;
    std::string rejectReason;       ///< non-empty if considered and dropped
};

/** Selection outcome. */
struct SelectionResult {
    std::vector<Candidate> candidates; ///< every examined candidate
    std::vector<Candidate> targets;    ///< the chosen offload targets

    /** Candidate named @p name, or nullptr. */
    const Candidate *byName(const std::string &name) const;
};

/**
 * Choose offload targets for @p module from @p prof.
 * main() is never a target (it drives the whole application).
 */
SelectionResult selectTargets(ir::Module &module,
                              const profile::ProfileResult &prof,
                              const FilterResult &filter,
                              const ir::CallGraph &cg,
                              const EstimatorParams &params);

} // namespace nol::compiler

#endif // NOL_COMPILER_TARGETSELECTOR_HPP
