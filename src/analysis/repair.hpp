/**
 * @file
 * Verifier-driven partition repair: close the loop from diagnostics
 * back into the partition. Every verifier finding carries enough
 * provenance (Diagnostic::subject + field) to *fix* the invariant it
 * proves broken instead of merely rejecting the module pair:
 *
 *  - global-not-uva        → promote the global into UVA (or widen a
 *                            field-limited mark by the missing field);
 *  - fptr-map-missing      → insert the function into the fptr map;
 *  - fptr-map-extra        → drop the dead map entry;
 *  - dispatch-machine-specific / target-missing
 *                          → demote the target to local-only execution
 *                            (remove it from the dispatch roots);
 *  - stack-mark-mismatch   → align the clones by OR-ing the marks;
 *  - structural            → strip the malformed function's body (the
 *                            cascade then demotes any target that lost
 *                            its body, which is the point: repair runs
 *                            verify → fix → re-verify to a fixpoint).
 *
 * The loop is bounded (kMaxRepairIterations); the report says
 * whether it converged to 0 diagnostics, what it changed, and hence
 * what the precision cost of shipping the repaired partition is.
 */
#ifndef NOL_ANALYSIS_REPAIR_HPP
#define NOL_ANALYSIS_REPAIR_HPP

#include <set>
#include <string>
#include <vector>

#include "analysis/partitionverifier.hpp"

namespace nol::analysis {

/** Fixpoint cap: maximum verify→repair rounds. Every action list in
 *  the corpus converges within 3; the cap only guards against an
 *  unrepairable diagnostic ping-ponging. */
constexpr size_t kMaxRepairIterations = 8;

/** The mutable half of a partition the repair loop may rewrite. */
struct RepairInput {
    ir::Module *mobile = nullptr;
    ir::Module *server = nullptr;
    /** Dispatch roots; repair may demote (erase) targets. */
    std::vector<std::string> *targets = nullptr;
    /** Function-pointer translation map; repair may extend/shrink it. */
    std::set<std::string> *fptrMap = nullptr;
    bool fieldSensitive = true;

    /** The verifier view of the current (possibly repaired) state. */
    PartitionCheckInput check() const
    {
        PartitionCheckInput in;
        in.mobile = mobile;
        in.server = server;
        in.targets = *targets;
        in.fptrMap = *fptrMap;
        in.fieldSensitive = fieldSensitive;
        return in;
    }
};

/** One applied fix. */
struct RepairAction {
    std::string code;    ///< diagnostic code that triggered the fix
    std::string subject; ///< global/function/map-entry acted on
    int32_t field = -1;  ///< field index for field-granular fixes
    std::string detail;  ///< human-readable description of the fix
};

/** What the repair loop did. */
struct RepairReport {
    /** Reached 0 diagnostics (errors *and* warnings) within the cap. */
    bool converged = false;
    /** Verify passes run (1 = already clean). */
    size_t iterations = 0;
    std::vector<RepairAction> actions;

    // Precision-cost counters: everything promoted/widened is state
    // the sharper analysis had excluded and the fleet now ships again.
    size_t globalsPromoted = 0;    ///< globals moved into UVA
    size_t fieldsPromoted = 0;     ///< field marks widened (or cleared)
    size_t fptrAdded = 0;          ///< fptr map entries inserted
    size_t fptrDropped = 0;        ///< dead fptr map entries removed
    size_t targetsDemoted = 0;     ///< targets demoted to local-only
    size_t stackMarksAligned = 0;  ///< clone mark pairs OR-aligned
    size_t bodiesStripped = 0;     ///< malformed bodies removed

    /** Diagnostics of the final verify pass (empty iff converged). */
    support::DiagnosticEngine remaining;

    size_t totalActions() const { return actions.size(); }
};

/** Run the bounded verify → repair fixpoint over @p input. */
RepairReport repairPartition(const RepairInput &input);

} // namespace nol::analysis

#endif // NOL_ANALYSIS_REPAIR_HPP
