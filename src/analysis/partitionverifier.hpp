/**
 * @file
 * Post-partition offload-safety verifier. Statically proves, on the
 * mobile/server module pair the Partitioner emitted, the invariants
 * the runtime silently relies on:
 *
 *  - structural: both clones pass ir::verifyModule;
 *  - dispatch-machine-specific: no machine-specific instruction is
 *    reachable from the server dispatch roots (the offload targets);
 *  - global-not-uva: every global the offloaded code may reference —
 *    through points-to, not just syntactically — was relocated into
 *    the UVA region (paper Sec. 3.2);
 *  - fptr-map-missing: every function address that can flow to an
 *    indirect call executed on the server is present in the
 *    function-pointer translation map (Sec. 3.4); the reverse
 *    direction (map entries that cannot flow anywhere) is a warning,
 *    since an oversized map only costs translation-table space;
 *  - stack-mark-mismatch: the mobile and server clones agree on every
 *    stack-reallocation mark.
 *
 * Each failed invariant produces a support::Diagnostic naming the
 * offending function/instruction with a witness call chain.
 */
#ifndef NOL_ANALYSIS_PARTITIONVERIFIER_HPP
#define NOL_ANALYSIS_PARTITIONVERIFIER_HPP

#include <set>
#include <string>
#include <vector>

#include "ir/module.hpp"
#include "support/diagnostic.hpp"

namespace nol::analysis {

/** Everything the verifier needs about one partition. */
struct PartitionCheckInput {
    const ir::Module *mobile = nullptr;
    const ir::Module *server = nullptr;
    /** Server dispatch roots: the offload-target function names. */
    std::vector<std::string> targets;
    /** Declared function-pointer translation map (function names). */
    std::set<std::string> fptrMap;
    /** Run the checks with the field-sensitive points-to solver and
     *  enforce per-field UVA marks on field-limited struct globals
     *  (default). Must match the mode the partition was compiled with
     *  so the verifier's needed sets mirror the compiler's. */
    bool fieldSensitive = true;
};

/** Diagnostic codes the verifier emits. */
namespace diag {
inline constexpr const char *kStructural = "structural";
inline constexpr const char *kTargetMissing = "target-missing";
inline constexpr const char *kMachineSpecific = "dispatch-machine-specific";
inline constexpr const char *kGlobalNotUva = "global-not-uva";
inline constexpr const char *kFptrMapMissing = "fptr-map-missing";
inline constexpr const char *kFptrMapExtra = "fptr-map-extra";
inline constexpr const char *kStackMarkMismatch = "stack-mark-mismatch";
} // namespace diag

/** Run every check, appending findings to @p engine. */
void verifyPartition(const PartitionCheckInput &input,
                     support::DiagnosticEngine &engine);

} // namespace nol::analysis

#endif // NOL_ANALYSIS_PARTITIONVERIFIER_HPP
