/**
 * @file
 * Partitioner (paper Sec. 3.3) + server-specific optimization (Sec.
 * 3.4). Consumes the *unified* module and the selected targets and
 * produces the two offloading-enabled modules of Fig. 1:
 *
 *  - the MOBILE module: whole program, with every call site of a
 *    target rewritten to the offload stub `nol.offload.<target>` (the
 *    runtime's dynamic estimator decides per invocation between local
 *    execution and offloading — the paper's isProfitable branch);
 *  - the SERVER module: target functions and everything they reach;
 *    all other function bodies stripped (unused function removal), all
 *    remotable I/O call sites rewritten to their r_* remote versions
 *    (remote I/O manager), and function-pointer uses counted for the
 *    translation-overhead model (function pointer mapping).
 *
 * Loop targets are outlined into functions first, so the server
 * dispatch (the runtime's listenClient equivalent) only ever invokes
 * functions.
 */
#ifndef NOL_COMPILER_PARTITIONER_HPP
#define NOL_COMPILER_PARTITIONER_HPP

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "compiler/targetselector.hpp"
#include "ir/module.hpp"

namespace nol::compiler {

/** Prefix of the mobile-side offload stubs. */
extern const char *const kOffloadStubPrefix;

/** One partitioned offload target. */
struct PartitionedTarget {
    std::string name;       ///< target function name (post-outlining)
    bool wasLoop = false;   ///< originated as a loop candidate
};

/** Result of partitioning. */
struct PartitionResult {
    std::unique_ptr<ir::Module> mobileModule;
    std::unique_ptr<ir::Module> serverModule;
    std::vector<PartitionedTarget> targets;

    // Table 4 statistics.
    size_t serverFunctionsKept = 0;   ///< "offloaded functions"
    size_t totalFunctions = 0;        ///< user functions in the program
    size_t remoteOutputSites = 0;     ///< printf → r_printf rewrites
    size_t remoteInputSites = 0;      ///< fread/fgetc → r_* rewrites
    size_t functionPointerUses = 0;   ///< indirect call sites kept on server
    size_t callSitesRewritten = 0;    ///< mobile stub insertions

    /** Function-pointer translation map (Sec. 3.4): names of functions
     *  whose address may flow to an indirect call executed on the
     *  server, shrunk by points-to from the conservative "every
     *  address-taken function" baseline. Field-sensitive points-to
     *  resolves tables stored inside structs per slot, so a dispatch
     *  through slot k no longer drags in the other slots' callees. */
    std::set<std::string> fptrMap;
    /** Size of the conservative baseline map (all address-taken). */
    size_t fptrMapConservative = 0;
};

/** Partitioning knobs. */
struct PartitionOptions {
    /** Resolve server indirect-call sites with the field-sensitive
     *  solver (default); false reproduces the legacy pipeline. */
    bool fieldSensitive = true;
};

/** Targets materialized as functions (loops outlined). */
struct OutlinedTargets {
    std::vector<PartitionedTarget> targets;
    std::vector<ir::Function *> fns;
};

/**
 * Phase A (before memory unification): outline every selected loop
 * target into its own function, mutating @p module. Loop candidates
 * that cannot be outlined are dropped with a warning.
 */
OutlinedTargets outlineTargets(ir::Module &module,
                               const SelectionResult &selection);

/**
 * Phase B (after memory unification): clone the unified @p module into
 * the mobile and server modules and apply the per-side transforms.
 */
PartitionResult partitionModule(ir::Module &module,
                                const OutlinedTargets &outlined,
                                const PartitionOptions &options = {});

} // namespace nol::compiler

#endif // NOL_COMPILER_PARTITIONER_HPP
