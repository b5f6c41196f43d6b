/**
 * @file
 * The Native Offloader compiler driver (paper Fig. 2): profiles the
 * program, filters machine-specific tasks, estimates gains, selects
 * targets, outlines loop targets, unifies memory and partitions into
 * the mobile and server modules — the full compile-time half of the
 * system.
 */
#ifndef NOL_COMPILER_DRIVER_HPP
#define NOL_COMPILER_DRIVER_HPP

#include <memory>

#include "analysis/repair.hpp"
#include "codegen/nativeexec.hpp"
#include "compiler/memunifier.hpp"
#include "compiler/partitioner.hpp"
#include "compiler/targetselector.hpp"
#include "profile/profiler.hpp"
#include "support/diagnostic.hpp"

namespace nol::compiler {

/** Compile-time configuration. */
struct CompileOptions {
    arch::ArchSpec mobileSpec; ///< defaults to the paper's ARM device
    arch::ArchSpec serverSpec; ///< defaults to the paper's x86 server
    /** Bandwidth the static estimate assumes, in Mbps (Equation 1's
     *  BW); its speed ratio R is derived from the two specs. */
    double staticBandwidthMbps = 80.0;
    FilterConfig filter;
    profile::ProfileInput profilingInput;
    /** Run memory unification and partitioning with the field-
     *  sensitive points-to solver (default); false selects the legacy
     *  field-insensitive pipeline, kept as the differential oracle. */
    bool fieldSensitiveAnalysis = true;

    CompileOptions();
};

/** Everything the compile pipeline produced. */
struct CompiledProgram {
    /** The unified module (owns the shared type context's origin). */
    std::unique_ptr<ir::Module> unified;
    PartitionResult partition;
    profile::ProfileResult profile;
    SelectionResult selection;
    UnifyStats unifyStats;
    EstimatorParams estimatorParams; ///< R and BW of the static estimate
    arch::ArchSpec mobileSpec;
    arch::ArchSpec serverSpec;
    /** The partition's modules as the native-C backend runs them, made
     *  on the first native-C run and shared by every later one. */
    std::unique_ptr<codegen::ModuleCache> nativeModules =
        std::make_unique<codegen::ModuleCache>();

    /** Convenience: names of the selected targets. */
    std::vector<std::string> targetNames() const;
};

/**
 * Run the whole compile pipeline on @p module (consumed). Programs
 * with no profitable machine-independent target still compile: the
 * mobile module is then simply the whole program (empty target list).
 */
CompiledProgram compileForOffload(std::unique_ptr<ir::Module> module,
                                  const CompileOptions &options);

/**
 * Offload-safety verification: statically prove, on the partitioned
 * module pair of @p prog, the invariants the runtime silently relies
 * on (no machine-specific instruction reachable from server dispatch,
 * every referenced global relocated into UVA, the function-pointer map
 * closed over address flows, consistent stack-reallocation marks).
 * An engine without errors means the partition is safe to ship.
 */
support::DiagnosticEngine verifyOffloadSafety(const CompiledProgram &prog);

/**
 * Verify @p prog and, when verification finds repairable invariant
 * violations, run the bounded verifier-driven repair loop *in place*:
 * globals are promoted into UVA, fptr map entries added/dropped,
 * unsafe targets demoted to local-only execution (the partition's
 * target list shrinks accordingly). The report records every action
 * and whether the loop converged to 0 diagnostics.
 */
analysis::RepairReport
repairOffloadSafety(CompiledProgram &prog);

} // namespace nol::compiler

#endif // NOL_COMPILER_DRIVER_HPP
