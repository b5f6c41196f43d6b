/**
 * @file
 * Memory unification code generation (paper Sec. 3.2). Transforms the
 * whole module — before partitioning — so that both binaries observe
 * identical memory:
 *
 *  - heap allocation replacement: malloc/free family → u_malloc/u_free
 *    on the unified virtual address (UVA) heap;
 *  - referenced global variable allocation: globals the offloaded code
 *    may touch move into the UVA global region (same address on both
 *    machines, vs. the deliberately different machine-local bases);
 *  - memory layout realignment: every struct's layout is pinned to the
 *    mobile ABI (Fig. 4's padding insertion);
 *  - address size conversion + endianness translation: the module's
 *    unified ABI records the mobile pointer width and byte order, and
 *    every memory access on either machine follows it.
 */
#ifndef NOL_COMPILER_MEMUNIFIER_HPP
#define NOL_COMPILER_MEMUNIFIER_HPP

#include <set>
#include <string>
#include <vector>

#include "arch/archspec.hpp"
#include "ir/callgraph.hpp"
#include "ir/module.hpp"

namespace nol::compiler {

/** Memory unification knobs. */
struct UnifyOptions {
    /** Use the field-sensitive points-to solver for the referenced-
     *  global refinement and record per-field UVA marks on struct
     *  globals (default). False reproduces the legacy field-
     *  insensitive pipeline exactly — kept as the differential
     *  oracle. */
    bool fieldSensitive = true;
};

/** What the unifier did (Table 4 bookkeeping). */
struct UnifyStats {
    size_t allocSitesReplaced = 0;
    size_t structsRealigned = 0;
    size_t uvaGlobals = 0;
    size_t totalGlobals = 0;
    /** Size of the call-graph-closure referenced-global set (the
     *  paper's conservative Sec. 3.2 algorithm) — the baseline the
     *  points-to refinement is measured against in bench_extensions. */
    size_t uvaGlobalsConservative = 0;
    /** Static UVA page footprint (loader packing replayed over the
     *  marked globals). Every page shaved here is a page the fleet
     *  never prefetches; the field-insensitive baseline comes from an
     *  oracle compile with fieldSensitive off (bench_extensions and
     *  the FieldSensitive tests). */
    size_t uvaPages = 0;
    /** Struct globals whose UVA mark was limited to a field subset. */
    size_t uvaFieldLimitedGlobals = 0;
    /** Alloca slots marked for unified-space reallocation (their
     *  address escapes an offload-reachable frame). */
    size_t stackSlotsUnified = 0;
    /** Mode the refinement ran in (UnifyOptions::fieldSensitive). */
    bool fieldSensitive = false;
    bool addressSizeConversion = false; ///< mobile/server widths differ
    bool endiannessTranslation = false; ///< mobile/server orders differ
};

/**
 * Unify @p module for a @p mobile / @p server machine pair. @p targets
 * are the selected offload-target functions (after loop outlining);
 * globals reachable from them move to UVA space.
 */
UnifyStats unifyMemory(ir::Module &module,
                       const std::vector<ir::Function *> &targets,
                       const arch::ArchSpec &mobile,
                       const arch::ArchSpec &server,
                       const UnifyOptions &options = {});

} // namespace nol::compiler

#endif // NOL_COMPILER_MEMUNIFIER_HPP
