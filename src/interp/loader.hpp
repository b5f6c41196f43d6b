/**
 * @file
 * Program loader: assigns addresses to globals and functions of a
 * module on a specific machine and serializes global initializers into
 * that machine's memory honoring the effective ABI (native, or the
 * unified mobile ABI after memory unification).
 *
 * UVA-resident globals ("referenced global variable allocation",
 * paper Sec. 3.2) are placed deterministically in the shared UVA
 * global region (sim::kUvaGlobalBase) so the mobile and server images
 * agree on addresses; machine-local globals land at each machine's own
 * (different!) base.
 */
#ifndef NOL_INTERP_LOADER_HPP
#define NOL_INTERP_LOADER_HPP

#include <map>
#include <memory>

#include "ir/datalayout.hpp"
#include "ir/module.hpp"
#include "sim/simmachine.hpp"

namespace nol::interp {

/** Canonical code-address region (function "addresses"). */
constexpr uint64_t kCodeBase = 0x0100'0000ull;
constexpr uint64_t kCodeStride = 0x100ull;

/** Loaded-program address maps for one (module, machine) pair. */
struct ProgramImage {
    std::map<const ir::GlobalVariable *, uint64_t> globalAddr;
    std::map<const ir::Function *, uint64_t> fnAddr;
    std::map<uint64_t, ir::Function *> fnByAddr;

    /** Address of @p gv (asserts presence). */
    uint64_t addressOf(const ir::GlobalVariable *gv) const;

    /** Canonical address of @p fn (asserts presence). */
    uint64_t addressOf(const ir::Function *fn) const;

    /** Function at canonical address @p addr, or nullptr. */
    ir::Function *functionAt(uint64_t addr) const;
};

/**
 * Effective ABI of a module on a machine: the unified mobile ABI when
 * the module was memory-unified, the machine's native ABI otherwise.
 */
ir::DataLayout effectiveLayout(const ir::Module &module,
                               const sim::SimMachine &machine);

/**
 * The loader's global packing: place @p gv at the next slot after
 * @p cursor, aligned to max(natural alignment, 8) under @p dl, and
 * advance @p cursor past it. Returns @p gv's address. Globals are
 * packed in module order, UVA-resident ones from sim::kUvaGlobalBase
 * and the rest from the machine's own global base.
 */
uint64_t packGlobal(uint64_t &cursor, const ir::GlobalVariable &gv,
                    const ir::DataLayout &dl);

/**
 * Lay out @p module on @p machine and write global initializers.
 *
 * Function addresses are *canonical* (identical for the mobile and
 * server clones, keyed by function name/order) so function pointers
 * stored into shared memory remain meaningful across machines; the
 * runtime's function-pointer map charges the translation overhead on
 * the server side (paper Sec. 3.4).
 *
 * @param write_uva_content if false, UVA-resident globals get
 *        addresses but their initial bytes are NOT written (the server
 *        receives them via prefetch/copy-on-demand instead).
 */
ProgramImage loadProgram(const ir::Module &module, sim::SimMachine &machine,
                         bool write_uva_content = true);

} // namespace nol::interp

#endif // NOL_INTERP_LOADER_HPP
