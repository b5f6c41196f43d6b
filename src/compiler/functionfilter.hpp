/**
 * @file
 * Function filter (paper Sec. 3.1): rules machine-specific tasks out of
 * the offload-candidate set. A function or loop is machine specific if
 * it (transitively) contains an assembly instruction, a system call, an
 * unknown external call, or an I/O instruction — except I/O calls the
 * remote I/O manager (Sec. 3.4) can execute remotely, which stay
 * offloadable when the optimization is enabled.
 *
 * The classification is the analysis layer's machine-specificity
 * taint over the call-site rule: indirect calls taint through their
 * resolved target sets (or the address-taken fallback when a pointer
 * escapes tracking) — I/O reached through a function pointer is never
 * remotable — and every machine-specific verdict carries a witness
 * call chain down to the seeding instruction.
 */
#ifndef NOL_COMPILER_FUNCTIONFILTER_HPP
#define NOL_COMPILER_FUNCTIONFILTER_HPP

#include <set>
#include <string>

#include "analysis/taint.hpp"
#include "ir/module.hpp"

namespace nol::compiler {

/** Filter configuration. */
struct FilterConfig {
    /** Treat remotable I/O builtins as offloadable (paper Sec. 3.4). */
    bool remoteIoEnabled = true;
};

/** Classification of every function in a module. */
class FilterResult
{
  public:
    /** True if @p fn may NOT be offloaded. */
    bool isMachineSpecific(const ir::Function *fn) const
    {
        return taint_.has(fn);
    }

    /** True if @p loop of @p fn may NOT be offloaded. The verdict is
     *  per function: a block is tainted only if *this* function's body
     *  seeds or reaches machine-specific code there. */
    bool loopIsMachineSpecific(const ir::Function *fn,
                               const ir::LoopMeta &loop) const;

    /** Human-readable reason @p fn was filtered ("" if offloadable). */
    std::string reason(const ir::Function *fn) const;

    /** Provenance of the verdict: the call chain from @p fn down to
     *  the machine-specific instruction; nullptr if offloadable. */
    const analysis::TaintWitness *witness(const ir::Function *fn) const
    {
        return taint_.witness(fn);
    }

    /** All machine-specific functions. */
    const std::set<const ir::Function *> &tainted() const
    {
        return taint_.members();
    }

  private:
    friend FilterResult runFunctionFilter(const ir::Module &,
                                          const FilterConfig &);
    analysis::AttributeResult taint_;
};

/** Classify every function of @p module. */
FilterResult runFunctionFilter(const ir::Module &module,
                               const FilterConfig &config = {});

} // namespace nol::compiler

#endif // NOL_COMPILER_FUNCTIONFILTER_HPP
