/**
 * @file
 * The IR interpreter — the stand-in for "back-end compiler + CPU" in
 * the reproduction, and the reference ExecBackend every other engine
 * is differentially tested against. Each machine runs its own backend
 * over its own module clone; all memory traffic goes through the
 * machine's paged memory with the *effective* ABI (native, or the
 * unified mobile ABI after memory unification), which is precisely how
 * the paper's address-size conversion and endianness translation
 * behave.
 *
 * Each function is decoded on its first call into a flat op array
 * that the interpreter owns, keyed by function: result and operand
 * slots, constants and image addresses materialized into slots,
 * integer widths, access kinds, field offsets, index strides, alloca
 * indices and successor block indices. The IR itself carries no
 * numbering, because later passes rewrite the module. A frame is a
 * slot vector plus an alloca vector.
 */
#ifndef NOL_INTERP_INTERP_HPP
#define NOL_INTERP_INTERP_HPP

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "interp/execbackend.hpp"
#include "interp/loader.hpp"
#include "interp/rtval.hpp"
#include "sim/simmachine.hpp"

namespace nol::interp {

/** Optional observation hooks (profiling; interpreter-only). */
struct InterpHooks {
    /**
     * A loop edge of @p fn was taken into block @p to, from @p from
     * (nullptr at function entry): @p to is the exit block of one of
     * @p fn's loops, or the header of one entered from its preheader.
     * Back edges and every other block entry go unreported.
     */
    std::function<void(const ir::Function *, const ir::BasicBlock *to,
                       const ir::BasicBlock *from)>
        loopEdge;

    /** Function call boundary: @p entering true on entry. */
    std::function<void(const ir::Function *, bool entering)> callBoundary;
};

/** Executes IR functions on one simulated machine, one at a time. */
class Interp final : public ExecBackend
{
  public:
    Interp(sim::SimMachine &machine, const ir::Module &module,
           const ProgramImage &image, ExecEnv &env);
    ~Interp() override;

    /** Run @p fn with @p args; returns its return value. */
    RtVal call(ir::Function *fn, const std::vector<RtVal> &args) override;

    InterpHooks &hooks() { return hooks_; }

  private:
    struct Decoded;
    struct Frame;

    Decoded &decoded(ir::Function *fn);
    std::unique_ptr<Decoded> decode(ir::Function &fn) const;

    /** Run @p fn; argument i is args[arg_slots[i]], or args[i] when
     *  @p arg_slots is null. */
    RtVal execFunction(ir::Function *fn, const RtVal *args,
                       const uint32_t *arg_slots, size_t nargs);

    InterpHooks hooks_;
    uint64_t sp_;
    std::unordered_map<const ir::Function *, std::unique_ptr<Decoded>>
        decoded_;
    std::vector<std::unique_ptr<Frame>> frames_; ///< one per call depth
};

} // namespace nol::interp

#endif // NOL_INTERP_INTERP_HPP
