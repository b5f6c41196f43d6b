/**
 * @file
 * Default external-call environment: implements every MiniC builtin
 * against the owning machine's memory, console, input script, heap and
 * file system. The offload runtime subclasses it on the server side to
 * route u_malloc to the UVA heap and r_* calls over the network
 * (remote I/O, paper Sec. 3.4).
 */
#ifndef NOL_INTERP_EXTERNALS_HPP
#define NOL_INTERP_EXTERNALS_HPP

#include <string>
#include <vector>

#include "interp/interp.hpp"
#include "sim/heapalloc.hpp"

namespace nol::interp {

/** Executes builtins locally on the machine that owns the interpreter. */
class DefaultEnv : public ExecEnv
{
  public:
    DefaultEnv() = default;

    /** Heap used by u_malloc/u_free (the UVA heap; set by the runtime). */
    void setUvaHeap(sim::HeapAllocator *heap) { uva_heap_ = heap; }

    RtVal callExternal(ExecBackend &interp, const ir::Function &callee,
                       const ir::Instruction &call,
                       std::vector<RtVal> &args) override;

    /** Format @p fmt with @p args (printf engine), reading guest strings. */
    std::string formatPrintf(ExecBackend &interp, const std::string &fmt,
                             const std::vector<RtVal> &args,
                             size_t first_arg);

    /**
     * Run scanf over @p input starting at @p pos, storing converted
     * values through guest pointers. Returns conversions performed.
     */
    int64_t runScanf(ExecBackend &interp, const std::string &fmt,
                     const std::vector<RtVal> &args, size_t first_arg,
                     const std::string &input, size_t &pos);

  protected:
    /** malloc from the UVA heap (@p uva) or the machine's native heap;
     *  exhaustion is a guest fatal error. */
    uint64_t guestMalloc(ExecBackend &interp, uint64_t size, bool uva);

    void guestFree(ExecBackend &interp, uint64_t addr, bool uva);

  private:
    sim::HeapAllocator *uva_heap_ = nullptr;
    uint64_t rng_state_ = 12345;
};

} // namespace nol::interp

#endif // NOL_INTERP_EXTERNALS_HPP
