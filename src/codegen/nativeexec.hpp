/**
 * @file
 * The native-C execution backend: runs a module's compiled artifact
 * through the ExecBackend seam. The generated code charges time and
 * serves translation-cache hits itself, through pointers this class
 * keeps current; everything else (external calls, indirect dispatch,
 * misses, charges off an open run) calls back into this class, which
 * reuses the exact interpreter-side helpers and environments — the
 * engine changes, the simulation does not.
 */
#ifndef NOL_CODEGEN_NATIVEEXEC_HPP
#define NOL_CODEGEN_NATIVEEXEC_HPP

#include <memory>
#include <unordered_map>
#include <vector>

#include "codegen/abi.h"
#include "codegen/artifact.hpp"
#include "codegen/cemitter.hpp"
#include "interp/execbackend.hpp"

namespace nol::codegen {

/**
 * A module lowered and compiled, ready to attach to any (machine,
 * image, env). Sessions cache one per module so per-offload backend
 * construction (the server backend is rebuilt every offload) costs a
 * few maps, not a compile.
 */
struct PreparedModule {
    LoweredModule lowered;
    std::shared_ptr<const NativeArtifact> artifact;

    /** Compile @p lowered, or wait for its compile if one was started;
     *  nullptr when the host toolchain is unavailable (callers fall
     *  back to the interpreter). */
    static std::shared_ptr<const PreparedModule>
    prepare(LoweredModule lowered);
};

/** Executes compiled functions on one simulated machine. */
class NativeExec final : public interp::ExecBackend
{
  public:
    NativeExec(std::shared_ptr<const PreparedModule> prepared,
               sim::SimMachine &machine, const ir::Module &module,
               const interp::ProgramImage &image, interp::ExecEnv &env);

    interp::RtVal call(ir::Function *fn,
                       const std::vector<interp::RtVal> &args) override;

  private:
    interp::RtVal invoke(NolFn fn_ptr, const ir::Function *fn,
                         const std::vector<interp::RtVal> &args);
    const char *fnName(uint32_t fn_id) const;
    NolVal externalCall(uint32_t site, const ir::Function *callee,
                        NolVal *args, uint32_t n);

    /**
     * Re-derive the NolCtx fields the generated fast paths read: the
     * open-run condition (SimMachine::openComputeRun) and the
     * direct-memory gate. Runs before generated code starts and on the
     * way back from every thunk that can change the machine. The
     * charge table is the machine's own, which every pricing change
     * rebuilds in place.
     */
    void sync();

    static void chargeThunk(NolCtx *ctx, const NolChargeItem *items,
                            uint32_t n, uint32_t fn_id);
    static uint64_t loadThunk(NolCtx *ctx, uint64_t addr, uint32_t size);
    static void storeThunk(NolCtx *ctx, uint64_t addr, uint32_t size,
                           uint64_t value);
    static NolVal callExternalThunk(NolCtx *ctx, uint32_t site,
                                    NolVal *args, uint32_t n);
    static NolVal callIndirectThunk(NolCtx *ctx, uint64_t target,
                                    uint32_t site, NolVal *args,
                                    uint32_t n);
    static void machineAsmThunk(NolCtx *ctx, uint32_t site);
    [[noreturn]] static void trapThunk(NolCtx *ctx, uint32_t kind,
                                       uint32_t fn_id);

    std::shared_ptr<const PreparedModule> prepared_;
    std::vector<uint64_t> global_addrs_;
    std::vector<uint64_t> fn_addrs_;
    std::unordered_map<const ir::Function *, uint32_t> fn_index_;
    NolCtx ctx_{};
};

} // namespace nol::codegen

#endif // NOL_CODEGEN_NATIVEEXEC_HPP
