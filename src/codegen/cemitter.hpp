/**
 * @file
 * Lowers a typed IR module to a single C translation unit whose
 * execution is observationally identical to the interpreter: same
 * outputs, same guest memory traffic, and the same sequence of
 * SimMachine::charge calls (cost accounting is replayed
 * per-instruction-occurrence, in original order, through run-length-
 * encoded charge tables flushed at every host interaction point).
 */
#ifndef NOL_CODEGEN_CEMITTER_HPP
#define NOL_CODEGEN_CEMITTER_HPP

#include <string>
#include <vector>

#include "ir/datalayout.hpp"
#include "ir/module.hpp"

namespace nol::codegen {

/** A module lowered to C, plus the side tables the host needs. */
struct LoweredModule {
    /** The complete C translation unit. */
    std::string source;
    /** Content digest of source + compile flags (artifact cache key). */
    std::string digest;
    /** Call-site table: external direct calls and indirect calls, in
     *  emission order; generated code refers to sites by index. */
    std::vector<const ir::Instruction *> callSites;
    /** MachineAsm site table (indexed like callSites). */
    std::vector<const ir::Instruction *> asmSites;
    /** Module globals in emission order (ctx->globals index space). */
    std::vector<const ir::GlobalVariable *> globals;
    /** Module functions in emission order (fn table index space;
     *  externals occupy a NULL slot in the generated table). */
    std::vector<const ir::Function *> functions;
};

/** Lower @p module under effective ABI @p dl. Deterministic. */
LoweredModule emitModule(const ir::Module &module, const ir::DataLayout &dl);

/** FNV-1a-64 hex digest helper (exposed for tests). */
std::string contentDigest(const std::string &text);

} // namespace nol::codegen

#endif // NOL_CODEGEN_CEMITTER_HPP
