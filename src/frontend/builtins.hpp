/**
 * @file
 * The builtin table: one row per builtin (external) function MiniC
 * programs may call — libc-style allocation, formatted I/O, file
 * streams, math and string helpers. Every fact a pass needs about a
 * builtin sits in its row, and every pass reads it from here: codegen
 * declares builtins from the signature, both execution backends charge
 * the base cost, the function filter classifies the I/O class (paper
 * Sec. 3.1), points-to models the pointer effect, the memory unifier
 * swaps allocators for their u_* twins (Sec. 3.2) and the partitioner
 * rewrites remote-capable I/O to its r_* twin (Sec. 3.4).
 */
#ifndef NOL_FRONTEND_BUILTINS_HPP
#define NOL_FRONTEND_BUILTINS_HPP

#include <cstdint>
#include <string>

#include "ir/module.hpp"

namespace nol::frontend {

/** How a builtin relates to the device it runs on. */
enum class IoClass : uint8_t {
    None,         ///< machine independent: math, strings, allocation
    RemoteOutput, ///< output the server batches to the device one way
    RemoteInput,  ///< file-stream input the server fetches by round trip
    Interactive,  ///< user input: never remotable
    System,       ///< process or system state (exit, raw system calls)
    Assembly,     ///< the inline-assembly stand-in
};

/** What a builtin does to the pointers points-to analysis tracks. */
enum class PtrEffect : uint8_t {
    None,        ///< stores no pointer, returns none worth tracking
    Allocates,   ///< returns a fresh heap object
    Reallocates, ///< fresh heap object inheriting argument 0's contents
    ReturnsArg0, ///< returns its destination (argument 0)
    CopiesArg1,  ///< returns argument 0 after copying argument 1 into it
};

/** One row of the builtin table. */
struct Builtin {
    const char *name;
    /** Signature: return type, then parameters; '+' marks variadic.
     *  v void, b i8, h i16, i i32, l i64, f f32, d f64, p void*, s i8*. */
    const char *sig;
    uint32_t cost; ///< base cost units per call (per-byte parts aside)
    bool arith;    ///< cost scales with ArchSpec::arithCostScale
    IoClass io;
    PtrEffect ptr;
    const char *uvaTwin; ///< u_* UVA allocator twin, or nullptr

    /** True if the remote I/O manager has an r_* twin of this call. */
    bool remoteIo() const
    {
        return io == IoClass::RemoteOutput || io == IoClass::RemoteInput;
    }

    /** Name of the r_* remote I/O twin (only if remoteIo()). */
    std::string remoteTwin() const;
};

/** Prefix of the server-side remote I/O twins. */
extern const char *const kRemoteIoPrefix;

/** Which name of a row a lookup matched. */
enum class Twin : uint8_t {
    None,   ///< the builtin itself
    Uva,    ///< its u_* UVA allocator twin
    Remote, ///< its r_* remote I/O twin
};

/** Result of looking a callee name up in the table. */
struct BuiltinName {
    const Builtin *row = nullptr; ///< nullptr: neither builtin nor twin
    Twin twin = Twin::None;
};

/** Look @p name up among the builtins and their twins. */
BuiltinName lookupBuiltin(const std::string &name);

/** Row of builtin @p name; nullptr for twins and non-builtins. */
const Builtin *findBuiltin(const std::string &name);

/**
 * Declare builtin @p name into @p module (idempotent) and return the
 * declaration. Panics if the name is not a builtin.
 */
ir::Function *declareBuiltin(ir::Module &module, const std::string &name);

/** Declare (idempotently) external @p name with @p like's type: a
 *  builtin's u_* or r_* twin, or a target's offload stub. */
ir::Function *declareTwin(ir::Module &module, const std::string &name,
                          const ir::Function *like);

/** Additional cost units for @p bytes moved by a builtin (memcpy...). */
constexpr uint64_t
perByteCost(uint64_t bytes)
{
    return bytes / 8;
}

/** Name of the size-of intrinsic ("nol.sizeof"). */
extern const char *const kSizeofIntrinsic;

} // namespace nol::frontend

#endif // NOL_FRONTEND_BUILTINS_HPP
