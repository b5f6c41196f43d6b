/**
 * @file
 * Execution-backend selector. Kept dependency-free so configuration
 * layers (SystemConfig, traffic mixes, CLIs) can name a backend without
 * linking the execution engines themselves.
 */
#ifndef NOL_INTERP_BACKENDKIND_HPP
#define NOL_INTERP_BACKENDKIND_HPP

namespace nol::interp {

/** Which execution engine runs compute phases. */
enum class BackendKind {
    /** The reference IR interpreter (default; differential oracle). */
    Interpreter,
    /** IR lowered to C, compiled with the host toolchain and executed
     *  natively; simulated time is charged from the same per-
     *  instruction cost model as the interpreter. */
    NativeC,
};

/** Human-readable backend name ("interp" / "native-c"). */
const char *backendKindName(BackendKind kind);

/** Parse a backend name; returns false on an unknown name. */
bool parseBackendKind(const char *name, BackendKind *out);

} // namespace nol::interp

#endif // NOL_INTERP_BACKENDKIND_HPP
