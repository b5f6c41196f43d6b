/**
 * @file
 * Content-addressed native-artifact cache: a lowered module's C source
 * is compiled once per digest with the host toolchain and dlopen'd;
 * fleet sessions sharing a partition reuse the same artifact both
 * in-process (shared_ptr registry) and across processes (on-disk
 * cache keyed by digest, populated with atomic renames).
 *
 * A compile is a cc child process spawned without a shell, so it can
 * run while the caller goes on: startCompile() starts one and
 * getOrCompile() waits for it. At most hardware_concurrency() children
 * (at least one) are pending at a time; starting one more first waits
 * for the oldest. Children still pending at exit are killed and their
 * temporary output removed.
 */
#ifndef NOL_CODEGEN_ARTIFACT_HPP
#define NOL_CODEGEN_ARTIFACT_HPP

#include <memory>
#include <string>

#include "codegen/abi.h"
#include "codegen/cemitter.hpp"

namespace nol::codegen {

/** A dlopen'd compiled module: the generated function table. */
class NativeArtifact
{
  public:
    ~NativeArtifact();

    NativeArtifact(const NativeArtifact &) = delete;
    NativeArtifact &operator=(const NativeArtifact &) = delete;

    const NolFn *fns() const { return fns_; }
    uint32_t count() const { return count_; }

  private:
    friend class ArtifactRegistry;

    NativeArtifact() = default;

    void *handle_ = nullptr;
    const NolFn *fns_ = nullptr;
    uint32_t count_ = 0;
};

/**
 * Start compiling @p lowered in the background, unless its artifact is
 * already registered in this process, already on disk or already
 * being compiled, or no host toolchain is available. Returns true if
 * this call started a compile. Thread-safe.
 */
bool startCompile(const LoweredModule &lowered);

/**
 * Fetch the artifact for @p lowered, waiting for its compile if one
 * is pending and starting one if none is. Returns nullptr only when
 * no working host toolchain is available — callers fall back to the
 * interpreter. Once the toolchain works, a module cc rejects (or that
 * cannot be written, published or loaded) is a panic naming the
 * artifact digest and cc's exit status. Thread-safe and safe against
 * concurrent processes sharing the cache directory.
 */
std::shared_ptr<const NativeArtifact>
getOrCompile(const LoweredModule &lowered);

/**
 * True if a host C compiler usable for artifacts was found. The
 * candidates are $NOL_CC, $CC, cc, gcc and clang, in that order; a
 * candidate is split on whitespace into the compiler and its leading
 * arguments, so CC="ccache gcc" works. No shell runs, so quotes and
 * `$` are not interpreted.
 */
bool toolchainAvailable();

/** Cache directory ($NOL_CODEGEN_DIR, default ./.nol-codegen). */
std::string artifactCacheDir();

} // namespace nol::codegen

#endif // NOL_CODEGEN_ARTIFACT_HPP
