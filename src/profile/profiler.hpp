/**
 * @file
 * Hot function/loop profiler (paper Sec. 3.1, Table 3). Runs the
 * program on the mobile machine with a *profiling input* and records,
 * per function and per structured loop: inclusive execution time,
 * invocation count, and memory footprint (unique pages touched while
 * the region was active). The static performance estimator consumes
 * these numbers.
 */
#ifndef NOL_PROFILE_PROFILER_HPP
#define NOL_PROFILE_PROFILER_HPP

#include <map>
#include <string>
#include <vector>

#include "interp/interp.hpp"
#include "ir/module.hpp"
#include "sim/simmachine.hpp"

namespace nol::profile {

/** Profile of one candidate region (function or loop). */
struct RegionProfile {
    std::string name;
    bool isLoop = false;
    const ir::Function *fn = nullptr;    ///< region's enclosing function
    const ir::LoopMeta *loop = nullptr;  ///< non-null for loops
    double execNs = 0;                   ///< inclusive time
    uint64_t invocations = 0;
    uint64_t memPages = 0;               ///< unique pages touched

    double execSeconds() const { return execNs * 1e-9; }
    uint64_t memBytes() const { return memPages * sim::kPageSize; }
};

/** Complete result of one profiling run. */
struct ProfileResult {
    std::map<std::string, RegionProfile> regions;
    double totalNs = 0;     ///< whole-program time on the profiling run
    int64_t exitValue = 0;

    /** Region named @p name, or nullptr. */
    const RegionProfile *byName(const std::string &name) const;

    /** Fraction of total time spent in @p name (coverage, Table 4). */
    double coverage(const std::string &name) const;
};

/** Inputs for a profiling run. */
struct ProfileInput {
    std::string stdinText;
    std::map<std::string, std::string> files;
};

/**
 * Profile @p module by executing @p entry on a fresh mobile machine
 * with @p input. The machine is constructed internally from @p spec so
 * profiling never disturbs evaluation machines.
 */
ProfileResult profileModule(const ir::Module &module,
                            const arch::ArchSpec &spec,
                            const ProfileInput &input,
                            const std::string &entry = "main");

} // namespace nol::profile

#endif // NOL_PROFILE_PROFILER_HPP
