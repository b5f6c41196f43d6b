/**
 * @file
 * Static performance estimator (paper Sec. 3.1, Equation 1):
 *
 *   Tg = (Tm - Ts) - Tc = Tm * (1 - 1/R) - 2 * (M / BW) * Ninvo
 *
 * where Tm is mobile execution time, R the server/mobile speed ratio,
 * M the task's memory footprint and BW the network bandwidth. Shared
 * data is counted twice (to the server and back).
 *
 * The arithmetic itself lives in decision::Model (src/decision) — the
 * single home of Equation 1 shared with the runtime's per-session
 * decision::Engine; this header is the compile-time adapter that
 * applies it to profiled regions and keeps the Table 3 `Estimate`
 * shape the rest of the compiler consumes.
 */
#ifndef NOL_COMPILER_ESTIMATOR_HPP
#define NOL_COMPILER_ESTIMATOR_HPP

#include <cstdint>

#include "profile/profiler.hpp"

namespace nol::compiler {

/** Estimation parameters. */
struct EstimatorParams {
    double speedRatio = 5.0;       ///< R: server is R times faster
    double bandwidthMbps = 80.0;   ///< BW in megabits per second
};

/**
 * Hotness threshold: a candidate must account for at least this
 * fraction of the profiled program time to be a "heavy task" (paper
 * Sec. 3.1: the profiler *finds heavy tasks*; cold init loops are never
 * worth the offloading machinery).
 */
constexpr double kMinCoverage = 0.10;

/** Per-candidate estimate (the Table 3 columns). */
struct Estimate {
    double mobileSeconds = 0;  ///< Tm
    double idealGain = 0;      ///< Tideal = Tm * (1 - 1/R)
    double commSeconds = 0;    ///< Tc = 2 * (M/BW) * Ninvo
    double gain = 0;           ///< Tg = Tideal - Tc

    bool profitable() const { return gain > 0; }
};

/** Apply Equation 1 (decision::evaluate) to raw quantities. */
Estimate estimateGain(double mobile_seconds, uint64_t mem_bytes,
                      uint64_t invocations, const EstimatorParams &params);

/** Apply Equation 1 to a profiled region. */
Estimate estimateRegion(const profile::RegionProfile &region,
                        const EstimatorParams &params);

} // namespace nol::compiler

#endif // NOL_COMPILER_ESTIMATOR_HPP
