/**
 * @file
 * Latency statistics shared by the fleet runtime, the traffic harness
 * and the benches: one percentile definition, one quantile summary.
 */
#ifndef NOL_SUPPORT_STATS_HPP
#define NOL_SUPPORT_STATS_HPP

#include <cstdint>
#include <vector>

namespace nol {

/**
 * Nearest-rank percentile of @p sorted (ascending order required);
 * @p p in [0, 1]. Returns 0 for an empty sample. This is the one
 * percentile definition in the tree — ServerRuntime's fleet latency
 * fields, the traffic harness and every bench table quote it, so p50
 * in a test and p50 in a JSON artifact always mean the same rank.
 */
double percentileNearestRank(const std::vector<double> &sorted, double p);

/** The latency quantiles every report and bench table quotes. */
struct LatencySummary {
    uint64_t count = 0;
    double mean = 0;
    double p50 = 0;
    double p95 = 0;
    double p99 = 0;
    double p999 = 0;
    double max = 0;
};

/** Sort a copy of @p values and read off the standard quantiles. */
LatencySummary summarizeLatencies(std::vector<double> values);

} // namespace nol

#endif // NOL_SUPPORT_STATS_HPP
