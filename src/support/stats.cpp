#include "support/stats.hpp"

#include <algorithm>

namespace nol {

double
percentileNearestRank(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    // Nearest-rank with a tolerance nudge so p * n landing exactly on
    // an integer keeps that rank (0.50 * 100 → rank 50, not 51).
    size_t rank = static_cast<size_t>(
        p * static_cast<double>(sorted.size()) + 0.999999);
    if (rank < 1)
        rank = 1;
    if (rank > sorted.size())
        rank = sorted.size();
    return sorted[rank - 1];
}

LatencySummary
summarizeLatencies(std::vector<double> values)
{
    LatencySummary out;
    if (values.empty())
        return out;
    std::sort(values.begin(), values.end());
    out.count = values.size();
    double total = 0;
    for (double v : values)
        total += v;
    out.mean = total / static_cast<double>(values.size());
    out.p50 = percentileNearestRank(values, 0.50);
    out.p95 = percentileNearestRank(values, 0.95);
    out.p99 = percentileNearestRank(values, 0.99);
    out.p999 = percentileNearestRank(values, 0.999);
    out.max = values.back();
    return out;
}

} // namespace nol
