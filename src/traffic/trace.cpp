#include "traffic/trace.hpp"

#include <cmath>
#include <cstdio>

#include "support/logging.hpp"
#include "support/rng.hpp"

namespace nol::traffic {

std::vector<double>
zipfWeights(size_t program_count, double alpha)
{
    NOL_ASSERT(program_count > 0, "workload mix over an empty list");
    std::vector<double> weights(program_count);
    double total = 0;
    for (size_t i = 0; i < program_count; ++i) {
        weights[i] = 1.0 / std::pow(static_cast<double>(i + 1), alpha);
        total += weights[i];
    }
    for (double &w : weights)
        w /= total;
    return weights;
}

namespace {

/** Inverse-CDF draw from @p weights (already normalized). */
uint32_t
drawIndex(Rng &rng, const std::vector<double> &weights)
{
    double u = rng.uniform();
    double cumulative = 0;
    for (size_t i = 0; i < weights.size(); ++i) {
        cumulative += weights[i];
        if (u < cumulative)
            return static_cast<uint32_t>(i);
    }
    return static_cast<uint32_t>(weights.size() - 1); // rounding tail
}

/** Exponential inter-arrival gap at @p rate (inverse transform). */
double
expGap(Rng &rng, double rate)
{
    // 1 - uniform() is in (0, 1], so the log argument never hits 0.
    return -std::log(1.0 - rng.uniform()) / rate;
}

} // namespace

Trace
generateTrace(const TraceConfig &config, size_t program_count)
{
    NOL_ASSERT(config.arrivals > 0, "empty trace requested");
    NOL_ASSERT(config.ratePerSecond > 0, "offered load must be positive");

    Trace trace;
    trace.config = config;
    trace.entries.reserve(config.arrivals);

    Rng rng(config.seed);
    std::vector<double> mix = zipfWeights(program_count, config.mixAlpha);

    // Diurnal arrivals come from thinning a Poisson stream running at
    // the peak intensity: candidates at λmax = λ(1+A) survive with
    // probability λ(t)/λmax. Every candidate consumes the same number
    // of draws whether kept or thinned, so the stream stays aligned.
    double peak_rate =
        config.process == ArrivalProcess::Diurnal
            ? config.ratePerSecond * (1.0 + kDiurnalAmplitude)
            : config.ratePerSecond;

    double now = 0;
    uint32_t emitted = 0;
    while (emitted < config.arrivals) {
        now += expGap(rng, peak_rate);
        if (config.process == ArrivalProcess::Diurnal) {
            double intensity =
                config.ratePerSecond *
                (1.0 + kDiurnalAmplitude *
                           std::sin(2.0 * M_PI * now /
                                    kDiurnalPeriodSeconds));
            if (rng.uniform() >= intensity / peak_rate)
                continue; // thinned candidate
        }
        TraceEntry entry;
        entry.index = emitted;
        entry.startSeconds = now;
        entry.programIndex = drawIndex(rng, mix);
        entry.churned = config.churnFraction > 0 &&
                        rng.chance(config.churnFraction);
        entry.faultSeed = rng.next();
        trace.entries.push_back(entry);
        ++emitted;
    }
    return trace;
}

std::string
serializeTrace(const Trace &trace)
{
    std::string out;
    char line[160];
    std::snprintf(line, sizeof(line),
                  "# trace seed=%llu arrivals=%u process=%s rate=%.6f "
                  "alpha=%.4f churn=%.4f\n",
                  static_cast<unsigned long long>(trace.config.seed),
                  trace.config.arrivals,
                  trace.config.process == ArrivalProcess::Poisson
                      ? "poisson"
                      : "diurnal",
                  trace.config.ratePerSecond, trace.config.mixAlpha,
                  trace.config.churnFraction);
    out += line;
    for (const TraceEntry &entry : trace.entries) {
        std::snprintf(line, sizeof(line), "%u %.9f %u %d %llu\n",
                      entry.index, entry.startSeconds, entry.programIndex,
                      entry.churned ? 1 : 0,
                      static_cast<unsigned long long>(entry.faultSeed));
        out += line;
    }
    return out;
}

} // namespace nol::traffic
