#include "decision/model.hpp"

namespace nol::decision {

void
ObservedCost::fold(double mobile_equiv_seconds, uint64_t traffic_bytes)
{
    double alpha = observations == 0 ? 1.0 : 0.5;
    mobileSecondsPerInvocation = (1 - alpha) * mobileSecondsPerInvocation +
                                 alpha * mobile_equiv_seconds;
    memBytes = static_cast<uint64_t>(
        (1 - alpha) * static_cast<double>(memBytes) +
        alpha * static_cast<double>(traffic_bytes) / 2.0);
    ++observations;
}

Terms
evaluate(double mobile_seconds, uint64_t mem_bytes, uint64_t invocations,
         const ModelParams &params)
{
    Terms terms;
    terms.mobileSeconds = mobile_seconds;
    terms.idealGain = mobile_seconds * (1.0 - 1.0 / params.speedRatio);
    double megabits = static_cast<double>(mem_bytes) * 8.0 / 1e6;
    terms.commSeconds = 2.0 * (megabits / params.bandwidthMbps) *
                        static_cast<double>(invocations);
    terms.queueWaitSeconds = 0.0;
    terms.gain = terms.idealGain - terms.commSeconds;
    return terms;
}

double
expectedWaitSeconds(const LoadSnapshot &load)
{
    if (load.slotPool == 0 || load.activeSessions < load.slotPool)
        return 0.0; // a slot is free: admission is immediate
    if (load.completedHolds == 0 || load.meanHoldSeconds <= 0.0)
        return 0.0; // no hold history yet: nothing to predict from
    double departures_needed =
        static_cast<double>(load.queueDepth) + 1.0;
    return departures_needed * load.meanHoldSeconds /
           static_cast<double>(load.slotPool);
}

Terms
evaluate(double mobile_seconds, uint64_t mem_bytes, uint64_t invocations,
         const ModelParams &params, const LoadSnapshot &load)
{
    Terms terms = evaluate(mobile_seconds, mem_bytes, invocations, params);
    terms.queueWaitSeconds = expectedWaitSeconds(load);
    terms.gain = terms.gain - terms.queueWaitSeconds;
    return terms;
}

} // namespace nol::decision
