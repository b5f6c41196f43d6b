#include "decision/record.hpp"

#include <cstdio>

namespace nol::decision {

const char *
verdictName(Verdict verdict)
{
    switch (verdict) {
    case Verdict::Offload: return "offload";
    case Verdict::ProbeOffload: return "probe-offload";
    case Verdict::UnknownTarget: return "unknown-target";
    case Verdict::Suppressed: return "suppressed";
    case Verdict::ProbePending: return "probe-pending";
    case Verdict::Unprofitable: return "unprofitable";
    case Verdict::QueueErased: return "queue-erased";
    }
    return "?";
}

const char *
verdictReason(Verdict verdict)
{
    switch (verdict) {
    case Verdict::Offload:
        return "Equation 1 gain is positive";
    case Verdict::ProbeOffload:
        return "suppression window passed; spending the one recovery probe";
    case Verdict::UnknownTarget:
        return "no knowledge for this target; staying local";
    case Verdict::Suppressed:
        return "inside a failover-suppression window; no link probe";
    case Verdict::ProbePending:
        return "recovery probe already granted and unresolved";
    case Verdict::Unprofitable:
        return "Equation 1 gain is non-positive";
    case Verdict::QueueErased:
        return "predicted admission-queue wait erases the gain";
    }
    return "?";
}

std::string
DecisionRecord::str() const
{
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "#%llu @t=%.6fs %s: %s [%s] Tg=%.6fs (ideal=%.6fs "
                  "comm=%.6fs wait=%.6fs) obs=%llu fail=%llu",
                  static_cast<unsigned long long>(sequence), nowSeconds,
                  target.c_str(), offload ? "offload" : "local",
                  verdictName(verdict), terms.gain, terms.idealGain,
                  terms.commSeconds, terms.queueWaitSeconds,
                  static_cast<unsigned long long>(inputs.observations),
                  static_cast<unsigned long long>(
                      inputs.consecutiveFailures));
    return buf;
}

} // namespace nol::decision
