#include "decision/engine.hpp"

#include "decision/priors.hpp"

namespace nol::decision {

Engine::Engine(double speed_ratio, double bandwidth_bps)
    : speed_ratio_(speed_ratio), bandwidth_bps_(bandwidth_bps)
{}

void
Engine::seed(const std::string &target,
             double mobile_seconds_per_invocation, uint64_t mem_bytes)
{
    // Refresh the performance knowledge only: the failure fields
    // describe the *link*, which a re-seed knows nothing about. (The
    // old DynamicEstimator::seed() assigned a whole fresh struct here,
    // silently erasing consecutiveFailures / suppressedUntilSeconds.)
    TargetKnowledge &know = knowledge_[target];
    know.mobileSecondsPerInvocation = mobile_seconds_per_invocation;
    know.memBytes = mem_bytes;
    know.observations = 0;
}

uint64_t
Engine::seedFromPriors()
{
    if (priors_ == nullptr || priors_->empty())
        return 0;
    uint64_t seeded = 0;
    for (const auto &[target, prior] : priors_->table()) {
        if (prior.observations == 0)
            continue;
        TargetKnowledge &know = knowledge_[target];
        know.mobileSecondsPerInvocation = prior.mobileSecondsPerInvocation;
        know.memBytes = prior.memBytes;
        know.observations = prior.observations;
        // Fleet telemetry only; suppression windows stay link-local.
        know.totalFailures = prior.totalFailures;
        ++seeded;
    }
    if (seeded > 0)
        priors_->noteSeededSession(seeded);
    return seeded;
}

DecisionRecord
Engine::finish(DecisionRecord record)
{
    record.sequence = ++next_sequence_;
    records_.push_back(record);
    return record;
}

DecisionRecord
Engine::decide(const std::string &target, double now_seconds,
               const LoadSnapshot *load)
{
    DecisionRecord record;
    record.target = target;
    record.nowSeconds = now_seconds;
    record.inputs.speedRatio = speed_ratio_;
    record.inputs.bandwidthMbps = bandwidth_bps_ / 1e6;
    if (load != nullptr) {
        record.inputs.admissionAware = true;
        record.inputs.load = *load;
    }

    auto it = knowledge_.find(target);
    if (it == knowledge_.end()) {
        record.verdict = Verdict::UnknownTarget; // stay local
        return finish(record);
    }
    TargetKnowledge &know = it->second;
    record.inputs.knownTarget = true;
    record.inputs.mobileSecondsPerInvocation =
        know.mobileSecondsPerInvocation;
    record.inputs.memBytes = know.memBytes;
    record.inputs.observations = know.observations;
    record.inputs.consecutiveFailures = know.consecutiveFailures;
    record.inputs.suppressedUntilSeconds = know.suppressedUntilSeconds;

    if (know.suppressedUntilSeconds > now_seconds) {
        record.verdict = Verdict::Suppressed;
        record.suppressed = true; // flaky link: stay local, no probe
        return finish(record);
    }
    // Recovering from failures: past the window, exactly one probe is
    // in flight at a time — until it resolves (success, failure, or
    // cancel), further calls stay local.
    bool recovering = know.consecutiveFailures > 0;
    if (recovering && know.probeOutstanding) {
        record.verdict = Verdict::ProbePending;
        return finish(record);
    }

    ModelParams params;
    params.speedRatio = speed_ratio_;
    params.bandwidthMbps = bandwidth_bps_ / 1e6;
    record.terms = evaluate(know.mobileSecondsPerInvocation,
                            know.memBytes, /*invocations=*/1, params);
    if (record.terms.gain <= 0) {
        record.verdict = Verdict::Unprofitable;
        return finish(record);
    }
    if (load != nullptr) {
        record.terms.queueWaitSeconds = expectedWaitSeconds(*load);
        record.terms.gain =
            record.terms.gain - record.terms.queueWaitSeconds;
        if (record.terms.gain <= 0) {
            record.verdict = Verdict::QueueErased;
            return finish(record);
        }
    }

    record.offload = true;
    if (recovering) {
        record.verdict = Verdict::ProbeOffload;
        record.probe = true;
        know.probeOutstanding = true;
    } else {
        record.verdict = Verdict::Offload;
    }
    return finish(record);
}

void
Engine::observe(const std::string &target, double mobile_equiv_seconds,
                uint64_t traffic_bytes)
{
    knowledge_[target].fold(mobile_equiv_seconds, traffic_bytes);
    if (priors_ != nullptr) {
        priors_->recordObservation(target, mobile_equiv_seconds,
                                   traffic_bytes);
    }
}

void
Engine::recordFailure(const std::string &target, double now_seconds)
{
    TargetKnowledge &know = knowledge_[target];
    ++know.consecutiveFailures;
    ++know.totalFailures;
    know.suppressedUntilSeconds =
        now_seconds + failurePenaltySeconds(know.consecutiveFailures);
    know.probeOutstanding = false; // the probe resolved: link still bad
    if (priors_ != nullptr)
        priors_->recordFailure(target);
}

void
Engine::recordSuccess(const std::string &target)
{
    TargetKnowledge &know = knowledge_[target];
    know.consecutiveFailures = 0;
    know.suppressedUntilSeconds = 0;
    know.probeOutstanding = false; // the probe resolved: link is back
}

void
Engine::cancelProbe(const std::string &target)
{
    auto it = knowledge_.find(target);
    if (it != knowledge_.end())
        it->second.probeOutstanding = false;
}

double
Engine::failurePenaltySeconds(uint64_t consecutive_failures)
{
    if (consecutive_failures == 0)
        return 0.0; // no failures, no penalty
    double penalty = kBasePenaltySeconds;
    for (uint64_t i = 1; i < consecutive_failures; ++i) {
        penalty *= 2.0;
        if (penalty >= kMaxPenaltySeconds)
            return kMaxPenaltySeconds;
    }
    return penalty < kMaxPenaltySeconds ? penalty : kMaxPenaltySeconds;
}

} // namespace nol::decision
