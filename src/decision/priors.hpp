/**
 * @file
 * Fleet-shared decision priors (ROADMAP "per-client estimator
 * priors"): a server-side knowledge base, keyed by target name, that
 * aggregates what every session's decision engine observed — mobile-
 * equivalent seconds per invocation, traffic bytes, failure counts —
 * and seeds each newly admitted session's engine with it. A client
 * that arrives after the fleet has already run a target starts warm:
 * no cold-start probe offloads to rediscover what peers already paid
 * to learn (COARA's point that decision state benefits from being
 * shared across executions).
 *
 * Aggregation is the engine's own exponential moving average
 * (ObservedCost::fold), so a prior is exactly the knowledge a single
 * long-lived session would have accumulated from the same observation
 * stream. Failure *history* (total count) is shared as fleet
 * telemetry; failover-suppression windows are NOT — a suppression
 * window describes one client's link, and another device's radio says
 * nothing about mine.
 *
 * Strictly opt-in via SystemConfig::fleetPriorsEnabled: with the flag
 * off the knowledge base is never read nor written and runs are
 * bit-identical to a build without it.
 */
#ifndef NOL_DECISION_PRIORS_HPP
#define NOL_DECISION_PRIORS_HPP

#include <cstdint>
#include <map>
#include <string>

#include "decision/model.hpp"

namespace nol::decision {

/** Fleet-aggregated knowledge about one offload target: the EMA of
 *  every session's observations, plus fleet-wide failure telemetry. */
struct TargetPrior : ObservedCost {
    uint64_t totalFailures = 0; ///< failovers, fleet-wide
};

/** The server-side knowledge base. */
class FleetPriors
{
  public:
    /** Fold one observed execution into the prior for @p target
     *  (ObservedCost::fold, as Engine::observe()). */
    void recordObservation(const std::string &target,
                           double mobile_equiv_seconds,
                           uint64_t traffic_bytes)
    {
        table_[target].fold(mobile_equiv_seconds, traffic_bytes);
    }

    /** A session's offload of @p target failed over mid-flight. */
    void recordFailure(const std::string &target);

    /** The prior for @p target, or nullptr if the fleet knows nothing. */
    const TargetPrior *lookup(const std::string &target) const;

    const std::map<std::string, TargetPrior> &table() const
    {
        return table_;
    }

    /** A session seeded @p target_count targets from this base. */
    void noteSeededSession(uint64_t target_count)
    {
        ++seeded_sessions_;
        seeded_targets_ += target_count;
    }

    uint64_t seededSessions() const { return seeded_sessions_; }
    uint64_t seededTargets() const { return seeded_targets_; }
    bool empty() const { return table_.empty(); }

  private:
    std::map<std::string, TargetPrior> table_;
    uint64_t seeded_sessions_ = 0;
    uint64_t seeded_targets_ = 0;
};

} // namespace nol::decision

#endif // NOL_DECISION_PRIORS_HPP
