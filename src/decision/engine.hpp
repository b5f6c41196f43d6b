/**
 * @file
 * Per-session decision engine (paper Sec. 4, "Local execution"): the
 * successor of the old header-only runtime::DynamicEstimator. It
 * re-evaluates Equation 1 at every offload-enabled call with the
 * *current* network bandwidth and the latest observed execution time
 * and memory usage, so offloading is refused under unfavorable
 * conditions (the `*` entries of Fig. 6 — e.g. 164.gzip on 802.11n).
 *
 * On top of the plain estimator it layers:
 *
 *  - **Failover suppression**: each mid-flight failure opens a window
 *    (doubling per consecutive failure, bounded) during which the
 *    target stays local without probing the link at all.
 *  - **Single-probe recovery** (honest accounting): once a window has
 *    passed, exactly ONE recovery probe is granted. Until that probe
 *    resolves — recordSuccess(), recordFailure(), or cancelProbe()
 *    when the offload was abandoned before touching the link (e.g.
 *    admission denial) — further decide() calls stay local with
 *    verdict ProbePending. The old DynamicEstimator documented this
 *    contract but its const decide() tracked no probe state, so
 *    nothing actually bounded post-window probes to one.
 *  - **Admission awareness**: given a LoadSnapshot the engine charges
 *    Equation 1 the predicted queue wait (model.hpp) and reports
 *    QueueErased when contention alone flips the decision.
 *  - **Fleet priors**: with a FleetPriors base attached, observations
 *    and failures are published fleet-wide and seedFromPriors() warms
 *    a fresh session from what peers already learned.
 *
 * Every decide() returns a DecisionRecord with full provenance —
 * inputs, Equation 1 terms, verdict and reason — and appends it to the
 * engine's record list, which the session hands to its RunReport.
 */
#ifndef NOL_DECISION_ENGINE_HPP
#define NOL_DECISION_ENGINE_HPP

#include <map>
#include <string>
#include <vector>

#include "decision/record.hpp"

namespace nol::decision {

class FleetPriors;

/** Live per-target knowledge, seeded from profile and/or priors. */
struct TargetKnowledge : ObservedCost {
    // Link-failure feedback (failover suppression).
    uint64_t consecutiveFailures = 0; ///< failovers since last success
    uint64_t totalFailures = 0;       ///< failovers ever
    double suppressedUntilSeconds = 0; ///< no offload before this time
    bool probeOutstanding = false; ///< post-window probe granted,
                                   ///< not yet resolved
};

/** The per-session decision engine. */
class Engine
{
  public:
    /**
     * @param speed_ratio R (server/mobile), @param bandwidth_bps the
     * *effective* link bandwidth in bits per simulated second (already
     * scaled consistently with the workload byte counts).
     */
    Engine(double speed_ratio, double bandwidth_bps);

    /**
     * Publish observations/failures to @p priors and allow
     * seedFromPriors() to read it (nullptr to detach).
     */
    void attachFleetPriors(FleetPriors *priors) { priors_ = priors; }

    /**
     * Seed a target's knowledge from compile-time profiling. Re-seeding
     * an existing target refreshes Tm/M and resets the observation
     * count, but PRESERVES its failure history (consecutive/total
     * failures, suppression window, outstanding probe): profiling data
     * says nothing about the link.
     */
    void seed(const std::string &target,
              double mobile_seconds_per_invocation, uint64_t mem_bytes);

    /**
     * Overlay the attached fleet priors onto the knowledge base: every
     * target the fleet has observed starts with the fleet's Tm/M and
     * observation count, so this session never decides cold on it.
     * Failure history stays link-local (suppression windows are not
     * imported). Returns the number of targets seeded.
     */
    uint64_t seedFromPriors();

    /**
     * Decide whether to offload this invocation of @p target at mobile
     * time @p now_seconds, optionally charging the admission-queue
     * wait predicted from @p load (nullptr = not admission-aware).
     * The returned record is also appended to records().
     */
    DecisionRecord decide(const std::string &target,
                          double now_seconds = 0.0,
                          const LoadSnapshot *load = nullptr);

    /**
     * Fold an observed execution into the knowledge
     * (ObservedCost::fold). Published to the attached fleet priors as
     * well.
     */
    void observe(const std::string &target, double mobile_equiv_seconds,
                 uint64_t traffic_bytes);

    /**
     * An offload of @p target failed over mid-flight at mobile time
     * @p now_seconds. Suppress further attempts for a window that
     * doubles with each consecutive failure (bounded), so a
     * permanently dead link converges to all-local execution with only
     * a logarithmic number of recovery probes. Resolves any
     * outstanding recovery probe.
     */
    void recordFailure(const std::string &target, double now_seconds);

    /** A later offload of @p target completed: the link recovered. */
    void recordSuccess(const std::string &target);

    /**
     * A granted offload of @p target was abandoned before the link was
     * exercised (e.g. server admission denied): the recovery probe, if
     * one was outstanding, is returned un-spent so the next decide()
     * may probe again.
     */
    void cancelProbe(const std::string &target);

    /**
     * Suppression window after the Nth consecutive failure. N = 0 (no
     * failures) carries no penalty; N = 1 opens the base window, which
     * doubles per further failure and saturates at kMaxPenaltySeconds.
     */
    static double failurePenaltySeconds(uint64_t consecutive_failures);

    static constexpr double kBasePenaltySeconds = 0.5;
    static constexpr double kMaxPenaltySeconds = 120.0;

    const std::map<std::string, TargetKnowledge> &knowledge() const
    {
        return knowledge_;
    }

    /** Every decide()'s record so far, in decision order. */
    const std::vector<DecisionRecord> &records() const { return records_; }

    /** Move the records out (for handing to a RunReport). */
    std::vector<DecisionRecord> takeRecords() { return std::move(records_); }

  private:
    DecisionRecord finish(DecisionRecord record);

    double speed_ratio_;
    double bandwidth_bps_;
    uint64_t next_sequence_ = 0;
    FleetPriors *priors_ = nullptr;
    std::map<std::string, TargetKnowledge> knowledge_;
    std::vector<DecisionRecord> records_;
};

} // namespace nol::decision

#endif // NOL_DECISION_ENGINE_HPP
