/**
 * @file
 * The offload-decision model (paper Sec. 3.1, Equation 1) as a pure,
 * dependency-free library — the single home of the gain arithmetic
 * that the static estimator (compile time), the per-session decision
 * engine (run time) and the benches all share:
 *
 *   Tg = (Tm - Ts) - Tc = Tm * (1 - 1/R) - 2 * (M / BW) * Ninvo
 *
 * where Tm is mobile execution time, R the server/mobile speed ratio,
 * M the task's memory footprint and BW the network bandwidth. Shared
 * data is counted twice (to the server and back).
 *
 * Admission-aware extension (ROADMAP "admission-aware dynamic
 * decisions"): in a fleet, an offload that wins Equation 1 can still
 * lose to the server's admission queue. The model therefore accepts a
 * LoadSnapshot — queue depth, slot pool, mean slot-hold time, as
 * published by ServerRuntime::loadSnapshot() on every grant and
 * release — and evaluates
 *
 *   Tg' = Tg - E[wait | queue depth, slot pool, mean hold time]
 *
 * so a client predicts its queueing delay instead of discovering it by
 * waiting or timing out. With no load information (solo runs, flag
 * off, empty history) the wait term is exactly 0.0 and Tg' == Tg
 * bit-for-bit.
 */
#ifndef NOL_DECISION_MODEL_HPP
#define NOL_DECISION_MODEL_HPP

#include <cstdint>

namespace nol::decision {

/**
 * Equation 1's per-target inputs as learned from observed executions.
 * A session's engine and the fleet priors both keep them this way.
 */
struct ObservedCost {
    double mobileSecondsPerInvocation = 0; ///< Tm per call
    uint64_t memBytes = 0;                 ///< M
    uint64_t observations = 0;

    /**
     * Fold one observed execution in (exponential moving average, so
     * changing behavior is tracked): the first observation replaces
     * the seed, later ones weigh 1/2. @p traffic_bytes counts both
     * directions; Equation 1 counts M twice, so M is half of it.
     */
    void fold(double mobile_equiv_seconds, uint64_t traffic_bytes);
};

/** Link/hardware parameters of one Equation 1 evaluation. */
struct ModelParams {
    double speedRatio = 5.0;     ///< R: server is R times faster
    double bandwidthMbps = 80.0; ///< BW in megabits per second
};

/**
 * Server load as the admission queue saw it at the latest grant or
 * release event. Published by ServerRuntime::loadSnapshot(); all-zero
 * means "no load information" and contributes no wait.
 */
struct LoadSnapshot {
    uint32_t slotPool = 0;       ///< admission slots total (s)
    uint32_t activeSessions = 0; ///< slots currently held
    uint32_t queueDepth = 0;     ///< waiters queued behind them (q)
    uint64_t completedHolds = 0; ///< grant→release cycles observed
    double meanHoldSeconds = 0;  ///< mean grant→release duration (h)
};

/** Per-candidate terms (the Table 3 columns plus the queue term). */
struct Terms {
    double mobileSeconds = 0;     ///< Tm
    double idealGain = 0;         ///< Tideal = Tm * (1 - 1/R)
    double commSeconds = 0;       ///< Tc = 2 * (M/BW) * Ninvo
    double queueWaitSeconds = 0;  ///< E[wait] (0 without load info)
    double gain = 0;              ///< Tg' = Tideal - Tc - E[wait]

    bool profitable() const { return gain > 0; }
};

/** Apply Equation 1 to raw quantities (no queue term). */
Terms evaluate(double mobile_seconds, uint64_t mem_bytes,
               uint64_t invocations, const ModelParams &params);

/**
 * Expected admission-queue wait under @p load.
 *
 * Derivation (DESIGN.md §11): with a free slot the wait is 0. With all
 * s slots busy, q + 1 departures must happen before this client runs
 * (the q waiters ahead of it, plus it reaching the head). Departures
 * arrive at rate s / h, so E[wait] = (q + 1) * h / s. The residual
 * service of the sessions currently holding slots is approximated by a
 * full mean hold — a deliberate overestimate that biases a borderline
 * client toward local execution (a wrong "local" costs the gain; a
 * wrong "offload" costs a queue timeout *and* the local run). With no
 * completed holds yet (h unknown) the model claims no wait.
 */
double expectedWaitSeconds(const LoadSnapshot &load);

/** Apply Equation 1 with the queue-wait term: Tg' = Tg - E[wait]. */
Terms evaluate(double mobile_seconds, uint64_t mem_bytes,
               uint64_t invocations, const ModelParams &params,
               const LoadSnapshot &load);

} // namespace nol::decision

#endif // NOL_DECISION_MODEL_HPP
