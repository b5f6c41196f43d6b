/**
 * @file
 * Decision provenance. Every decision::Engine::decide() produces a
 * DecisionRecord carrying the complete story of that decision — which
 * knowledge it read, which Equation 1 terms it computed, which server
 * load it saw, and *why* it reached its verdict — so tests and benches
 * assert against the reasoning, not just the outcome.
 *
 * The engine keeps every record it produced; the session hands them to
 * its RunReport, so "why did client 3 stay local on call 7?" is one
 * lookup instead of a re-run under a debugger.
 */
#ifndef NOL_DECISION_RECORD_HPP
#define NOL_DECISION_RECORD_HPP

#include <cstdint>
#include <string>

#include "decision/model.hpp"

namespace nol::decision {

/** Why a decision came out the way it did. */
enum class Verdict {
    Offload,       ///< Equation 1 gain positive: ship it
    ProbeOffload,  ///< the single post-suppression recovery probe
    UnknownTarget, ///< no knowledge for this target: stay local
    Suppressed,    ///< inside a failover-suppression window: no probe
    ProbePending,  ///< recovery probe already granted, not yet resolved
    Unprofitable,  ///< Equation 1 gain non-positive: stay local
    QueueErased,   ///< gain positive, but the predicted admission-queue
                   ///< wait erases it: stay local (admission-aware)
};

/** Stable machine-checkable name, e.g. "queue-erased". */
const char *verdictName(Verdict verdict);

/** One-line human explanation of @p verdict. */
const char *verdictReason(Verdict verdict);

/** Everything the engine read to decide. */
struct DecisionInputs {
    double mobileSecondsPerInvocation = 0; ///< Tm per call (knowledge)
    uint64_t memBytes = 0;                 ///< M (knowledge)
    uint64_t observations = 0;   ///< 0 = deciding cold, on seed data only
    uint64_t consecutiveFailures = 0;
    double suppressedUntilSeconds = 0;
    double speedRatio = 0;       ///< R
    double bandwidthMbps = 0;    ///< BW
    bool knownTarget = false;
    bool admissionAware = false; ///< a LoadSnapshot was consulted
    LoadSnapshot load;           ///< all-zero unless admissionAware
};

/** One decision with its full provenance. */
struct DecisionRecord {
    std::string target;
    uint64_t sequence = 0; ///< per-engine decide() counter (from 1)
    double nowSeconds = 0; ///< mobile clock at decision time
    Verdict verdict = Verdict::UnknownTarget;

    // Outcome flags, kept redundant with `verdict` for ergonomic
    // assertions and for the session's hot path.
    bool offload = false;    ///< Offload or ProbeOffload
    bool suppressed = false; ///< Suppressed
    bool probe = false;      ///< ProbeOffload (consumed the one probe)

    DecisionInputs inputs;
    Terms terms; ///< all-zero when Equation 1 was never evaluated

    /** The verdict's one-line explanation. */
    const char *reason() const { return verdictReason(verdict); }

    /** Render like "#3 @t=1.25s hot: offload [offload] Tg=4.1s ...". */
    std::string str() const;
};

} // namespace nol::decision

#endif // NOL_DECISION_RECORD_HPP
