/**
 * @file
 * Pluggable admission policies for the offload server.
 *
 * PR "fleet scale substrate": ServerRuntime's admission queue used to
 * be hardwired FIFO — a released slot always passed to the head
 * waiter. Under open-loop traffic (thousands of Poisson arrivals, see
 * src/traffic) the *order* in which queued offloads inherit freed
 * slots dominates tail latency, so slot inheritance is now a strategy
 * object: ServerRuntime keeps the queue, the timers and the load
 * ledger, and asks an AdmissionPolicy only one question — "a slot just
 * freed; which waiter gets it?".
 *
 * Four built-in answers:
 *
 *  - Fifo: index 0, always. The default, bit-identical to the
 *    pre-refactor hardwired queue (golden digests in
 *    tests/test_fleet.cpp, captured from that queue, pin it).
 *  - Priority: highest FleetClient::priority first, FIFO among equals.
 *  - ShortestPredictedFirst: smallest predicted slot-hold time first,
 *    fed by the Eq. 1 terms of the decision that triggered the offload
 *    (predicted hold = Ts + Tc = (Tm - Tideal) + Tc); requests with no
 *    prediction (dynamic decision off) sort as 0 — i.e. to the front,
 *    FIFO among themselves.
 *  - FairShare: fewest previous grants for that session first, FIFO
 *    among equals — a long-session client cannot starve fresh ones.
 *
 * Policies are consulted inside loop events only, so they may keep
 * internal state (FairShare's grant counts) without any locking.
 */
#ifndef NOL_RUNTIME_ADMISSION_HPP
#define NOL_RUNTIME_ADMISSION_HPP

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>

namespace nol::runtime {

/** Which slot-inheritance strategy the server runs. */
enum class AdmissionPolicyKind {
    Fifo,                   ///< arrival order (default; legacy behavior)
    Priority,               ///< FleetClient::priority, FIFO among equals
    ShortestPredictedFirst, ///< smallest Eq. 1 predicted hold first
    FairShare,              ///< fewest grants per session first
};

/** Stable lowercase name ("fifo", "spjf", ...) for tables and JSON. */
const char *admissionPolicyKindName(AdmissionPolicyKind kind);

/** Autoscaled pool ceiling, as a multiple of the base pool. */
constexpr uint32_t kAutoscalePoolFactor = 4;

/** Autoscaling grows the pool past this many waiters per slot. */
constexpr double kAutoscaleQueueDepthPerSlot = 2.0;

/**
 * Admission configuration (the former `AdmissionPolicy` limits struct,
 * renamed when AdmissionPolicy became the strategy interface below).
 */
struct AdmissionConfig {
    uint32_t maxConcurrentSessions = 8;
    double maxQueueWaitSeconds = 5.0; ///< then denied → run locally
    AdmissionPolicyKind kind = AdmissionPolicyKind::Fifo;
    /**
     * Elastic slot pool: the server grows its pool by one slot whenever
     * a request would queue behind more than kAutoscaleQueueDepthPerSlot
     * waiters per current slot, up to kAutoscalePoolFactor times the
     * base pool, and shrinks back toward the base as slots free with an
     * empty queue. Off (the default) the pool is constant.
     */
    bool autoscale = false;
};

/** What the requesting session declared at acquire() time. */
struct AdmissionRequest {
    int priority = 0; ///< FleetClient::priority (higher = sooner)
    /**
     * Predicted slot-hold seconds for the offload being admitted,
     * from the Eq. 1 terms of the decision that chose to offload:
     * (Tm - Tideal) + Tc. Zero when no estimate exists.
     */
    double predictedHoldSeconds = 0;
};

/** One queued admission request, as policies see it. */
struct AdmissionTicket {
    uint64_t sessionId = 0;
    double enqueueNs = 0;
    AdmissionRequest request;
};

/**
 * Slot-inheritance strategy. ServerRuntime owns the queue and calls
 * selectNext() from inside a release event when a slot frees with
 * waiters queued; the returned index is granted and removed. One
 * policy instance lives per ServerRuntime and is reset() at the start
 * of every run().
 */
class AdmissionPolicy
{
  public:
    virtual ~AdmissionPolicy() = default;

    /** The kind this instance implements. */
    virtual AdmissionPolicyKind kind() const = 0;

    /** Stable display name (admissionPolicyKindName of kind()). */
    const char *name() const { return admissionPolicyKindName(kind()); }

    /**
     * Index into @p queue (never empty) of the waiter that inherits
     * the freed slot. Ties must preserve arrival order: scan front to
     * back and only move the pick on a strict improvement.
     */
    virtual size_t selectNext(const std::deque<AdmissionTicket> &queue) = 0;

    /** A slot was granted to @p session_id (immediate or queued). */
    virtual void onGrant(uint64_t session_id) { (void)session_id; }

    /** Forget all run-scoped state (called at run() start). */
    virtual void reset() {}
};

/** Build the built-in policy implementing @p kind. */
std::unique_ptr<AdmissionPolicy> makeAdmissionPolicy(AdmissionPolicyKind kind);

} // namespace nol::runtime

#endif // NOL_RUNTIME_ADMISSION_HPP
