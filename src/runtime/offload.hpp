/**
 * @file
 * The Native Offloader runtime (paper Sec. 4): executes the partitioned
 * mobile and server binaries cooperatively over the simulated network,
 * following the Fig. 5 life cycle — local execution, dynamic decision,
 * initialization (prefetch), offloading execution with copy-on-demand
 * paging and remote I/O, and finalization with compressed dirty-page
 * write-back.
 */
#ifndef NOL_RUNTIME_OFFLOAD_HPP
#define NOL_RUNTIME_OFFLOAD_HPP

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "compiler/driver.hpp"
#include "decision/record.hpp"
#include "interp/backendkind.hpp"
#include "net/simnetwork.hpp"
#include "runtime/comm.hpp"
#include "runtime/uva.hpp"
#include "sim/simmachine.hpp"

namespace nol::runtime {

/** Runtime configuration of one evaluation run. */
struct SystemConfig {
    net::NetworkSpec network;        ///< defaults to 802.11ac (fast)
    double memScale = 32.0;          ///< byte/bandwidth scale factor k
    bool compressionEnabled = true;  ///< server→mobile write-back LZ
    bool prefetchEnabled = true;     ///< initialization heap push
    bool copyOnDemand = true;        ///< false: ship ALL pages up front
    bool dynamicDecision = true;     ///< runtime Eq. 1 re-evaluation
    bool forceLocal = false;         ///< baseline: never offload
    bool idealOffload = false;       ///< zero-overhead offloading
    /**
     * Execution backend for this run — the only backend selector.
     * Backends are bit-identical in outputs and charged simulated time;
     * this only changes wall-clock speed.
     */
    interp::BackendKind backend = interp::BackendKind::Interpreter;
    /**
     * Fleet mode: prefetch through the server's content-addressed page
     * cache (digest handshake, have/need, admission-wave batching) —
     * the cache's only switch. Inert outside a ≥2-client fleet.
     */
    bool pageCacheEnabled = false;
    /**
     * Fleet mode: seed each session's decision::Engine from the
     * server-side decision::FleetPriors knowledge base at admission,
     * so later arrivals skip the cold-start probe offloads earlier
     * sessions already paid for. Inert solo and when off: such runs
     * are bit-identical to the priors-free path.
     */
    bool fleetPriorsEnabled = false;
    /**
     * Fleet mode: admission-aware Equation 1. Each dynamic decision
     * subtracts the expected queue wait E[wait | queue depth, slot
     * pool, mean hold time] — derived from the server's live
     * ServerRuntime::loadSnapshot() — from the estimated gain, so a
     * client facing a saturated slot pool runs locally instead of
     * queueing toward an admission denial. Inert solo and when off.
     */
    bool admissionAwareDecision = false;
    /** Deterministic network fault schedule (disabled by default: a
     *  clean link delivers every message on its first attempt). */
    net::FaultPlan faultPlan;

    SystemConfig();
};

/** Input of one run (evaluation input, distinct from profiling input). */
struct RunInput {
    std::string stdinText;
    std::map<std::string, std::string> files;
};

/** One offload decision taken at run time. */
struct OffloadEvent {
    std::string target;
    bool offloaded = false;
    bool ideal = false;
    bool failedOver = false;  ///< offload aborted mid-flight, replayed
                              ///< locally from the pre-offload snapshot
    bool suppressed = false;  ///< declined inside a failover-suppression
                              ///< window (no link probe at all)
    bool overflow = false;    ///< server admission denied (fleet mode);
                              ///< the target ran locally instead
    bool queueAvoided = false; ///< admission-aware Eq. 1 predicted a
                               ///< queue wait that erased the gain; ran
                               ///< locally without contacting the server
    double estimatedGain = 0;
    double trafficBytes = 0;     ///< wire bytes this invocation
    double rawTrafficBytes = 0;  ///< pre-compression bytes this invocation
    double serverSeconds = 0; ///< server busy time this invocation
};

/** Where the time went (drives Fig. 7). */
struct TimeBreakdown {
    double mobileCompute = 0;     ///< local computation on the device
    double serverCompute = 0;     ///< offloaded computation (pure)
    double fnPtrTranslation = 0;  ///< function-pointer mapping overhead
    double remoteIo = 0;          ///< remote I/O requests + transfers
    double communication = 0;     ///< prefetch + CoD + write-back + ctl
};

/** Everything a run produced. */
struct RunReport {
    int64_t exitValue = 0;
    std::string console;
    double mobileSeconds = 0;  ///< whole-program time (mobile clock)
    double energyMillijoules = 0;
    TimeBreakdown breakdown;

    uint64_t wireBytes = 0;       ///< after compression
    uint64_t rawBytes = 0;        ///< before compression
    std::map<std::string, uint64_t> bytesByCategory;

    uint64_t offloads = 0;
    uint64_t localRuns = 0;   ///< stub executed locally (declined)
    uint64_t demandFaults = 0;
    uint64_t retries = 0;     ///< message re-attempts over all categories
    uint64_t failovers = 0;   ///< offloads aborted and replayed locally

    // Fleet-mode admission accounting (always zero in a solo run).
    uint64_t admissionWaits = 0;   ///< offloads that queued for a slot
    uint64_t admissionDenials = 0; ///< queue waits that timed out
    double admissionWaitSeconds = 0;

    // Page-cache accounting (always zero when the cache is off).
    uint64_t digestHandshakes = 0;    ///< cache-aware prefetches
    uint64_t prefetchPagesSent = 0;   ///< prefetch pages this client sent
    uint64_t prefetchPagesCached = 0; ///< pages served without a transfer

    // Decision-stack accounting (decision::Engine provenance).
    uint64_t coldStartOffloads = 0;   ///< offload verdicts taken with zero
                                      ///< runtime observations of the target
    uint64_t queueAvoidedLocals = 0;  ///< queue-erased verdicts (ran local)
    uint64_t priorsSeededTargets = 0; ///< targets seeded from FleetPriors

    /** Every dynamic decision this run took, with full provenance:
     *  inputs, Equation 1 terms, verdict and reason. */
    std::vector<decision::DecisionRecord> decisions;

    std::vector<OffloadEvent> events;
    std::vector<sim::PowerSegment> powerTimeline;
};

/**
 * The report as text: one `name=value` line per compared field, in a
 * fixed order (e.g. `mobileSeconds=0x1.8p+3`, `decisions[3].target=hot`).
 * Floats are written as %a, so equal text means equal bits. Strings
 * escape backslash and newline. Golden digests hash this text.
 */
std::string reportText(const RunReport &report);

/**
 * Bit-exact report equality — the differential-oracle check between
 * execution backends: reportText() of both reports must match, so
 * backends must charge the *identical* sequence of simulated-time
 * advances, not merely agree within a tolerance. On mismatch, @p why
 * (if non-null) receives the name of the first differing field.
 */
bool reportsBitIdentical(const RunReport &a, const RunReport &b,
                         std::string *why = nullptr);

/**
 * The two-machine offloading system. Construct once per configuration;
 * each run() builds fresh machines, so runs are independent.
 */
class OffloadSystem
{
  public:
    OffloadSystem(const compiler::CompiledProgram &program,
                  SystemConfig config);

    /** Execute the program end to end. */
    RunReport run(const RunInput &input);

    const SystemConfig &config() const { return config_; }

  private:
    const compiler::CompiledProgram &program_;
    SystemConfig config_;
};

} // namespace nol::runtime

#endif // NOL_RUNTIME_OFFLOAD_HPP
