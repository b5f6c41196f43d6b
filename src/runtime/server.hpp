/**
 * @file
 * The multi-client offload server runtime: owns the fleet's shared
 * discrete-event timeline (sim::EventLoop), the contended wireless
 * medium (net::SharedMedium), the content-addressed page cache, and
 * admission control bounding how many offloading processes run
 * concurrently.
 *
 * Admission: an offload that arrives while all slots are busy queues;
 * a released slot passes to the waiter the configured AdmissionPolicy
 * picks (FIFO by default — see runtime/admission.hpp for the policy
 * catalog and the optional autoscaling slot pool). A waiter that
 * queues longer than the configured timeout is denied and the session
 * runs that target locally instead (overflow) — the fleet degrades to
 * local execution under load rather than deadlocking.
 */
#ifndef NOL_RUNTIME_SERVER_HPP
#define NOL_RUNTIME_SERVER_HPP

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "decision/model.hpp"
#include "decision/priors.hpp"
#include "runtime/admission.hpp"
#include "runtime/session.hpp"
#include "sim/pagedmemory.hpp"

namespace nol::runtime {

/** Page-cache LRU eviction bound (32 MiB). */
constexpr uint64_t kPageCacheCapacityPages = 8192;

/**
 * Admission-wave coalescing window: prefetches registering within this
 * span of the wave's first registrant flush together, and the wave's
 * union of unique pages crosses the medium once.
 */
constexpr double kPrefetchBatchWindowSeconds = 0.002;

/** What the page cache and the prefetch batcher saw over one run. */
struct PageCacheStats {
    uint64_t lookups = 0;        ///< digests probed by handshakes
    uint64_t hitPages = 0;       ///< served straight from the cache
    uint64_t coalescedPages = 0; ///< deduped against an in-flight wave
    uint64_t missPages = 0;      ///< assigned to a carrier (transferred)
    uint64_t insertedPages = 0;
    uint64_t evictedPages = 0;
    uint64_t prefetchWaves = 0;    ///< admission waves flushed
    uint64_t batchedSessions = 0;  ///< members of multi-session waves
};

/**
 * Content-addressed store of page contents the server has already
 * received, keyed by digest of the endianness-normalized (unified-ABI)
 * page bytes. Identical read-only pages — globals, code-adjacent
 * tables — of clients running the same binary therefore hit regardless
 * of which session pushed them first. No invalidation protocol is
 * needed for correctness: a page dirtied by one session gets a new
 * digest and simply misses, while the old entry keeps serving sessions
 * that still hold the old content until LRU eviction retires it.
 */
class PageCache
{
  public:
    explicit PageCache(uint64_t capacity_pages)
        : capacity_(capacity_pages)
    {}

    /** True if @p digest is cached (no LRU bump, no stats). */
    bool contains(const sim::PageDigest &digest) const
    {
        return entries_.count(digest) != 0;
    }

    /**
     * Bytes of the cached page for @p digest (bumping its LRU slot),
     * or nullptr on miss.
     */
    const uint8_t *lookup(const sim::PageDigest &digest);

    /** Admit @p data under @p digest, evicting LRU entries if full. */
    void insert(const sim::PageDigest &digest, const uint8_t *data);

    uint64_t pages() const { return entries_.size(); }
    uint64_t insertedPages() const { return inserted_; }
    uint64_t evictedPages() const { return evicted_; }

  private:
    struct Entry {
        std::vector<uint8_t> bytes;
        uint64_t tick = 0; ///< LRU stamp (monotone use counter)
    };

    uint64_t capacity_;
    uint64_t tick_ = 0;
    std::unordered_map<sim::PageDigest, Entry, sim::PageDigestHash>
        entries_;
    std::map<uint64_t, sim::PageDigest> lru_; ///< tick → digest
    uint64_t inserted_ = 0;
    uint64_t evicted_ = 0;
};

/** One page a session offers to (or wants from) the server cache. */
struct PrefetchOffer {
    uint64_t pageNum = 0;
    sim::PageDigest digest;
};

/** The batcher's answer to one session's digest handshake. */
struct PrefetchPlan {
    uint64_t waveId = 0;
    double flushNs = 0; ///< virtual time the wave flushed (wake time)
    std::vector<PrefetchOffer> carry;  ///< "need": this session transfers
    std::vector<PrefetchOffer> cached; ///< "have": cache / peers / waves
    std::vector<uint64_t> dependsOnWaves; ///< carriers still in flight
};

/** Outcome of one admission request. */
struct AdmissionResult {
    bool granted = false;
    double wakeNs = 0;   ///< virtual time the decision was delivered
    double waitedNs = 0; ///< time spent queued (0 = immediate grant)
};

/** One client of a fleet run. */
struct FleetClient {
    std::string name;
    SystemConfig config;
    RunInput input;
    double startSeconds = 0; ///< arrival time on the fleet timeline
    int priority = 0; ///< admission priority (Priority policy only)
    /**
     * Program this client runs; nullptr = the server's program. Lets
     * one fleet carry a heavy-tailed mix of workloads (src/traffic) —
     * page sharing still works because the cache is content-addressed.
     */
    const compiler::CompiledProgram *program = nullptr;
};

/** One client's outcome. */
struct FleetClientResult {
    std::string name;
    RunReport report;
    double startSeconds = 0;
    double finishSeconds = 0;
    double latencySeconds = 0; ///< finish − start
};

/** Aggregate outcome of one fleet run. */
struct FleetReport {
    std::vector<FleetClientResult> clients;
    double makespanSeconds = 0; ///< latest client finish
    uint64_t totalOffloads = 0;
    uint64_t totalLocalRuns = 0;
    uint64_t totalFailovers = 0;
    uint64_t admissionWaits = 0;
    uint64_t admissionDenials = 0;
    double admissionWaitSeconds = 0;
    double serverBusySeconds = 0;  ///< Σ per-session server compute
    double mediumBusySeconds = 0;  ///< virtual time with ≥1 flow in air
    uint64_t mediumBytes = 0;      ///< payload bytes the channel carried
    double offloadsPerSecond = 0;  ///< totalOffloads / makespan
    double latencyP50Seconds = 0;
    double latencyP95Seconds = 0;
    double latencyP99Seconds = 0;
    double latencyP999Seconds = 0;
    uint32_t peakConcurrentSessions = 0; ///< admitted at once
    uint32_t peakConcurrentFlows = 0;    ///< medium contention peak
    PageCacheStats cache;                ///< all-zero when cache is off

    // Decision-stack accounting (all-zero when both flags are off).
    uint64_t priorsSeededSessions = 0;   ///< sessions seeded ≥1 target
    uint64_t priorsSeededTargets = 0;    ///< Σ targets seeded from priors
    uint64_t totalColdStartOffloads = 0; ///< Σ zero-observation offloads
    uint64_t totalQueueAvoidedLocals = 0; ///< Σ queue-erased verdicts
};

/** The offload server plus the fleet harness around it. */
class ServerRuntime
{
  public:
    explicit ServerRuntime(const compiler::CompiledProgram &program,
                           AdmissionConfig admission = {});
    ~ServerRuntime();

    /** Simulate @p clients against one server; blocks until done. */
    FleetReport run(const std::vector<FleetClient> &clients);

    /**
     * Observe every loadSnapshot() republication, stamped with the
     * virtual time of the triggering event. The traffic harness uses
     * this to record the queue-depth time series; pass nullptr to
     * detach. Purely observational — installs no behavior change.
     */
    using LoadObserver =
        std::function<void(double now_ns, const decision::LoadSnapshot &)>;
    void setLoadObserver(LoadObserver observer)
    {
        load_observer_ = std::move(observer);
    }

    // --- Session-facing interface (called from session strands) --------

    /**
     * Request a server slot at virtual time @p now_ns. Cooperatively
     * blocks the strand until granted or denied (queue timeout).
     * @p request carries what the admission policy may weigh: the
     * client's priority and the Eq. 1 predicted hold time.
     */
    AdmissionResult acquire(sim::Strand &strand, uint64_t session_id,
                            double now_ns, AdmissionRequest request = {});

    /** Return a slot; a queued waiter (policy's pick) inherits it. */
    void release(uint64_t session_id, double now_ns);

    /**
     * The server's live load, republished on every grant, queue change
     * and release: slot pool size, active sessions, queue depth and the
     * mean slot-hold time of completed holds. Sessions read it
     * synchronously (single-threaded event loop, no tearing) to feed
     * the admission-aware queue-wait term of Equation 1.
     */
    const decision::LoadSnapshot &loadSnapshot() const { return load_; }

    /**
     * Fleet-wide per-target knowledge base (speed ratio observations,
     * per-invocation seconds, traffic, failure history) aggregated
     * across sessions. New sessions seed their decision::Engine from it
     * at admission when SystemConfig::fleetPriorsEnabled. Reset at the
     * start of every run().
     */
    decision::FleetPriors &fleetPriors() { return priors_; }

    /**
     * Test-only: bind the admission machinery to an external event
     * loop and reset its run-scoped state, so unit tests can exercise
     * acquire()/release() from raw strands without a full
     * fleet run. Detach by passing nullptr before the loop dies.
     */
    void attachLoopForTesting(sim::EventLoop *loop);

    // --- Page cache + prefetch batching (called from session strands) --
    //
    // Life cycle of one cache-aware prefetch: the session wires its
    // digest list, calls planPrefetch() (blocks until the admission
    // wave flushes and returns the have/need split), transfers only
    // its `carry` slice, then finishPrefetch() (arrival barrier: the
    // carried bytes enter the cache and the strand blocks until every
    // carrier this plan relies on has arrived or aborted), and finally
    // collectCachedPages() installs the `cached` pages server-side
    // without any bytes on the medium. A carrier whose slice transfer
    // fails calls abortPrefetch() instead so peers never deadlock —
    // pages it was carrying simply stay missing and are backfilled by
    // copy-on-demand.

    /** True when this run can share pages (≥2 clients); each session
     *  still opts in through SystemConfig::pageCacheEnabled. */
    bool cacheActive() const { return cache_active_; }

    /**
     * Register @p offers with the current admission wave and block the
     * strand until the wave flushes; returns the have/need plan.
     */
    PrefetchPlan planPrefetch(sim::Strand &strand, uint64_t session_id,
                              double now_ns,
                              std::vector<PrefetchOffer> offers);

    /**
     * Arrival barrier: admit this session's @p carried pages (bytes
     * read from @p server_mem) to the cache, then block until the own
     * wave and every wave in @p depends_on completed. Returns the
     * barrier-release virtual time.
     */
    double finishPrefetch(sim::Strand &strand, uint64_t wave_id,
                          const std::vector<uint64_t> &depends_on,
                          double now_ns,
                          const std::vector<PrefetchOffer> &carried,
                          const sim::PagedMemory &server_mem);

    /**
     * A carrier's slice transfer failed mid-flight: release its
     * pending digests and count it as arrived so the wave completes.
     */
    void abortPrefetch(uint64_t wave_id,
                       const std::vector<PrefetchOffer> &carried,
                       double now_ns);

    /**
     * Install every @p wanted page whose digest is cached into
     * @p server_mem (no medium bytes). Returns the served page
     * numbers; missing ones stay absent for copy-on-demand.
     */
    std::vector<uint64_t>
    collectCachedPages(sim::Strand &strand, double now_ns,
                       const std::vector<PrefetchOffer> &wanted,
                       sim::PagedMemory &server_mem);

    /**
     * Write-back ledger admission: at finalization the server already
     * holds the pages it just wrote back, so their contents enter the
     * cache for free. This is what de-duplicates a failover-reconnect
     * prefetch against state the server has already seen. @p contents
     * are owned copies (the caller's memory may change before the
     * event fires).
     */
    void admitWriteBack(double now_ns, std::vector<PrefetchOffer> pages,
                        std::vector<std::vector<uint8_t>> contents);

  private:
    struct Waiter {
        sim::Strand *strand = nullptr;
        AdmissionResult *result = nullptr;
        uint64_t sessionId = 0;
        double enqueueNs = 0;
        uint64_t timeoutEvent = 0;
        AdmissionRequest request;
    };

    /** One admission wave of the prefetch batcher. */
    struct PrefetchWave {
        uint64_t id = 0;
        bool flushed = false;
        bool done = false;
        uint32_t expected = 0;
        uint32_t arrived = 0;
        struct Member {
            sim::Strand *strand = nullptr;
            uint64_t sessionId = 0;
            std::vector<PrefetchOffer> offers;
            PrefetchPlan *plan = nullptr;
        };
        std::vector<Member> members;
    };

    /** A strand parked until a set of waves completes. */
    struct WaveWaiter {
        sim::Strand *strand = nullptr;
        std::set<uint64_t> remaining;
    };

    void resetAdmission();
    void grant(Waiter waiter, double now_ns);
    void grantSelected(double now_ns);
    void freeSlot(uint64_t session_id, double now_ns);
    void publishLoad(double now_ns);
    void maybeShrinkPool();
    void flushWave(uint64_t wave_id, double now_ns);
    void waveArrived(uint64_t wave_id, double now_ns);

    const compiler::CompiledProgram &program_;
    AdmissionConfig admission_;
    std::unique_ptr<AdmissionPolicy> policy_; ///< slot-inheritance strategy

    // Valid only during run() (the fleet's shared infrastructure).
    sim::EventLoop *loop_ = nullptr;

    uint32_t active_ = 0;
    uint32_t slots_ = 0; ///< live pool size (== config unless autoscaled)
    std::deque<Waiter> queue_;

    uint64_t admission_waits_ = 0;
    uint64_t admission_denials_ = 0;
    double admission_wait_ns_ = 0;
    uint32_t peak_active_ = 0;

    // Live load bookkeeping behind loadSnapshot(). Hold times are
    // measured grant→release per session; the mean feeds E[wait].
    decision::LoadSnapshot load_;
    LoadObserver load_observer_;
    std::unordered_map<uint64_t, double>
        hold_start_ns_; ///< session → grant time
    double hold_total_ns_ = 0;
    uint64_t hold_count_ = 0;

    // Fleet-shared decision priors (run-scoped, see fleetPriors()).
    decision::FleetPriors priors_;

    // Page cache + batcher (run-scoped like the admission state).
    bool cache_active_ = false;
    std::unique_ptr<PageCache> cache_;
    std::map<uint64_t, PrefetchWave> waves_;
    uint64_t open_wave_ = 0; ///< unflushed wave id, 0 = none
    uint64_t next_wave_ = 1;
    /** Digests assigned to an in-flight carrier: digest → wave. */
    std::unordered_map<sim::PageDigest, uint64_t, sim::PageDigestHash>
        pending_;
    std::vector<WaveWaiter> wave_waiters_;
    PageCacheStats cache_stats_;
};

} // namespace nol::runtime

#endif // NOL_RUNTIME_SERVER_HPP
