/**
 * @file
 * Communication manager (paper Sec. 4): moves pages and control
 * messages between the two machines over the simulated network with
 * batching, one-directional (server→mobile) compression, per-category
 * traffic accounting, and clock/power coordination — the mobile radio
 * transmits/receives while the peer waits.
 */
#ifndef NOL_RUNTIME_COMM_HPP
#define NOL_RUNTIME_COMM_HPP

#include <map>
#include <string>
#include <vector>

#include "net/simnetwork.hpp"
#include "sim/simmachine.hpp"

namespace nol::net {
class SharedMedium;
} // namespace nol::net

namespace nol::sim {
class Strand;
} // namespace nol::sim

namespace nol::runtime {

/** Traffic categories (drive the Fig. 7 breakdown). */
enum class CommCategory {
    Control,   ///< offload requests, return values, page-table info
    Prefetch,  ///< initialization heap push (Fig. 5 "prefetch")
    Demand,    ///< copy-on-demand page fetches
    WriteBack, ///< dirty pages at finalization
    RemoteIo,  ///< remote I/O requests and responses
    Digest,    ///< page-cache handshake: digest lists + have/need maps
};

/** Printable category name. */
const char *commCategoryName(CommCategory category);

/** Per-category accounting. */
struct CommTotals {
    uint64_t messages = 0;
    uint64_t wireBytes = 0; ///< after compression
    uint64_t rawBytes = 0;  ///< before compression
    double seconds = 0;
    // Fault-tolerance accounting (all zero on a clean link).
    uint64_t retries = 0;        ///< attempts beyond the first
    uint64_t retryWireBytes = 0; ///< bytes re-transmitted by retries
    uint64_t failures = 0;       ///< transfers abandoned after the
                                 ///< retry budget (trigger failover)
    double retrySeconds = 0;     ///< timeouts + backoff + resends
};

// Timeout and bounded-exponential-backoff constants for transfers over
// a faulty link. A clean link delivers every message on its first
// attempt, so they only matter under an enabled net::FaultPlan.
constexpr uint32_t kMaxAttempts = 5;        ///< total attempts per message
constexpr double kTimeoutMultiplier = 2.0;  ///< timeout = mult*expected + grace
constexpr double kTimeoutGraceNs = 1e6;     ///< fixed ack-wait slack
constexpr double kBaseBackoffNs = 1e6;      ///< first retry delay
constexpr double kBackoffMultiplier = 2.0;  ///< growth per retry
constexpr double kMaxBackoffNs = 64e6;      ///< backoff ceiling

/** Delay before retry number @p retry (0-based), bounded above. */
double retryBackoffNs(uint32_t retry);

/** Sender-side ack timeout for a transfer expected to take
 *  @p expected_ns. */
double retryTimeoutNs(double expected_ns);

/**
 * Thrown when a transfer exhausts its retry budget (lost messages or a
 * hard-down link). The offload runtime catches it at the invocation
 * boundary and fails over to local execution.
 */
struct CommFailure {
    CommCategory category = CommCategory::Control;
    bool linkDown = false; ///< true: hard disconnect, not just loss
};

/** Orchestrates all mobile↔server data movement. */
class CommManager
{
  public:
    CommManager(sim::SimMachine &mobile, sim::SimMachine &server,
                net::SimNetwork &network, bool compression_enabled);

    /** Advance the earlier machine's clock to the later one's. */
    void syncClocks();

    /**
     * One mobile→server message of @p bytes (uncompressed — the paper
     * avoids compressing on the slow mobile CPU).
     */
    void sendToServer(uint64_t bytes, CommCategory category);

    /**
     * One server→mobile message; @p raw_bytes is compressed first when
     * compression is enabled and @p compressible is true. @p payload
     * may supply real bytes so the compressor sees actual content;
     * otherwise an incompressible transfer is assumed.
     */
    void sendToMobile(uint64_t raw_bytes, CommCategory category,
                      bool compressible = false,
                      const std::vector<uint8_t> *payload = nullptr);

    /**
     * Copy @p pages (present on the mobile) to the server in one
     * batched message, clearing the mobile-side dirty bits.
     */
    void pushPagesToServer(const std::vector<uint64_t> &pages,
                           CommCategory category);

    /** Copy-on-demand: fetch one page (request + response round trip). */
    void fetchPageToServer(uint64_t page_num);

    // --- Page-cache digest handshake (server-side page cache) ----------
    //
    // Before a cache-aware prefetch the mobile ships one digest per
    // candidate page; the server answers with a have/need bitmap and
    // only `need` pages ride the Prefetch category afterwards. Both
    // legs are accounted under CommCategory::Digest, so the handshake
    // overhead is visible next to the pages it saved.

    /** Mobile→server digest list: page number + 128-bit digest each. */
    void sendDigestsToServer(uint64_t page_count);

    /** Server→mobile have/need reply: one bit per offered page. */
    void sendHaveNeedToMobile(uint64_t page_count);

    /**
     * Finalization write-back: move every dirty server page to the
     * mobile (batched, compressed), install them there and clear the
     * corresponding mobile dirty bits. Returns raw bytes moved.
     */
    uint64_t writeBackDirtyPages();

    const std::map<CommCategory, CommTotals> &totals() const
    {
        return totals_;
    }

    /** Seconds spent in @p category transfers. */
    double secondsIn(CommCategory category) const;

    /** Wire bytes in @p category. */
    uint64_t bytesIn(CommCategory category) const;

    /** Raw (pre-compression) bytes over all categories. */
    uint64_t totalRawBytes() const;

    /** Total wire bytes over all categories. */
    uint64_t totalWireBytes() const;

    uint64_t demandFaults() const { return demand_faults_; }

    /** Retry attempts over all categories. */
    uint64_t totalRetries() const;

    /** Abandoned transfers (each one triggered a failover). */
    uint64_t totalFailures() const;

    /** Simulated seconds the server spent compressing. */
    double
    compressSeconds() const
    {
        return static_cast<double>(compress_units_server_) *
               server_.spec().nsPerCostUnit * 1e-9;
    }

    /** Simulated seconds the mobile spent decompressing. */
    double
    decompressSeconds() const
    {
        return static_cast<double>(decompress_units_mobile_) *
               mobile_.spec().nsPerCostUnit * 1e-9;
    }

    /**
     * Fleet mode: time transfers on the shared @p medium (cooperatively
     * blocking @p strand) instead of this session's closed-form private
     * pipe. The SimNetwork keeps deciding fault outcomes; only the time
     * source changes. Never attached in a solo run, so single-client
     * timing is untouched.
     */
    void
    attachMedium(net::SharedMedium *medium, sim::Strand *strand)
    {
        medium_ = medium;
        strand_ = strand;
    }

  private:
    /**
     * Move one message: attempts with ack timeouts and bounded backoff
     * until one is delivered (a clean link delivers the first), or
     * throw CommFailure once kMaxAttempts are spent. Remote-I/O
     * messages run at the unscaled link rate. Returns the elapsed ns.
     */
    double transferWithRetry(net::Direction direction, uint64_t bytes,
                             CommCategory category);
    /** One attempt, timed on the private pipe or the shared medium. */
    net::AttemptPlan timedAttempt(uint64_t bytes, bool unscaled);
    void account(CommCategory category, uint64_t wire, uint64_t raw,
                 double ns);

    sim::SimMachine &mobile_;
    sim::SimMachine &server_;
    net::SimNetwork &network_;
    bool compression_;
    net::SharedMedium *medium_ = nullptr; ///< fleet mode only
    sim::Strand *strand_ = nullptr;       ///< fleet mode only
    std::map<CommCategory, CommTotals> totals_;
    uint64_t demand_faults_ = 0;
    uint64_t compress_units_server_ = 0;
    uint64_t decompress_units_mobile_ = 0;
};

} // namespace nol::runtime

#endif // NOL_RUNTIME_COMM_HPP
