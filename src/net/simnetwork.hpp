/**
 * @file
 * Simulated wireless network between the mobile device and the server.
 * Models the paper's two WiFi environments — 802.11n "slow" (144 Mbps)
 * and 802.11ac "fast" (844 Mbps) — as a bandwidth + per-message
 * latency pipe that times messages and injects faults. Traffic is
 * accounted by its one user, runtime::CommManager.
 *
 * The workload memory footprints in this reproduction are scaled down
 * by a configurable factor k; the effective bandwidth is divided by
 * the same k, so every time ratio (Eq. 1, Figs. 6-7) is preserved
 * exactly while keeping simulation sizes tractable.
 */
#ifndef NOL_NET_SIMNETWORK_HPP
#define NOL_NET_SIMNETWORK_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "support/rng.hpp"

namespace nol::net {

/** Static description of one network environment. */
struct NetworkSpec {
    std::string name;
    double bandwidthMbps = 844.0; ///< paper-equivalent link bandwidth
    double latencyUs = 300.0;     ///< per-message latency
    double receiveMw = 2000.0;    ///< mobile radio receive power
    double transmitMw = 3500.0;   ///< mobile radio transmit power
};

/** 802.11n, the paper's "slow" environment (max 144 Mbps). */
NetworkSpec makeWifi80211n();

/** 802.11ac, the paper's "fast" environment (max 844 Mbps). */
NetworkSpec makeWifi80211ac();

/**
 * A Cloudlet: a server one wireless hop away (paper Sec. 6 cites
 * Satyanarayanan et al.'s case for nearby servers to cut latency).
 * Same 802.11ac radio, but ~5x lower round-trip latency than a
 * WAN-routed cloud server.
 */
NetworkSpec makeCloudlet();

/**
 * A distant cloud datacenter over LTE: lower bandwidth and much
 * higher latency — the unfavorable end of the deployment spectrum.
 */
NetworkSpec makeLteCloud();

/** Transfer direction. */
enum class Direction {
    MobileToServer,
    ServerToMobile,
};

/** Kind of one injected fault (recorded in the event trace). */
enum class FaultKind {
    Drop,         ///< transmitted but never delivered
    LatencySpike, ///< delivered after inflated latency
    Disconnect,   ///< link went hard-down before this attempt
    Reconnect,    ///< link healed before this attempt
};

/** One injected fault, keyed by the global attempt counter. */
struct FaultEvent {
    uint64_t attempt = 0; ///< 1-based attempt index when it fired
    FaultKind kind = FaultKind::Drop;

    bool operator==(const FaultEvent &other) const
    {
        return attempt == other.attempt && kind == other.kind;
    }
};

/**
 * Deterministic fault schedule. Every random decision is drawn from a
 * private Rng seeded with `seed`, one draw pair per attempt in attempt
 * order, so the same plan over the same message sequence produces a
 * bit-identical event trace. A default-constructed plan is disabled:
 * every attempt is delivered at the clean link parameters, with no
 * random draw and no fault event.
 */
struct FaultPlan {
    bool enabled = false;
    uint64_t seed = 0;
    double dropRate = 0.0;            ///< per-attempt delivery loss
    double latencySpikeRate = 0.0;    ///< per-attempt latency spike
    double latencySpikeFactor = 10.0; ///< spike multiplies latencyUs
    double bandwidthFactor = 1.0;     ///< divides effective bandwidth
    uint64_t disconnectAtMessage = 0; ///< link-down at attempt N (0 = never)
    uint64_t disconnectAtByte = 0;    ///< link-down once attempted bytes ≥ N
    uint64_t reconnectAfterAttempts = 0; ///< failed attempts while down
                                         ///< before the link heals (0 =
                                         ///< stays down forever)

    /**
     * A mixed random-but-reproducible plan for seed sweeps: drop rate,
     * spikes, degradation and disconnect schedule all derived from
     * @p sweep_seed alone.
     */
    static FaultPlan fromSeed(uint64_t sweep_seed);
};

/** What happened to one transfer attempt. */
enum class TransferOutcome {
    Delivered, ///< arrived; ns is the full transfer duration
    Dropped,   ///< transmitted and lost; ns is the wasted send time
    LinkDown,  ///< nothing transmitted; the sender must time out
};

/**
 * The injector's decision for one attempt together with the link
 * parameters it saw, so a contended SharedMedium can time the attempt
 * instead of the closed-form pipe (the fault decision is per-session
 * and must stay deterministic regardless of fleet interleaving).
 */
struct AttemptPlan {
    TransferOutcome outcome = TransferOutcome::Delivered;
    double latencyNs = 0;     ///< per-message latency (spiked if so)
    double bitsPerSecond = 0; ///< effective rate for this attempt
    double ns = 0;            ///< uncontended closed-form duration;
                              ///< 0 for LinkDown (nothing was sent)
};

/** The pipe itself: times messages and decides their fate. */
class SimNetwork
{
  public:
    /**
     * @param scale memory/bandwidth scale factor k (see file comment);
     *        effective bandwidth = spec.bandwidthMbps / scale.
     */
    SimNetwork(NetworkSpec spec, double scale = 1.0)
        : spec_(std::move(spec)), scale_(scale)
    {}

    const NetworkSpec &spec() const { return spec_; }
    double scale() const { return scale_; }

    /** Effective bandwidth in bits per simulated second. */
    double
    effectiveBitsPerSecond() const
    {
        return spec_.bandwidthMbps * 1e6 / scale_;
    }

    /**
     * Effective rate in bits/s. @p unscaled selects the true link
     * bandwidth, used for remote-I/O round trips: the scale factor k
     * compensates for scaled-down page and file payloads, but
     * per-operation control messages were never scaled, so they see
     * the true link (latency-dominated, as on real WiFi).
     */
    double
    bitsPerSecond(bool unscaled) const
    {
        return unscaled ? spec_.bandwidthMbps * 1e6
                        : effectiveBitsPerSecond();
    }

    /** The link-duration formula: latency plus serialization of
     *  @p bytes at @p bits_per_second, in nanoseconds. */
    static double
    durationNs(double latency_ns, uint64_t bytes, double bits_per_second)
    {
        return latency_ns +
               static_cast<double>(bytes) * 8.0 / bits_per_second * 1e9;
    }

    /** Clean-link duration of one message of @p bytes in nanoseconds,
     *  at the scaled or (@p unscaled) true bandwidth. */
    double
    transferTimeNs(uint64_t bytes, bool unscaled = false) const
    {
        return durationNs(spec_.latencyUs * 1e3, bytes,
                          bitsPerSecond(unscaled));
    }

    // --- Fault injection ------------------------------------------------

    /** Install @p plan and reset all injector state. */
    void setFaultPlan(const FaultPlan &plan);

    const FaultPlan &faultPlan() const { return plan_; }

    /** False while a hard disconnect is in effect. */
    bool linkUp() const { return link_up_; }

    /**
     * Decide the fate of one attempt of @p bytes under the fault plan,
     * advancing the injector's random stream and event trace, and time
     * it on the closed-form pipe. The caller uses `ns` or asks the
     * SharedMedium to time the attempt with the returned link
     * parameters. With the plan disabled this is a Delivered attempt
     * at transferTimeNs(bytes, unscaled).
     */
    AttemptPlan planAttempt(uint64_t bytes, bool unscaled = false);

    /** Every fault injected so far, in attempt order. */
    const std::vector<FaultEvent> &faultEvents() const { return events_; }

  private:
    NetworkSpec spec_;
    double scale_;

    // Fault-injector state (inert while plan_.enabled is false).
    FaultPlan plan_;
    Rng fault_rng_;
    bool link_up_ = true;
    bool msg_disconnect_fired_ = false;
    bool byte_disconnect_fired_ = false;
    uint64_t attempts_ = 0;
    uint64_t attempted_bytes_ = 0;
    uint64_t down_attempts_ = 0;
    std::vector<FaultEvent> events_;
};

} // namespace nol::net

#endif // NOL_NET_SIMNETWORK_HPP
