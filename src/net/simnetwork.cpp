#include "net/simnetwork.hpp"

namespace nol::net {

NetworkSpec
makeWifi80211n()
{
    NetworkSpec spec;
    spec.name = "802.11n";
    spec.bandwidthMbps = 144.0;
    spec.latencyUs = 1500.0;
    spec.receiveMw = 1700.0; // the paper's Fig. 8(c) slow-network plateau
    spec.transmitMw = 3800.0;
    return spec;
}

NetworkSpec
makeWifi80211ac()
{
    NetworkSpec spec;
    spec.name = "802.11ac";
    spec.bandwidthMbps = 844.0;
    spec.latencyUs = 1500.0;
    spec.receiveMw = 2000.0;
    spec.transmitMw = 4500.0;
    return spec;
}

NetworkSpec
makeCloudlet()
{
    NetworkSpec spec = makeWifi80211ac();
    spec.name = "cloudlet";
    spec.latencyUs = 300.0; // one hop, no WAN
    return spec;
}

NetworkSpec
makeLteCloud()
{
    NetworkSpec spec;
    spec.name = "lte-cloud";
    spec.bandwidthMbps = 40.0;
    spec.latencyUs = 60000.0; // 60 ms WAN round trips
    spec.receiveMw = 2500.0;  // cellular radio is hungrier than WiFi
    spec.transmitMw = 5000.0;
    return spec;
}

// --- Fault injection -------------------------------------------------------

FaultPlan
FaultPlan::fromSeed(uint64_t sweep_seed)
{
    Rng rng(sweep_seed);
    FaultPlan plan;
    plan.enabled = true;
    plan.seed = sweep_seed;
    plan.dropRate = rng.uniform() * 0.3;
    plan.latencySpikeRate = rng.uniform() * 0.2;
    plan.latencySpikeFactor = 2.0 + rng.uniform() * 18.0;
    plan.bandwidthFactor = 1.0 + rng.uniform() * 3.0;
    if (rng.chance(0.4))
        plan.disconnectAtMessage = 1 + rng.below(120);
    if (rng.chance(0.3))
        plan.disconnectAtByte = 1 + rng.below(2'000'000);
    if (rng.chance(0.5))
        plan.reconnectAfterAttempts = 1 + rng.below(8);
    return plan;
}

void
SimNetwork::setFaultPlan(const FaultPlan &plan)
{
    plan_ = plan;
    fault_rng_.reseed(plan.seed);
    link_up_ = true;
    msg_disconnect_fired_ = false;
    byte_disconnect_fired_ = false;
    attempts_ = 0;
    attempted_bytes_ = 0;
    down_attempts_ = 0;
    events_.clear();
}

AttemptPlan
SimNetwork::planAttempt(uint64_t bytes, bool unscaled)
{
    AttemptPlan plan;
    plan.latencyNs = spec_.latencyUs * 1e3;
    plan.bitsPerSecond = bitsPerSecond(unscaled);

    if (!plan_.enabled) {
        plan.ns = durationNs(plan.latencyNs, bytes, plan.bitsPerSecond);
        return plan;
    }

    ++attempts_;
    attempted_bytes_ += bytes;

    if (!link_up_) {
        if (plan_.reconnectAfterAttempts != 0 &&
            down_attempts_ >= plan_.reconnectAfterAttempts) {
            link_up_ = true;
            down_attempts_ = 0;
            events_.push_back({attempts_, FaultKind::Reconnect});
        } else {
            ++down_attempts_;
            plan.outcome = TransferOutcome::LinkDown;
            return plan;
        }
    }

    if (!msg_disconnect_fired_ && plan_.disconnectAtMessage != 0 &&
        attempts_ >= plan_.disconnectAtMessage) {
        msg_disconnect_fired_ = true;
        link_up_ = false;
    }
    if (!byte_disconnect_fired_ && plan_.disconnectAtByte != 0 &&
        attempted_bytes_ >= plan_.disconnectAtByte) {
        byte_disconnect_fired_ = true;
        link_up_ = false;
    }
    if (!link_up_) {
        events_.push_back({attempts_, FaultKind::Disconnect});
        down_attempts_ = 1;
        plan.outcome = TransferOutcome::LinkDown;
        return plan;
    }

    // Draw both decisions every attempt so the random stream stays
    // aligned regardless of which faults are configured.
    bool dropped = fault_rng_.chance(plan_.dropRate);
    bool spiked = fault_rng_.chance(plan_.latencySpikeRate);

    plan.latencyNs = spec_.latencyUs * 1e3 *
                     (spiked ? plan_.latencySpikeFactor : 1.0);
    plan.bitsPerSecond /= plan_.bandwidthFactor;
    plan.ns = durationNs(plan.latencyNs, bytes, plan.bitsPerSecond);

    if (spiked)
        events_.push_back({attempts_, FaultKind::LatencySpike});
    if (dropped) {
        events_.push_back({attempts_, FaultKind::Drop});
        plan.outcome = TransferOutcome::Dropped;
    }
    return plan;
}

} // namespace nol::net
