#include "sim/powermodel.hpp"

#include <algorithm>

#include "support/logging.hpp"

namespace nol::sim {

const char *
powerStateName(PowerState state)
{
    switch (state) {
      case PowerState::Idle: return "idle";
      case PowerState::Compute: return "compute";
      case PowerState::Waiting: return "waiting";
      case PowerState::Receive: return "receive";
      case PowerState::Transmit: return "transmit";
    }
    return "?";
}

PowerModel::PowerModel()
{
    // Defaults from the paper's Sec. 5.2 measurements (fast network).
    rates_[static_cast<int>(PowerState::Idle)] = 300;
    rates_[static_cast<int>(PowerState::Compute)] = 1500;
    rates_[static_cast<int>(PowerState::Waiting)] = 1350;
    rates_[static_cast<int>(PowerState::Receive)] = 2000;
    rates_[static_cast<int>(PowerState::Transmit)] = 3500;
}

void
PowerModel::setRate(PowerState state, double milliwatts)
{
    rates_[static_cast<int>(state)] = milliwatts;
}

double
averagePower(const std::vector<PowerSegment> &timeline, double from_ns,
             double to_ns, double idle_mw)
{
    if (to_ns <= from_ns)
        return idle_mw;
    double energy = 0; // mW * ns
    double covered = 0;
    for (const PowerSegment &seg : timeline) {
        double lo = std::max(seg.startNs, from_ns);
        double hi = std::min(seg.endNs, to_ns);
        if (hi > lo) {
            energy += seg.milliwatts * (hi - lo);
            covered += hi - lo;
        }
    }
    double gap = (to_ns - from_ns) - covered;
    if (gap > 0)
        energy += idle_mw * gap;
    return energy / (to_ns - from_ns);
}

double
PowerModel::secondsInState(PowerState state) const
{
    double total = 0;
    for (const PowerSegment &seg : timeline_) {
        if (seg.state == state)
            total += (seg.endNs - seg.startNs) * 1e-9;
    }
    return total;
}

void
PowerModel::reset()
{
    energy_mj_ = 0;
    timeline_.clear();
}

} // namespace nol::sim
