/**
 * @file
 * Battery/power model of the mobile device, reproducing the power
 * states the paper measured with a Monsoon monitor (Sec. 5.2, Fig. 8):
 * idle ~300 mW, waiting for the server ~1350 mW, receiving ~2000 mW,
 * transmitting 2000–5000 mW, and local computation. Energy is the
 * integral of state power over simulated time; the recorded timeline
 * regenerates the Fig. 8 power-vs-time traces.
 */
#ifndef NOL_SIM_POWERMODEL_HPP
#define NOL_SIM_POWERMODEL_HPP

#include <cstdint>
#include <vector>

namespace nol::sim {

/** Mobile-device power states. */
enum class PowerState {
    Idle,     ///< screen-on idle (~300 mW)
    Compute,  ///< CPU busy with local execution
    Waiting,  ///< blocked on the server (~1350 mW)
    Receive,  ///< radio receiving (~2000 mW fast / ~1700 mW slow)
    Transmit, ///< radio transmitting (2000–5000 mW)
};

/** Printable name of a power state. */
const char *powerStateName(PowerState state);

/** One constant-power segment of the timeline. */
struct PowerSegment {
    double startNs = 0;
    double endNs = 0;
    PowerState state = PowerState::Idle;
    double milliwatts = 0;
};

/**
 * Average power (mW) of @p timeline over [from_ns, to_ns]; time no
 * segment covers counts at @p idle_mw.
 */
double averagePower(const std::vector<PowerSegment> &timeline,
                    double from_ns, double to_ns, double idle_mw);

/** Integrates power over simulated time and records the trace. */
class PowerModel
{
  public:
    PowerModel();

    /** Override the power draw of @p state in milliwatts. */
    void setRate(PowerState state, double milliwatts);

    /** Power draw of @p state in milliwatts. */
    double rate(PowerState state) const
    {
        return rates_[static_cast<int>(state)];
    }

    /**
     * Account @p duration_ns of simulated time spent in @p state,
     * starting at @p start_ns. Adjacent same-state segments merge.
     * Inline: this runs once per charged guest instruction, on both
     * execution backends — it is the floor under their wall clock.
     */
    void
    accumulate(double start_ns, double duration_ns, PowerState state)
    {
        accumulate(start_ns, duration_ns, state,
                   rate(state) * duration_ns * 1e-9);
    }

    /** accumulate() with its energy delta precomputed (SimMachine). */
    void
    accumulate(double start_ns, double duration_ns, PowerState state,
               double energy_mj)
    {
        if (duration_ns <= 0)
            return;
        double mw = rate(state);
        energy_mj_ += energy_mj;

        if (!timeline_.empty()) {
            PowerSegment &last = timeline_.back();
            if (last.state == state && last.milliwatts == mw &&
                last.endNs >= start_ns - 1.0) {
                double end = start_ns + duration_ns;
                if (end > last.endNs)
                    last.endNs = end;
                return;
            }
        }
        timeline_.push_back(
            {start_ns, start_ns + duration_ns, state, mw});
    }

    /**
     * The last segment if it is an open run of @p state at @p now_ns:
     * same state, current rate, ending exactly at @p now_ns. Then
     * accumulate(now_ns, d, state) with d > 0 only adds to the energy
     * and moves this segment's end to now_ns + d, and the run stays
     * open at the new time — which is what lets the native-C backend
     * replay compute charges inline (SimMachine::openComputeRun).
     * nullptr otherwise. The pointer is invalidated by the next push.
     */
    PowerSegment *
    openRun(double now_ns, PowerState state)
    {
        if (timeline_.empty())
            return nullptr;
        PowerSegment &last = timeline_.back();
        if (last.state != state || last.milliwatts != rate(state) ||
            last.endNs != now_ns)
            return nullptr;
        return &last;
    }

    /** The energy accumulator, for the same inline replay. */
    double *energySlot() { return &energy_mj_; }

    /** Total energy in millijoules. */
    double energyMillijoules() const { return energy_mj_; }

    /** Recorded trace for Fig. 8-style plots. */
    const std::vector<PowerSegment> &timeline() const { return timeline_; }

    /** Total simulated seconds spent in @p state. */
    double secondsInState(PowerState state) const;

    /** Forget everything. */
    void reset();

  private:
    double rates_[5];
    double energy_mj_ = 0;
    std::vector<PowerSegment> timeline_;
};

} // namespace nol::sim

#endif // NOL_SIM_POWERMODEL_HPP
