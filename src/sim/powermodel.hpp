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
        if (duration_ns <= 0)
            return;
        double mw = rate(state);
        energy_mj_ += mw * duration_ns * 1e-9;

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
     * Account @p reps identical back-to-back segments of @p duration_ns
     * in @p state, the first starting at @p start_ns. Bit-identical to
     * @p reps successive accumulate() calls — the same IEEE values pass
     * through the same sequence of additions — but the loop-invariant
     * products (rate, energy delta) are computed once. This is the
     * native backend's charge-replay loop, which hands the simulator
     * runs of identical per-instruction charges. Requires
     * duration_ns > 0 (callers fall back to accumulate() otherwise).
     * Returns the end time of the last segment.
     */
    double
    accumulateRepeat(double start_ns, double duration_ns, PowerState state,
                     uint64_t reps)
    {
        // First occurrence takes the general merge-or-push path and
        // leaves timeline_.back() as a (state, rate) segment ending at
        // start_ns + duration_ns — exactly where occurrence two starts,
        // so every later occurrence takes accumulate()'s merge arm.
        accumulate(start_ns, duration_ns, state);
        double now = start_ns + duration_ns;
        if (reps > 1) {
            double delta_mj = rate(state) * duration_ns * 1e-9;
            // Registers, not members, inside the loop: the member
            // stores would make each iteration a store-to-load chain
            // through memory. Same values, same order — nothing else
            // can observe the accumulators mid-run.
            PowerSegment &last = timeline_.back();
            double last_end = last.endNs;
            double energy = energy_mj_;
            for (uint64_t k = 1; k < reps; ++k) {
                energy += delta_mj;
                double end = now + duration_ns;
                if (end > last_end)
                    last_end = end;
                now = end;
            }
            energy_mj_ = energy;
            last.endNs = last_end;
        }
        return now;
    }

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
