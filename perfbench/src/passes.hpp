/**
 * @file
 * The three workloads as set-up + one-pass objects, shared by the
 * untraced run (workloads.cpp) and the traced run (layers.cpp). A pass
 * checks every output it produces against the oracle and tallies each
 * compile, run or session as one operation.
 */
#ifndef PERFBENCH_PASSES_HPP
#define PERFBENCH_PASSES_HPP

#include <array>

#include "perfbench.hpp"
#include "traffic/harness.hpp"
#include "traffic/mix.hpp"
#include "traffic/trace.hpp"

namespace perfbench {

/** What a compile must reproduce on every pass. */
struct CompileFingerprint {
    std::vector<std::string> targets;
    std::string digest; ///< targets, UVA, fptr map and profile totals
};
CompileFingerprint fingerprintOf(const compiler::CompiledProgram &prog);

/** `compile`: Program::compile over the 17 programs plus chess. */
class CompileWorkload
{
  public:
    explicit CompileWorkload(uint64_t seed);
    /** One untimed warm-up pass; records each program's fingerprint. */
    void setup(Tally &tally);
    /** Compile every program once. */
    PassTime pass(Tally &tally);
    /** Digest of every fingerprint, in canonical (id) order. */
    std::string simDigest() const;

  private:
    bool check(size_t i, const compiler::CompiledProgram &prog,
               std::string *why) const;

    std::vector<Case> cases_;
    std::vector<CompileFingerprint> refs_;
};

/** `paper-sweep`: the Fig. 6 sweep over precompiled programs. */
class SweepWorkload
{
  public:
    static constexpr size_t kConfigs = 4; ///< local, 11n, 11ac, ideal

    struct Pass {
        double localSeconds = 0;   ///< host s, local runs
        double offloadSeconds = 0; ///< host s, 11n + 11ac + ideal runs
        PassTime time;             ///< all runs, calibrated per program
        /** Host seconds and report per case and configuration. */
        std::vector<std::array<double, kConfigs>> host;
        std::vector<std::array<runtime::RunReport, kConfigs>> reports;
    };

    explicit SweepWorkload(uint64_t seed);
    /** Compile the 17 programs, then run each configuration once. */
    void setup(const Oracle &oracle, Tally &tally);
    /** Adopt already-compiled programs (traced run), then warm them. */
    void adopt(std::vector<std::shared_ptr<core::Program>> programs,
               const Oracle &oracle, Tally &tally);
    /** Run every program under the four configurations once. */
    Pass pass(const Oracle &oracle, Tally &tally, Spans *spans = nullptr);

    /** Digest of every simulated field of a pass, in id order. */
    std::string simDigest(const Pass &pass) const;
    /** Geomean local / 802.11ac mobile seconds (Fig. 6a). */
    double speedupAc(const Pass &pass) const;
    /** 1 − geomean 802.11ac / local energy (Fig. 6b). */
    double batterySavingAc(const Pass &pass) const;

    const std::vector<Case> &cases() const { return cases_; }
    /** Case indices in id order: sums over it never depend on the seed. */
    std::vector<size_t> canonicalOrder() const;
    const std::vector<SweepConfig> &configs(size_t i) const
    {
        return configs_[i];
    }

  private:
    void warm(const Oracle &oracle, Tally &tally);

    std::vector<Case> cases_;
    std::vector<std::shared_ptr<core::Program>> programs_;
    std::vector<std::vector<SweepConfig>> configs_;
};

/** `traffic`: runOpenLoop over the 17-program suite mix. */
class TrafficWorkload
{
  public:
    struct Pass {
        double generateSeconds = 0;
        double runSeconds = 0; ///< host s inside runOpenLoop
        PassTime time;         ///< both, calibrated after the cell
        traffic::TrafficReport report;
    };

    TrafficWorkload(uint64_t seed, uint64_t trace_seed);
    /** Compile the suite mix and warm each class's native artifacts. */
    void setup(const Oracle &oracle, Tally &tally);
    /** Generate the trace and drive it through one server. */
    Pass pass(const Oracle &oracle, Tally &tally, Spans *spans = nullptr);
    std::string simDigest(const Pass &pass) const;

    const traffic::BuiltinMix &mix() const { return mix_; }

  private:
    uint64_t seed_;
    traffic::TraceConfig traceConfig_;
    runtime::AdmissionConfig admission_;
    traffic::BuiltinMix mix_;
};

} // namespace perfbench

#endif // PERFBENCH_PASSES_HPP
