/**
 * @file
 * Shared pieces of the layered benchmark program: timing, the metric
 * map printed as JSON, the failed/attempted tally, the output oracle,
 * host-time spans, and the three workloads' program sets.
 */
#ifndef PERFBENCH_PERFBENCH_HPP
#define PERFBENCH_PERFBENCH_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/nativeoffloader.hpp"
#include "workloads/workloads.hpp"

namespace perfbench {

using namespace nol;

/** Seconds on the host's monotonic clock. */
inline double
hostNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Median of @p values (0 when empty). */
double median(std::vector<double> values);

/** Host seconds of one run of the fixed calibration loop (calibrate.cpp). */
double calibrationLoop();

/**
 * Host time of a pass: the timed operations, and a calibration loop run
 * after each of them. Host speed on this kind of code drifts by up to
 * 1.7x on a shared machine, for seconds to minutes at a time, and the
 * loop slows down with the operations beside it, so their ratio holds
 * steady where the seconds do not.
 */
struct PassTime {
    double seconds = 0;    ///< host s inside the operations
    double calSeconds = 0; ///< host s of the calibration loops

    /** Count @p op_seconds of one operation, then run the loop
     *  @p loops times (more for long operations). */
    void add(double op_seconds, int loops = 1)
    {
        seconds += op_seconds;
        for (int i = 0; i < loops; ++i)
            calSeconds += calibrationLoop();
    }
    /** The pass in calibration-loop units (pass_norm). */
    double norm() const { return seconds / calSeconds; }
};

/** FNV-1a 64-bit hash, as 16 hex digits. */
std::string fnv1a(const std::string &text);

/** Incremental FNV-1a over a canonical text rendering. */
class Digest
{
  public:
    Digest &add(const std::string &text);
    Digest &add(double value);   ///< exact: hex-float rendering
    Digest &add(uint64_t value);
    std::string hex() const;

  private:
    uint64_t h_ = 0xcbf29ce484222325ull;
};

/** One reported metric. */
struct Metric {
    double value = 0;
    std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/** Operations attempted and failed, with the first few reasons. */
class Tally
{
  public:
    /** Count one operation; it failed unless @p ok. */
    void record(bool ok, const std::string &why);
    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return failed_; }
    const std::vector<std::string> &reasons() const { return reasons_; }

  private:
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
    std::vector<std::string> reasons_;
};

/** Host-time spans recorded around calls into the program's layers. */
class Spans
{
  public:
    struct Span {
        std::string name;
        std::string arg; ///< program id or other detail
        double start = 0;
        double end = 0;
        int parent = -1;
    };

    /** RAII span, opened on construction and closed on destruction;
     *  records nothing when @p spans is null (untraced passes). */
    class Scope
    {
      public:
        Scope(Spans *spans, std::string name, std::string arg = {});
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;
        /** Seconds since the span opened. */
        double elapsed() const;

      private:
        Spans *spans_;
        int id_ = -1;
        double start_;
    };

    /** Sum of the durations of every span called @p name. */
    double total(const std::string &name) const;
    /** Sum of the durations of spans called @p name with @p arg. */
    double total(const std::string &name, const std::string &arg) const;
    /** Chrome trace-event JSON of every span. */
    std::string chromeTrace() const;

  private:
    std::vector<Span> spans_;
    int open_ = -1;
};

/**
 * The committed references: the console + exit digest of each
 * program's evaluation input (outputs.txt), and the digest of every
 * simulated statistic of each workload (sim-digests.txt).
 */
class Oracle
{
  public:
    /** Load both files of @p dir; unreadable files leave it empty. */
    static Oracle load(const std::string &dir);
    /** Digest of a run's observable output. */
    static std::string outputDigest(const runtime::RunReport &report);
    /** True when @p report's output matches the reference for @p id. */
    bool matches(const std::string &id,
                 const runtime::RunReport &report) const;
    bool empty() const { return expected_.empty(); }
    /** Reference simulated-statistics digest for @p key, or nullptr. */
    const std::string *simDigest(const std::string &key) const;

  private:
    std::map<std::string, std::string> expected_;
    std::map<std::string, std::string> sim_;
};

/** Canonical digest of every simulated field of a run report. */
std::string reportDigest(const runtime::RunReport &report);

/** The 17 Table 4 programs plus chess, in a seeded order. */
struct Case {
    std::string id;
    workloads::WorkloadSpec spec;
    /** "arith" or "mem" for the bench_fleet heavy classes, else "". */
    std::string heavyClass;
};
std::vector<Case> suiteCases(uint64_t seed, bool with_chess);

/** A permutation of 0..n-1 drawn from @p seed. */
std::vector<size_t> seededOrder(size_t n, uint64_t seed);

/**
 * The request bench::compileWorkload compiles, for the staged compile
 * (which needs the request itself); the staged-compile check fails if
 * the two ever part.
 */
core::CompileRequest compileRequest(const workloads::WorkloadSpec &spec);

/** The four configurations bench::runSweep runs, forced onto native-C. */
struct SweepConfig {
    std::string name; ///< local, 802.11n, 802.11ac, ideal
    runtime::SystemConfig config;
};
std::vector<SweepConfig> sweepConfigs(double mem_scale);

/** Peak resident set of this process so far, MiB (0 if unknown). */
double peakRssMb();

/** Count compiled artifacts in the run's private codegen directory. */
size_t artifactCount();

/** The traffic trace seed every comparison uses. */
constexpr uint64_t kPinnedTraceSeed = 1987;
/** Held out: untouched while tuning, for confirming gain claims. */
constexpr uint64_t kHeldOutTraceSeed = 2718;

/** Parsed command line. */
struct Options {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    uint64_t traceSeed = kPinnedTraceSeed;
    std::string reference = "perfbench/reference"; ///< directory
    std::string traceOut;     ///< Chrome trace file (traced run only)
    std::string writeReference; ///< regenerate the references and exit
};

/** What one invocation reports. */
struct Result {
    Metrics metrics;
    Tally tally;
    std::vector<std::string> lines; ///< human-readable report
    std::vector<double> passNorm; ///< every timed pass (untraced run)
};

/** Set up a workload, then time whole passes for opts.seconds. */
void runWorkload(const Options &opts, const Oracle &oracle, Result &out);

/**
 * Compare @p digest with the reference for @p workload (and trace seed)
 * and report it in @p lines; a mismatch is a failed operation. Trace
 * seeds without a reference (held out) are reported, not checked.
 */
void checkSimDigest(const Oracle &oracle, const std::string &workload,
                    uint64_t trace_seed, const std::string &digest,
                    Tally &tally, std::vector<std::string> &lines);

/**
 * Regenerate the references in @p dir: outputs on the interpreter,
 * then each workload's simulated-statistics digest.
 */
int writeReference(const std::string &dir);

/** Traced run: every layer, plus the workload's tracing overhead. */
void runLayers(const Options &opts, const Oracle &oracle, Result &out);

/** Microbenchmarks of substrate hot paths (ns per operation). */
struct Probes {
    double translateHitNs = 0;
    double translateMissNs = 0;
    double chargeNs = 0;
    double eventLoopNs = 0;
    double admissionSelectNs = 0;
    double lzMbPerSecond = 0;
};
Probes runProbes(uint32_t queue_depth, Tally &tally);

/** Human-readable formatting helper. */
std::string format(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_HPP
