/**
 * @file
 * Intentionally-broken module-pair corpus: one hand-built partition per
 * verifier invariant, each violating exactly that invariant. The corpus
 * is the verifier's own regression suite — `nol-verify --corpus` (run
 * by CI) and test_analysis both require that every case is rejected
 * with the expected diagnostic code and a witness naming the offending
 * function or instruction.
 */
#ifndef NOL_ANALYSIS_CORPUS_HPP
#define NOL_ANALYSIS_CORPUS_HPP

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "analysis/partitionverifier.hpp"
#include "analysis/repair.hpp"

namespace nol::analysis {

/** One broken partition plus the diagnostic it must provoke. */
struct CorpusCase {
    std::string name;          ///< e.g. "machine-asm-reachable"
    std::string expectCode;    ///< diagnostic code that must fire
    support::DiagSeverity expectSeverity = support::DiagSeverity::Error;
    std::unique_ptr<ir::Module> mobile;
    std::unique_ptr<ir::Module> server;
    std::vector<std::string> targets;
    std::set<std::string> fptrMap;

    /** True if field-insensitive verification must MISS this case (it
     *  only exists at field granularity); such cases double as the
     *  differential evidence that per-field resolution catches broken
     *  partitions the legacy solver cannot. */
    bool fieldSensitiveOnly = false;

    PartitionCheckInput input() const
    {
        PartitionCheckInput in;
        in.mobile = mobile.get();
        in.server = server.get();
        in.targets = targets;
        in.fptrMap = fptrMap;
        return in;
    }

    /** Mutable view for the repair loop (owning pointers stay put). */
    RepairInput repairInput()
    {
        RepairInput in;
        in.mobile = mobile.get();
        in.server = server.get();
        in.targets = &targets;
        in.fptrMap = &fptrMap;
        return in;
    }
};

/** Build every corpus case (each owns its two modules). */
std::vector<CorpusCase> buildBrokenCorpus();

/** Verdict of running the verifier over one corpus case. */
struct CorpusOutcome {
    std::string name;
    std::string expectCode;
    /** Expected code fired at the expected severity. */
    bool fired = false;
    /** The firing diagnostic names a function/instruction (directly or
     *  through its witness chain). */
    bool witnessed = false;
    /** Full rendered diagnostics of the run (for -v / failures). */
    std::string rendered;

    bool passed() const { return fired && witnessed; }
};

/** Run verifyPartition over the whole corpus. */
std::vector<CorpusOutcome> runBrokenCorpus();

/** Verdict of running the repair loop over one corpus case. */
struct CorpusRepairOutcome {
    std::string name;
    RepairReport report;

    /** Repair drove the case to 0 diagnostics within the cap. */
    bool passed() const { return report.converged; }
};

/** Run the verify→repair fixpoint over every corpus case; each case
 *  must converge to 0 diagnostics within kMaxRepairIterations. */
std::vector<CorpusRepairOutcome> runBrokenCorpusWithRepair();

} // namespace nol::analysis

#endif // NOL_ANALYSIS_CORPUS_HPP
