/**
 * @file
 * Offload-safety verification CLI. Compiles workloads through the full
 * pipeline and runs the post-partition verifier over the emitted
 * mobile/server module pairs; CI treats any diagnostic as a failure.
 *
 * Usage:
 *   nol-verify             verify all 17 workloads + chess
 *   nol-verify <id>...     verify selected workloads ("chess" allowed)
 *   nol-verify --corpus    self-test: every intentionally-broken module
 *                          pair must be rejected with the expected
 *                          diagnostic and a witness
 *   nol-verify --corpus --repair
 *                          repair self-test: the verify→repair fixpoint
 *                          must drive every broken pair to 0
 *                          diagnostics within the iteration cap
 *   nol-verify --backend   backend smoke: verify each workload, then
 *                          run it under both execution backends
 *                          (interpreter and native-C) and compare the
 *                          reports bit-for-bit; exits non-zero on any
 *                          divergence or if no host toolchain exists
 *   -v                     print warnings/notes too, plus shrink stats
 */
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/corpus.hpp"
#include "codegen/artifact.hpp"
#include "core/nativeoffloader.hpp"
#include "workloads/workloads.hpp"

namespace {

using nol::core::Program;
using nol::support::DiagSeverity;
using nol::support::Diagnostic;
using nol::support::DiagnosticEngine;

int
verifyWorkload(const nol::workloads::WorkloadSpec &spec, bool verbose)
{
    Program program =
        Program::compile(nol::workloads::evaluationRequest(spec));

    DiagnosticEngine engine = program.verify();
    const auto &partition = program.compiled().partition;
    const auto &unify = program.compiled().unifyStats;

    size_t shown = 0;
    for (const Diagnostic &diag : engine.diagnostics()) {
        if (diag.severity != DiagSeverity::Error && !verbose)
            continue;
        std::fprintf(stderr, "%s\n", diag.str().c_str());
        ++shown;
    }
    std::printf(
        "%-16s %-7s %zu diagnostics, %zu targets, "
        "uva-globals %zu/%zu (conservative %zu), fptr-map %zu "
        "(conservative %zu)\n",
        spec.id.c_str(), engine.hasErrors() ? "FAIL" : "ok",
        engine.size(), partition.targets.size(), unify.uvaGlobals,
        unify.totalGlobals, unify.uvaGlobalsConservative,
        partition.fptrMap.size(), partition.fptrMapConservative);
    return engine.hasErrors() ? 1 : 0;
}

int
runCorpusSelfTest(bool verbose)
{
    int failures = 0;
    for (const nol::analysis::CorpusOutcome &outcome :
         nol::analysis::runBrokenCorpus()) {
        bool ok = outcome.passed();
        std::printf("corpus %-28s %-4s (expect %s%s%s)\n",
                    outcome.name.c_str(), ok ? "ok" : "FAIL",
                    outcome.expectCode.c_str(),
                    outcome.fired ? "" : ", did not fire",
                    outcome.witnessed ? "" : ", no witness");
        if (!ok || verbose)
            std::fprintf(stderr, "%s", outcome.rendered.c_str());
        failures += ok ? 0 : 1;
    }
    return failures == 0 ? 0 : 1;
}

int
runCorpusRepairSelfTest(bool verbose)
{
    int failures = 0;
    for (const nol::analysis::CorpusRepairOutcome &outcome :
         nol::analysis::runBrokenCorpusWithRepair()) {
        bool ok = outcome.passed();
        std::printf("repair %-28s %-4s (%zu iterations, %zu actions, "
                    "%zu remaining)\n",
                    outcome.name.c_str(), ok ? "ok" : "FAIL",
                    outcome.report.iterations,
                    outcome.report.totalActions(),
                    outcome.report.remaining.size());
        if (!ok || verbose) {
            for (const auto &action : outcome.report.actions)
                std::fprintf(stderr, "  [%s] %s\n", action.code.c_str(),
                             action.detail.c_str());
            for (const Diagnostic &diag :
                 outcome.report.remaining.diagnostics())
                std::fprintf(stderr, "  unrepaired: %s\n",
                             diag.str().c_str());
        }
        failures += ok ? 0 : 1;
    }
    return failures == 0 ? 0 : 1;
}

/**
 * Backend smoke for one workload: the partition must verify clean,
 * then an interpreted and a native-C run of the evaluation input must
 * produce bit-identical reports (outputs and every charged simulated
 * time unit). Returns 0 on success.
 */
int
backendWorkload(const nol::workloads::WorkloadSpec &spec)
{
    Program program =
        Program::compile(nol::workloads::evaluationRequest(spec));

    DiagnosticEngine engine = program.verify();
    if (engine.hasErrors()) {
        std::printf("%-16s FAIL    partition does not verify\n",
                    spec.id.c_str());
        return 1;
    }

    nol::runtime::SystemConfig cfg;
    cfg.memScale = spec.memScale;
    cfg.backend = nol::interp::BackendKind::Interpreter;
    nol::runtime::RunReport interp_report =
        program.run(cfg, spec.evalInput);
    cfg.backend = nol::interp::BackendKind::NativeC;
    nol::runtime::RunReport native_report =
        program.run(cfg, spec.evalInput);

    std::string why;
    bool same =
        nol::runtime::reportsBitIdentical(interp_report, native_report, &why);
    std::printf("%-16s %-7s exit=%lld offloads=%llu%s%s\n", spec.id.c_str(),
                same ? "ok" : "FAIL",
                static_cast<long long>(interp_report.exitValue),
                static_cast<unsigned long long>(interp_report.offloads),
                same ? "" : "  diverged at: ", same ? "" : why.c_str());
    return same ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    bool verbose = false;
    bool corpus = false;
    bool repair = false;
    bool backend = false;
    std::vector<std::string> ids;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "-v") == 0)
            verbose = true;
        else if (std::strcmp(argv[i], "--corpus") == 0)
            corpus = true;
        else if (std::strcmp(argv[i], "--repair") == 0)
            repair = true;
        else if (std::strcmp(argv[i], "--backend") == 0)
            backend = true;
        else
            ids.push_back(argv[i]);
    }

    if (repair) // --repair implies the corpus: fix every broken pair
        return runCorpusRepairSelfTest(verbose);
    if (corpus)
        return runCorpusSelfTest(verbose);

    std::vector<nol::workloads::WorkloadSpec> specs;
    if (ids.empty()) {
        for (const auto &spec : nol::workloads::allWorkloads())
            specs.push_back(spec);
        specs.push_back(nol::workloads::makeChess(3));
    } else {
        for (const std::string &id : ids) {
            if (id == "chess") {
                specs.push_back(nol::workloads::makeChess(3));
                continue;
            }
            const auto *spec = nol::workloads::workloadById(id);
            if (spec == nullptr) {
                std::fprintf(stderr, "unknown workload '%s'\n",
                             id.c_str());
                return 2;
            }
            specs.push_back(*spec);
        }
    }

    int failures = 0;
    if (backend) {
        if (!nol::codegen::toolchainAvailable()) {
            std::fprintf(stderr,
                         "nol-verify --backend: no host C compiler found; "
                         "the native backend cannot be exercised\n");
            return 1;
        }
        for (const auto &spec : specs)
            failures += backendWorkload(spec);
        if (failures != 0) {
            std::fprintf(stderr,
                         "nol-verify --backend: %d of %zu workloads "
                         "diverged between backends\n",
                         failures, specs.size());
            return 1;
        }
        std::printf("all %zu workloads bit-identical across backends\n",
                    specs.size());
        return 0;
    }
    for (const auto &spec : specs)
        failures += verifyWorkload(spec, verbose);
    if (failures != 0) {
        std::fprintf(stderr, "nol-verify: %d of %zu workloads failed\n",
                     failures, specs.size());
        return 1;
    }
    return 0;
}
