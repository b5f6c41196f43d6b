/**
 * @file
 * Public facade of the Native Offloader framework. One call compiles a
 * MiniC program through the whole pipeline (profile → filter →
 * estimate → select → unify → partition) and the resulting Program can
 * then be executed under any runtime configuration: local baseline,
 * real offloading over a chosen network, or ideal (zero-overhead)
 * offloading.
 *
 * Quickstart:
 * @code
 *   nol::core::CompileRequest req;
 *   req.name = "app";
 *   req.source = "... MiniC ...";
 *   req.profilingInput.stdinText = "4";
 *   nol::core::Program prog = nol::core::Program::compile(req);
 *
 *   nol::runtime::SystemConfig cfg;       // 802.11ac by default
 *   nol::runtime::RunInput input;
 *   input.stdinText = "9";
 *   nol::runtime::RunReport rep = prog.run(cfg, input);
 * @endcode
 */
#ifndef NOL_CORE_NATIVEOFFLOADER_HPP
#define NOL_CORE_NATIVEOFFLOADER_HPP

#include <memory>
#include <string>

#include "compiler/driver.hpp"
#include "runtime/offload.hpp"
#include "runtime/server.hpp"

namespace nol::core {

/** Everything needed to compile a program for offloading. */
struct CompileRequest : compiler::CompileOptions {
    std::string name = "app";
    std::string source;
};

/** A compiled, offloading-enabled program. */
class Program
{
  public:
    /** Run the whole Native Offloader compiler on @p request. */
    static Program compile(const CompileRequest &request);

    /** Execute under @p config with @p input. */
    runtime::RunReport run(const runtime::SystemConfig &config,
                           const runtime::RunInput &input) const;

    /** Convenience: local baseline run (never offloads). */
    runtime::RunReport runLocal(const runtime::RunInput &input) const;

    /** Convenience: ideal zero-overhead offloading run. */
    runtime::RunReport runIdeal(const runtime::RunInput &input) const;

    /**
     * Simulate N concurrent clients of this program against one
     * offload server on a shared timeline: contended wireless medium,
     * bounded-concurrency admission, per-session UVA namespaces. A
     * single-client fleet reproduces run() exactly.
     *
     * Each client's SystemConfig selects its decision-stack extras:
     * `fleetPriorsEnabled` seeds the session's DecisionEngine from the
     * server's cross-session knowledge base at admission (cold-start
     * offloads saved are reported via RunReport::coldStartOffloads and
     * FleetReport::priorsSeeded*), and `admissionAwareDecision` feeds
     * the server load snapshot into Eq. 1's queue-wait term (locals
     * chosen that way are counted in FleetReport::
     * totalQueueAvoidedLocals). Both default off; with both off the
     * fleet is bit-identical to earlier releases. Every per-call
     * verdict is returned with full provenance in
     * RunReport::decisions.
     */
    runtime::FleetReport
    runFleet(const std::vector<runtime::FleetClient> &clients,
             runtime::AdmissionConfig admission = {}) const;

    /** The full compile pipeline output. */
    const compiler::CompiledProgram &compiled() const { return *compiled_; }

    /** Offload-safety verification: statically prove the partition
     *  invariants (see compiler::verifyOffloadSafety). An engine with
     *  hasErrors() means the partition must not ship. */
    support::DiagnosticEngine verify() const
    {
        return compiler::verifyOffloadSafety(*compiled_);
    }

    /** Names of the selected offload targets. */
    std::vector<std::string> targets() const
    {
        return compiled_->targetNames();
    }

    /** True if at least one target was selected. */
    bool hasTargets() const
    {
        return !compiled_->partition.targets.empty();
    }

  private:
    explicit Program(std::shared_ptr<compiler::CompiledProgram> compiled)
        : compiled_(std::move(compiled))
    {}

    std::shared_ptr<compiler::CompiledProgram> compiled_;
};

} // namespace nol::core

#endif // NOL_CORE_NATIVEOFFLOADER_HPP
