#include "compiler/driver.hpp"

#include <algorithm>

#include "analysis/partitionverifier.hpp"
#include "ir/callgraph.hpp"
#include "support/logging.hpp"

namespace nol::compiler {

CompileOptions::CompileOptions()
    : mobileSpec(arch::makeArm32()), serverSpec(arch::makeX86_64())
{
}

std::vector<std::string>
CompiledProgram::targetNames() const
{
    std::vector<std::string> out;
    for (const PartitionedTarget &target : partition.targets)
        out.push_back(target.name);
    return out;
}

CompiledProgram
compileForOffload(std::unique_ptr<ir::Module> module,
                  const CompileOptions &options)
{
    CompiledProgram out;
    out.mobileSpec = options.mobileSpec;
    out.serverSpec = options.serverSpec;
    out.estimatorParams.speedRatio =
        options.mobileSpec.nsPerCostUnit / options.serverSpec.nsPerCostUnit;
    out.estimatorParams.bandwidthMbps = options.staticBandwidthMbps;

    // 1. Hot function/loop profiling with the profiling input, from
    //    main() like every run.
    out.profile = profile::profileModule(*module, options.mobileSpec,
                                         options.profilingInput, "main");

    // 2-3. Filter machine-specific tasks, estimate, select targets.
    {
        ir::CallGraph cg(*module);
        FilterResult filter = runFunctionFilter(*module, options.filter);
        out.selection = selectTargets(*module, out.profile, filter, cg,
                                      out.estimatorParams);
    }

    // 4. Outline loop targets into functions.
    OutlinedTargets outlined = outlineTargets(*module, out.selection);

    // 5. Memory unification (whole-module, before partitioning).
    out.unifyStats = unifyMemory(
        *module, outlined.fns, options.mobileSpec, options.serverSpec,
        {.fieldSensitive = options.fieldSensitiveAnalysis});

    // 6. Partition into mobile and server modules.
    out.partition = partitionModule(
        *module, outlined,
        {.fieldSensitive = options.fieldSensitiveAnalysis});

    out.unified = std::move(module);
    return out;
}

support::DiagnosticEngine
verifyOffloadSafety(const CompiledProgram &prog)
{
    support::DiagnosticEngine engine;
    analysis::PartitionCheckInput input;
    input.mobile = prog.partition.mobileModule.get();
    input.server = prog.partition.serverModule.get();
    for (const PartitionedTarget &target : prog.partition.targets)
        input.targets.push_back(target.name);
    input.fptrMap = prog.partition.fptrMap;
    input.fieldSensitive = prog.unifyStats.fieldSensitive;
    analysis::verifyPartition(input, engine);
    return engine;
}

analysis::RepairReport
repairOffloadSafety(CompiledProgram &prog)
{
    std::vector<std::string> target_names;
    for (const PartitionedTarget &target : prog.partition.targets)
        target_names.push_back(target.name);

    analysis::RepairInput input;
    input.mobile = prog.partition.mobileModule.get();
    input.server = prog.partition.serverModule.get();
    input.targets = &target_names;
    input.fptrMap = &prog.partition.fptrMap;
    input.fieldSensitive = prog.unifyStats.fieldSensitive;
    analysis::RepairReport report =
        analysis::repairPartition(input);

    // Repair may have demoted targets; shrink the partition's list to
    // match so the runtime never dispatches a demoted target.
    std::set<std::string> kept(target_names.begin(), target_names.end());
    auto &targets = prog.partition.targets;
    targets.erase(std::remove_if(targets.begin(), targets.end(),
                                 [&](const PartitionedTarget &t) {
                                     return kept.count(t.name) == 0;
                                 }),
                  targets.end());
    return report;
}

} // namespace nol::compiler
