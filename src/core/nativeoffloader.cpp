#include "core/nativeoffloader.hpp"

#include "frontend/codegen.hpp"

namespace nol::core {

CompileRequest::CompileRequest()
    : mobileSpec(arch::makeArm32()), serverSpec(arch::makeX86_64())
{
}

Program
Program::compile(const CompileRequest &request)
{
    auto module = frontend::compileSource(request.source, request.name);

    compiler::CompileOptions options;
    options.mobileSpec = request.mobileSpec;
    options.serverSpec = request.serverSpec;
    options.filter = request.filter;
    options.profilingInput = request.profilingInput;
    options.staticBandwidthMbps = request.staticBandwidthMbps;
    options.fieldSensitiveAnalysis = request.fieldSensitiveAnalysis;

    auto compiled = std::make_shared<compiler::CompiledProgram>(
        compiler::compileForOffload(std::move(module), options));
    return Program(std::move(compiled));
}

runtime::RunReport
Program::run(const runtime::SystemConfig &config,
             const runtime::RunInput &input) const
{
    runtime::OffloadSystem system(*compiled_, config);
    return system.run(input);
}

runtime::RunReport
Program::runLocal(const runtime::RunInput &input) const
{
    runtime::SystemConfig config;
    config.forceLocal = true;
    return run(config, input);
}

runtime::RunReport
Program::runIdeal(const runtime::RunInput &input) const
{
    runtime::SystemConfig config;
    config.idealOffload = true;
    return run(config, input);
}

runtime::FleetReport
Program::runFleet(const std::vector<runtime::FleetClient> &clients,
                  runtime::AdmissionConfig admission) const
{
    runtime::ServerRuntime server(*compiled_, admission);
    return server.run(clients);
}

} // namespace nol::core
