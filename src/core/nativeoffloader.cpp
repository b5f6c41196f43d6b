#include "core/nativeoffloader.hpp"

#include "frontend/codegen.hpp"

namespace nol::core {

Program
Program::compile(const CompileRequest &request)
{
    auto module = frontend::compileSource(request.source, request.name);
    auto compiled = std::make_shared<compiler::CompiledProgram>(
        compiler::compileForOffload(std::move(module), request));
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
