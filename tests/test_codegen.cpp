/**
 * @file
 * Native-C backend tests: the differential oracle between the
 * interpreter and the compiled backend. The two must agree bit-exactly
 * — guest outputs AND every charged simulated-time unit — across the
 * full 17-workload suite, both networks, solo and fleet, faults on and
 * off. A host toolchain is a hard requirement here: falling back to
 * the interpreter would silently turn every oracle check into a
 * tautology, so its absence is a test failure, not a skip.
 */
#include <gtest/gtest.h>

#include "codegen/artifact.hpp"
#include "codegen/cemitter.hpp"
#include "codegen/nativeexec.hpp"
#include "core/nativeoffloader.hpp"
#include "frontend/codegen.hpp"
#include "interp/loader.hpp"
#include "runtime/server.hpp"
#include "workloads/workloads.hpp"

using namespace nol;
using namespace nol::runtime;
using namespace nol::workloads;

namespace {

core::Program
compileWorkload(const WorkloadSpec &spec)
{
    core::CompileRequest req;
    req.name = spec.id;
    req.source = spec.source;
    req.profilingInput = spec.profilingInput;
    return core::Program::compile(req);
}

runtime::RunInput
evalInput(const WorkloadSpec &spec)
{
    runtime::RunInput input;
    input.stdinText = spec.evalInput.stdinText;
    input.files = spec.evalInput.files;
    return input;
}

SystemConfig
backendConfig(interp::BackendKind backend, bool slow_network)
{
    SystemConfig cfg;
    cfg.network = slow_network ? net::makeWifi80211n()
                               : net::makeWifi80211ac();
    cfg.backend = backend;
    return cfg;
}

void
expectIdentical(const RunReport &interp_report, const RunReport &native_report)
{
    std::string why;
    EXPECT_TRUE(reportsBitIdentical(interp_report, native_report, &why))
        << "first divergent field: " << why;
}

} // namespace

// ---------------------------------------------------------------------------
// Toolchain + lowering units
// ---------------------------------------------------------------------------

TEST(CodegenToolchain, HostCompilerIsAvailable)
{
    // Hard requirement, not a skip: without a toolchain every oracle
    // test below would silently degrade into interp-vs-interp.
    ASSERT_TRUE(codegen::toolchainAvailable())
        << "no host C compiler found (tried $NOL_CC, $CC, cc, gcc, clang)";
}

TEST(CodegenLowering, DigestIsStableAcrossEmissions)
{
    const WorkloadSpec spec = makeChess(2);
    auto module = frontend::compileSource(spec.source, spec.id);
    sim::SimMachine machine(sim::MachineRole::Mobile, arch::makeArm32());
    ir::DataLayout dl = interp::effectiveLayout(*module, machine);

    codegen::LoweredModule a = codegen::emitModule(*module, dl);
    codegen::LoweredModule b = codegen::emitModule(*module, dl);
    EXPECT_FALSE(a.source.empty());
    EXPECT_EQ(a.source, b.source);
    EXPECT_EQ(a.digest, b.digest);
    EXPECT_EQ(a.functions.size(), module->functions().size());
}

TEST(CodegenLowering, ArtifactCacheReusesIdenticalModules)
{
    ASSERT_TRUE(codegen::toolchainAvailable());
    const WorkloadSpec spec = makeChess(2);
    auto module = frontend::compileSource(spec.source, spec.id);
    sim::SimMachine machine(sim::MachineRole::Mobile, arch::makeArm32());
    ir::DataLayout dl = interp::effectiveLayout(*module, machine);

    codegen::LoweredModule lowered = codegen::emitModule(*module, dl);
    auto first = codegen::getOrCompile(lowered);
    auto second = codegen::getOrCompile(lowered);
    ASSERT_NE(first, nullptr);
    // Same digest → the registry hands back the very same artifact;
    // fleet sessions sharing a partition compile once.
    EXPECT_EQ(first.get(), second.get());
    EXPECT_EQ(first->count(), lowered.functions.size());
}

TEST(CodegenLowering, PreparedModuleMatchesFunctionTable)
{
    ASSERT_TRUE(codegen::toolchainAvailable());
    const WorkloadSpec spec = makeChess(2);
    auto module = frontend::compileSource(spec.source, spec.id);
    sim::SimMachine machine(sim::MachineRole::Server, arch::makeX86_64());
    ir::DataLayout dl = interp::effectiveLayout(*module, machine);

    auto prepared = codegen::PreparedModule::prepare(*module, dl);
    ASSERT_NE(prepared, nullptr);
    ASSERT_NE(prepared->artifact, nullptr);
    EXPECT_EQ(prepared->artifact->count(), prepared->lowered.functions.size());
}

TEST(CodegenLowering, BackendKindParsesAndNames)
{
    // Every run defaults to the interpreter.
    interp::BackendKind kind = SystemConfig{}.backend;
    EXPECT_EQ(kind, interp::BackendKind::Interpreter);
    EXPECT_TRUE(interp::parseBackendKind("native", &kind));
    EXPECT_EQ(kind, interp::BackendKind::NativeC);
    EXPECT_TRUE(interp::parseBackendKind("interp", &kind));
    EXPECT_EQ(kind, interp::BackendKind::Interpreter);
    EXPECT_FALSE(interp::parseBackendKind("default", &kind));
    EXPECT_FALSE(interp::parseBackendKind("jit", &kind));
    EXPECT_STREQ(interp::backendKindName(interp::BackendKind::NativeC),
                 "native-c");
    EXPECT_STREQ(interp::backendKindName(interp::BackendKind::Interpreter),
                 "interp");
}

// ---------------------------------------------------------------------------
// Differential oracle: all 17 workloads x 2 networks, solo
// ---------------------------------------------------------------------------

class CodegenOracle : public ::testing::TestWithParam<std::string>
{
};

TEST_P(CodegenOracle, CompiledMatchesInterpretedOnBothNetworks)
{
    ASSERT_TRUE(codegen::toolchainAvailable());
    const WorkloadSpec *spec = workloadById(GetParam());
    ASSERT_NE(spec, nullptr);
    core::Program prog = compileWorkload(*spec);

    for (bool slow : {false, true}) {
        SCOPED_TRACE(spec->id + (slow ? " @802.11n" : " @802.11ac"));
        RunReport interp_report = prog.run(
            backendConfig(interp::BackendKind::Interpreter, slow),
            evalInput(*spec));
        RunReport native_report = prog.run(
            backendConfig(interp::BackendKind::NativeC, slow),
            evalInput(*spec));
        expectIdentical(interp_report, native_report);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, CodegenOracle,
    ::testing::ValuesIn([] {
        std::vector<std::string> ids;
        for (const WorkloadSpec &spec : allWorkloads())
            ids.push_back(spec.id);
        return ids;
    }()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &ch : name)
            if (ch == '.')
                ch = '_';
        return name;
    });

// ---------------------------------------------------------------------------
// Differential oracle: fleet with faults enabled
// ---------------------------------------------------------------------------

namespace {

FleetReport
runBackendFleet(const compiler::CompiledProgram &prog,
                interp::BackendKind backend, const RunInput &input,
                size_t n_clients)
{
    SystemConfig cfg;
    cfg.network = net::makeWifi80211n();
    cfg.backend = backend;
    cfg.faultPlan.enabled = true;
    cfg.faultPlan.seed = 77;
    cfg.faultPlan.dropRate = 0.10;
    cfg.faultPlan.latencySpikeRate = 0.05;

    std::vector<FleetClient> clients;
    for (size_t i = 0; i < n_clients; ++i) {
        FleetClient client;
        client.name = "client-" + std::to_string(i);
        client.config = cfg;
        client.input = input;
        client.startSeconds = static_cast<double>(i) * 0.0005;
        clients.push_back(client);
    }
    ServerRuntime server(prog);
    return server.run(clients);
}

} // namespace

TEST(CodegenOracleFleet, FleetWithFaultsMatchesInterpreter)
{
    ASSERT_TRUE(codegen::toolchainAvailable());
    const WorkloadSpec *spec = workloadById("458.sjeng");
    ASSERT_NE(spec, nullptr);
    core::Program prog = compileWorkload(*spec);

    FleetReport interp_fleet =
        runBackendFleet(prog.compiled(), interp::BackendKind::Interpreter,
                        evalInput(*spec), 4);
    FleetReport native_fleet =
        runBackendFleet(prog.compiled(), interp::BackendKind::NativeC,
                        evalInput(*spec), 4);

    ASSERT_EQ(interp_fleet.clients.size(), native_fleet.clients.size());
    for (size_t i = 0; i < interp_fleet.clients.size(); ++i) {
        SCOPED_TRACE("client " + std::to_string(i));
        expectIdentical(interp_fleet.clients[i].report,
                        native_fleet.clients[i].report);
    }
}

TEST(CodegenOracleFleet, MixedBackendFleetSharesOneTimeline)
{
    // Clients may disagree on backend within one fleet; each client's
    // report must still match an all-interpreter fleet bit-exactly,
    // because backends only change wall-clock, never simulated time.
    ASSERT_TRUE(codegen::toolchainAvailable());
    const WorkloadSpec *spec = workloadById("462.libquantum");
    ASSERT_NE(spec, nullptr);
    core::Program prog = compileWorkload(*spec);

    SystemConfig base;
    base.network = net::makeWifi80211ac();

    std::vector<FleetClient> mixed;
    for (size_t i = 0; i < 4; ++i) {
        FleetClient client;
        client.name = "client-" + std::to_string(i);
        client.config = base;
        client.config.backend = (i % 2 == 0)
                                    ? interp::BackendKind::NativeC
                                    : interp::BackendKind::Interpreter;
        client.input = evalInput(*spec);
        client.startSeconds = static_cast<double>(i) * 0.0005;
        mixed.push_back(client);
    }
    std::vector<FleetClient> reference = mixed;
    for (FleetClient &client : reference)
        client.config.backend = interp::BackendKind::Interpreter;

    ServerRuntime mixed_server(prog.compiled());
    FleetReport mixed_fleet = mixed_server.run(mixed);
    ServerRuntime ref_server(prog.compiled());
    FleetReport ref_fleet = ref_server.run(reference);

    ASSERT_EQ(mixed_fleet.clients.size(), ref_fleet.clients.size());
    for (size_t i = 0; i < mixed_fleet.clients.size(); ++i) {
        SCOPED_TRACE("client " + std::to_string(i));
        expectIdentical(ref_fleet.clients[i].report,
                        mixed_fleet.clients[i].report);
    }
}
