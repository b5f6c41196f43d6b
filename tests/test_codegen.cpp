/**
 * @file
 * Native-C backend tests: the differential oracle between the
 * interpreter and the compiled backend. The two must agree bit-exactly
 * — guest outputs AND every charged simulated-time unit — across the
 * full 17-workload suite, both networks, local and ideal runs, solo
 * and fleet, faults on and off. A host toolchain is a hard requirement
 * here: falling back to the interpreter would silently turn every
 * oracle check into a tautology, so its absence is a test failure, not
 * a skip.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <thread>

#include <stdlib.h>
#include <sys/wait.h>
#include <unistd.h>

#include "codegen/artifact.hpp"
#include "codegen/cemitter.hpp"
#include "codegen/nativeexec.hpp"
#include "core/nativeoffloader.hpp"
#include "frontend/codegen.hpp"
#include "interp/externals.hpp"
#include "interp/guestops.h"
#include "interp/interp.hpp"
#include "interp/loader.hpp"
#include "ir/irbuilder.hpp"
#include "ir/verifier.hpp"
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

    auto prepared =
        codegen::PreparedModule::prepare(codegen::emitModule(*module, dl));
    ASSERT_NE(prepared, nullptr);
    ASSERT_NE(prepared->artifact, nullptr);
    EXPECT_EQ(prepared->artifact->count(), prepared->lowered.functions.size());
}

// ---------------------------------------------------------------------------
// The artifact cache: cc children spawned without a shell
// ---------------------------------------------------------------------------

namespace {

/**
 * Points NOL_CODEGEN_DIR at a fresh directory named @p leaf for one
 * test, and restores the old value and deletes the directory after.
 * A test that makes one before its first codegen call also probes the
 * toolchain there (ctest runs every case in a process of its own).
 */
class ScopedCacheDir
{
  public:
    explicit ScopedCacheDir(const std::string &leaf = "cache")
    {
        std::string base =
            (std::filesystem::temp_directory_path() / "nol-cache-XXXXXX")
                .string();
        if (::mkdtemp(base.data()) == nullptr)
            throw std::runtime_error("mkdtemp failed for " + base);
        base_ = base;
        path_ = base_ + "/" + leaf;
        if (const char *old = std::getenv("NOL_CODEGEN_DIR"))
            old_ = old;
        ::setenv("NOL_CODEGEN_DIR", path_.c_str(), 1);
    }

    ~ScopedCacheDir()
    {
        if (old_.has_value())
            ::setenv("NOL_CODEGEN_DIR", old_->c_str(), 1);
        else
            ::unsetenv("NOL_CODEGEN_DIR");
        std::filesystem::remove_all(base_);
    }

    ScopedCacheDir(const ScopedCacheDir &) = delete;
    ScopedCacheDir &operator=(const ScopedCacheDir &) = delete;

    const std::string &path() const { return path_; }

    /** Files in the directory whose name ends in @p suffix. */
    size_t
    count(const std::string &suffix) const
    {
        size_t n = 0;
        std::error_code ec;
        for (const auto &entry :
             std::filesystem::directory_iterator(path_, ec)) {
            std::string name = entry.path().filename().string();
            if (name.size() >= suffix.size() &&
                name.compare(name.size() - suffix.size(), suffix.size(),
                             suffix) == 0)
                ++n;
        }
        return n;
    }

  private:
    std::string base_;
    std::string path_;
    std::optional<std::string> old_;
};

/**
 * A loadable hand-written module with @p functions functions; @p tag
 * makes its digest unique to the caller. It exports the generated
 * function table's symbols, empty.
 */
codegen::LoweredModule
handWritten(const std::string &tag, int functions = 1)
{
    codegen::LoweredModule lowered;
    lowered.source = "#include <stdint.h>\n";
    for (int i = 0; i < functions; ++i) {
        lowered.source += "int " + tag + "_" + std::to_string(i) +
                          "(int x) { int y = x; for (int k = 0; k < x; k++) "
                          "y = y * 31 + (k ^ " + std::to_string(i) +
                          "); return y; }\n";
    }
    lowered.source += "void *nol_fn_table[1];\n"
                      "const uint32_t nol_fn_count = 0;\n";
    lowered.digest = codegen::contentDigest(lowered.source);
    return lowered;
}

/** Live processes whose command line mentions @p text; none where
 *  there is no /proc. */
size_t
processesMentioning(const std::string &text)
{
    size_t n = 0;
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator("/proc", ec)) {
        std::ifstream in(entry.path() / "cmdline", std::ios::binary);
        std::string cmdline((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
        n += cmdline.find(text) != std::string::npos ? 1 : 0;
    }
    return n;
}

} // namespace

TEST(CodegenToolchain, CacheDirWithQuoteAndDollarCompiles)
{
    // A shell would end the quoted path at `"` and expand `$HOME`.
    ScopedCacheDir cache("q\"dir $HOME");
    ASSERT_TRUE(codegen::toolchainAvailable());
    EXPECT_NE(codegen::getOrCompile(handWritten("odd_cache_dir")), nullptr);
    EXPECT_EQ(cache.count(".so"), 1u);
}

TEST(CodegenToolchain, MultiWordCompilerCompiles)
{
    // While the toolchain is probed, PATH names only the cache
    // directory, so cc, gcc and clang cannot be found: only NOL_CC,
    // split into words, can compile (env restores PATH for cc).
    ScopedCacheDir cache;
    const char *old_path = std::getenv("PATH");
    std::string path = old_path != nullptr ? old_path : "";
    ASSERT_EQ(path.find_first_of(" \t"), std::string::npos);
    ::setenv("NOL_CC", ("/usr/bin/env PATH=" + path + " cc").c_str(), 1);
    ::setenv("PATH", cache.path().c_str(), 1);
    bool available = codegen::toolchainAvailable();
    ::setenv("PATH", path.c_str(), 1);
    ::unsetenv("NOL_CC");
    ASSERT_TRUE(available);
    EXPECT_NE(codegen::getOrCompile(handWritten("multi_word_cc")), nullptr);
    EXPECT_EQ(cache.count(".so"), 1u);
}

TEST(CodegenArtifacts, ModuleTheCompilerRejectsIsAPanic)
{
    // Once a toolchain works, invalid generated C is an emitter bug:
    // falling back to the interpreter would hide it from every oracle.
    ScopedCacheDir cache;
    ASSERT_TRUE(codegen::toolchainAvailable());
    codegen::LoweredModule bad;
    bad.source = "this is not C\n";
    bad.digest = codegen::contentDigest(bad.source);
    try {
        codegen::getOrCompile(bad);
        FAIL() << "a module cc rejects gave an artifact";
    } catch (const PanicError &e) {
        EXPECT_NE(std::string(e.what()).find("exit status"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_EQ(cache.count(".so"), 0u);
    EXPECT_EQ(cache.count(".tmp"), 0u);
}

TEST(CodegenArtifacts, TwoThreadsShareOneCompile)
{
    ScopedCacheDir cache;
    ASSERT_TRUE(codegen::toolchainAvailable());
    codegen::LoweredModule lowered = handWritten("shared_by_two_threads");
    std::shared_ptr<const codegen::NativeArtifact> a, b;
    std::thread ta([&] { a = codegen::getOrCompile(lowered); });
    std::thread tb([&] { b = codegen::getOrCompile(lowered); });
    ta.join();
    tb.join();
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a.get(), b.get());
    EXPECT_EQ(cache.count(".so"), 1u);
    EXPECT_EQ(cache.count(".tmp"), 0u);
}

TEST(CodegenArtifacts, TwoThreadsCompileTwoModules)
{
    ScopedCacheDir cache;
    ASSERT_TRUE(codegen::toolchainAvailable());
    codegen::LoweredModule first = handWritten("first_of_two");
    codegen::LoweredModule second = handWritten("second_of_two");
    std::shared_ptr<const codegen::NativeArtifact> a, b;
    std::thread ta([&] { a = codegen::getOrCompile(first); });
    std::thread tb([&] { b = codegen::getOrCompile(second); });
    ta.join();
    tb.join();
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_NE(a.get(), b.get());
    EXPECT_EQ(cache.count(".so"), 2u);
}

TEST(CodegenArtifacts, StartedCompileYieldsTheSameArtifact)
{
    ScopedCacheDir cache;
    ASSERT_TRUE(codegen::toolchainAvailable());
    codegen::LoweredModule lowered = handWritten("started_then_fetched");
    EXPECT_TRUE(codegen::startCompile(lowered));
    EXPECT_FALSE(codegen::startCompile(lowered)); // already pending
    auto started = codegen::getOrCompile(lowered);
    auto plain = codegen::getOrCompile(lowered);
    ASSERT_NE(started, nullptr);
    EXPECT_EQ(started.get(), plain.get());
    EXPECT_FALSE(codegen::startCompile(lowered)); // registered
    EXPECT_EQ(cache.count(".so"), 1u);
}

TEST(CodegenArtifacts, CompilesPastTheCapAllFinish)
{
    // One more compile than the cap of pending children (on hosts with
    // up to 8 hardware threads): the last start waits for the oldest.
    ScopedCacheDir cache;
    ASSERT_TRUE(codegen::toolchainAvailable());
    unsigned n = std::min(std::max(1u, std::thread::hardware_concurrency()),
                          8u) +
                 1;
    std::vector<codegen::LoweredModule> modules;
    for (unsigned i = 0; i < n; ++i) {
        modules.push_back(handWritten("past_the_cap_" + std::to_string(i)));
        EXPECT_TRUE(codegen::startCompile(modules.back()));
    }
    for (size_t i = modules.size(); i-- > 0;)
        EXPECT_NE(codegen::getOrCompile(modules[i]), nullptr);
    EXPECT_EQ(cache.count(".so"), n);
    EXPECT_EQ(cache.count(".tmp"), 0u);
}

TEST(CodegenArtifacts, ExitKillsPendingCompiles)
{
    ScopedCacheDir cache;
    ASSERT_TRUE(codegen::toolchainAvailable());
    // cc takes seconds on this module: it is still running at exit.
    codegen::LoweredModule slow = handWritten("pending_at_exit", 1000);
    // A plain fork, not EXPECT_EXIT: a death test also waits for every
    // process holding its status pipe, and cc's children inherit it.
    std::fflush(nullptr);
    pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        try {
            codegen::startCompile(slow);
            // Long enough for cc to have started cc1.
            std::this_thread::sleep_for(std::chrono::milliseconds(200));
        } catch (...) {
            std::_Exit(1);
        }
        std::exit(0);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    // The exit killed cc's whole process group (cc1 and ld name the
    // cache in their arguments); killed processes vanish within a few
    // milliseconds.
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(250);
    while (processesMentioning(cache.path()) != 0 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_EQ(processesMentioning(cache.path()), 0u);
    EXPECT_EQ(cache.count(".so"), 0u);
    EXPECT_EQ(cache.count(".tmp"), 0u);
}

TEST(CodegenArtifacts, CompilerInheritsNoDescriptors)
{
    ScopedCacheDir cache;
    ASSERT_TRUE(codegen::toolchainAvailable());
    // No O_CLOEXEC: a child that inherits descriptors holds the write
    // end open until it exits.
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    codegen::LoweredModule slow = handWritten("inherits_nothing", 1000);
    EXPECT_TRUE(codegen::startCompile(slow));
    ::close(fds[1]);
    char byte = 0;
    EXPECT_EQ(::read(fds[0], &byte, 1), 0);
    // EOF came while cc was still compiling, not because it exited. A
    // child spawned a moment ago may not show its argv in /proc yet.
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(500);
    while (processesMentioning(cache.path()) == 0 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_NE(processesMentioning(cache.path()), 0u);
    ::close(fds[0]);
    EXPECT_NE(codegen::getOrCompile(slow), nullptr);
}

TEST(CodegenArtifacts, ColdLocalRunStartsTheServerModule)
{
    ScopedCacheDir cache;
    ASSERT_TRUE(codegen::toolchainAvailable());
    core::CompileRequest req;
    req.name = "sibling";
    req.source = R"(
        double acc;
        int main() {
            scanf("%d", 0);
            acc = 0.0;
            for (int i = 0; i < 2000; i++) {
                for (int j = 0; j < 400; j++) {
                    acc += (double)((i ^ j) & 5) * 0.5;
                }
            }
            printf("acc=%.1f\n", acc);
            return 0;
        }
    )";
    req.profilingInput.stdinText = "1";
    core::Program prog = core::Program::compile(req);
    ASSERT_TRUE(prog.hasTargets());
    RunInput input;
    input.stdinText = "1";

    SystemConfig local = backendConfig(interp::BackendKind::NativeC, false);
    local.forceLocal = true;
    RunReport local_report = prog.run(local, input);
    // The local run needs only the mobile module; the server module's
    // compile started beside it.
    EXPECT_EQ(cache.count(".c"), 2u);

    RunReport offloaded =
        prog.run(backendConfig(interp::BackendKind::NativeC, false), input);
    EXPECT_GT(offloaded.offloads, 0u);
    EXPECT_EQ(offloaded.console, local_report.console);
    // The offload ran the artifact started beside the local run.
    EXPECT_EQ(cache.count(".so"), 2u);
}

TEST(CodegenArtifacts, TwoThreadsRunningOneProgramLowerEachModuleOnce)
{
    ScopedCacheDir cache;
    ASSERT_TRUE(codegen::toolchainAvailable());
    core::CompileRequest req;
    req.name = "shared";
    req.source = R"(
        double acc;
        int main() {
            scanf("%d", 0);
            acc = 0.0;
            for (int i = 0; i < 2000; i++) {
                for (int j = 0; j < 400; j++) {
                    acc += (double)((i ^ j) & 3) * 0.25;
                }
            }
            printf("acc=%.1f\n", acc);
            return 0;
        }
    )";
    req.profilingInput.stdinText = "1";
    core::Program prog = core::Program::compile(req);
    ASSERT_TRUE(prog.hasTargets());
    RunInput input;
    input.stdinText = "1";
    SystemConfig cfg = backendConfig(interp::BackendKind::NativeC, false);

    RunReport first, second;
    std::thread ta([&] { first = prog.run(cfg, input); });
    std::thread tb([&] { second = prog.run(cfg, input); });
    ta.join();
    tb.join();
    EXPECT_GT(first.offloads, 0u);
    expectIdentical(first, second);

    // Whichever run came second lowered nothing: the program lowered
    // its mobile and its server module once each.
    const compiler::CompiledProgram &compiled = prog.compiled();
    codegen::ModuleCache &modules = *compiled.nativeModules;
    EXPECT_EQ(modules.lowered(), 2u);
    EXPECT_EQ(cache.count(".so"), 2u);
    sim::SimMachine mobile(sim::MachineRole::Mobile, compiled.mobileSpec);
    const ir::Module &module = *compiled.partition.mobileModule;
    auto prepared =
        modules.get(module, interp::effectiveLayout(module, mobile));
    ASSERT_NE(prepared, nullptr);
    EXPECT_TRUE(prepared->lowered.source.empty());
    EXPECT_EQ(modules.get(module, interp::effectiveLayout(module, mobile)),
              prepared);
    EXPECT_EQ(modules.lowered(), 2u);
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

namespace {

/**
 * Content digests of the C emitted for the mobile and server modules
 * of every workload and chess (depth 3), compiled with the suite's
 * evaluation request. They pin the lowering, the cost model it
 * bakes into the charge tables and the compile pipeline that shapes
 * the modules: a refactor of any of those must emit byte-identical C.
 * A change meant to alter the generated C updates them from the
 * digests the failing test prints, and says why.
 */
const std::map<std::string, std::string> kGeneratedCGolden = {
    {"164.gzip mobile", "df7695816b217f3a"},
    {"164.gzip server", "87a7b9a642fdfcd2"},
    {"175.vpr mobile", "e8151c2bfaad0c1e"},
    {"175.vpr server", "76b17a664efe72d0"},
    {"177.mesa mobile", "dfd9d4663ea43139"},
    {"177.mesa server", "adcd2213bb421c61"},
    {"179.art mobile", "189501cd8c30d8ad"},
    {"179.art server", "32956a59e0a11c64"},
    {"183.equake mobile", "c256c5e19592914f"},
    {"183.equake server", "8d110b5df2224928"},
    {"188.ammp mobile", "08a62470b231123e"},
    {"188.ammp server", "4acaa21dd189bce9"},
    {"300.twolf mobile", "dfbff3c917873de9"},
    {"300.twolf server", "321ccd454109abad"},
    {"401.bzip2 mobile", "d713af769891a28e"},
    {"401.bzip2 server", "c19220cd32efd101"},
    {"429.mcf mobile", "c52ffd35103d7f0c"},
    {"429.mcf server", "f5322e0099df84bb"},
    {"433.milc mobile", "8cb530c465619f4a"},
    {"433.milc server", "080825c4268e36d2"},
    {"445.gobmk mobile", "8bc3008937df47ef"},
    {"445.gobmk server", "3a2082453d327b3b"},
    {"456.hmmer mobile", "6755ac4d4a1bfc71"},
    {"456.hmmer server", "7086a82b60354346"},
    {"458.sjeng mobile", "aa6b6c43406c19c1"},
    {"458.sjeng server", "fea965ce9bef5f62"},
    {"462.libquantum mobile", "f24cec6d4d71b164"},
    {"462.libquantum server", "f64ceb2f756cccd1"},
    {"464.h264ref mobile", "ed3428ae07d101ea"},
    {"464.h264ref server", "2143f3d54e1cf985"},
    {"470.lbm mobile", "4dc5c6f8d1a045bf"},
    {"470.lbm server", "dfdcd9492dc26128"},
    {"482.sphinx3 mobile", "ef086ec374cd31b1"},
    {"482.sphinx3 server", "d31656a0907b8069"},
    {"chess mobile", "59075b624f6d1527"},
    {"chess server", "01b5b3d4e553bdd0"},
};

} // namespace

TEST(CodegenLowering, GeneratedCMatchesGoldenDigests)
{
    std::vector<WorkloadSpec> specs = allWorkloads();
    specs.push_back(makeChess(3));
    for (const WorkloadSpec &spec : specs) {
        core::Program prog =
            core::Program::compile(evaluationRequest(spec));
        const compiler::CompiledProgram &compiled = prog.compiled();
        sim::SimMachine mobile(sim::MachineRole::Mobile,
                               compiled.mobileSpec);
        sim::SimMachine server(sim::MachineRole::Server,
                               compiled.serverSpec);
        for (bool on_server : {false, true}) {
            const ir::Module &module =
                on_server ? *compiled.partition.serverModule
                          : *compiled.partition.mobileModule;
            ir::DataLayout dl = interp::effectiveLayout(
                module, on_server ? server : mobile);
            std::string key =
                spec.id + (on_server ? " server" : " mobile");
            SCOPED_TRACE(key);
            EXPECT_EQ(codegen::contentDigest(
                          codegen::emitModule(module, dl).source),
                      kGeneratedCGolden.at(key));
        }
    }
}

TEST(CodegenLowering, Int64MinByMinusOneWrapsOnBothBackends)
{
    ASSERT_TRUE(codegen::toolchainAvailable());
    // The profiling input divides too, so Program::compile runs it.
    const std::string input = "-9223372036854775808 -1";
    core::CompileRequest req;
    req.name = "divwrap";
    req.source = R"(
        int main() {
            long a; long b;
            scanf("%ld %ld", &a, &b);
            printf("%ld %ld\n", a / b, a % b);
            return 0;
        }
    )";
    req.profilingInput.stdinText = input;
    core::Program prog = core::Program::compile(req);
    EXPECT_EQ(prog.compiled().profile.exitValue, 0);

    RunInput run_input;
    run_input.stdinText = input;
    RunReport interp_report = prog.run(
        backendConfig(interp::BackendKind::Interpreter, false), run_input);
    RunReport native_report = prog.run(
        backendConfig(interp::BackendKind::NativeC, false), run_input);
    EXPECT_EQ(interp_report.console, "-9223372036854775808 0\n");
    expectIdentical(interp_report, native_report);
}

TEST(CodegenLowering, OutOfRangeFloatToIntIsInt64MinOnBothBackends)
{
    ASSERT_TRUE(codegen::toolchainAvailable());
    // The host compiler folds these constant conversions, and a plain C
    // cast is undefined there: FPToSI's definition is INT64_MIN, then
    // wrapped to the width.
    core::CompileRequest req;
    req.name = "fptosi";
    req.source = R"(
        int main() {
            long a = (long)1e300;
            int c = (int)1e300;
            printf("%ld %d\n", a, c);
            return 0;
        }
    )";
    core::Program prog = core::Program::compile(req);
    for (interp::BackendKind backend :
         {interp::BackendKind::Interpreter, interp::BackendKind::NativeC}) {
        SCOPED_TRACE(interp::backendKindName(backend));
        RunReport report = prog.run(backendConfig(backend, false), RunInput{});
        EXPECT_EQ(report.console, "-9223372036854775808 0\n");
    }
}

// ---------------------------------------------------------------------------
// The def-dominates-use rule the verifier and both backends share
// ---------------------------------------------------------------------------

namespace {

/** main() returns x, defined only in a block the entry branches
 *  around. */
ir::Function *
buildSkippedDefinition(ir::Module &m)
{
    const ir::FunctionType *ft = m.types().functionTy(m.types().i32(), {});
    ir::Function *fn = m.createFunction("main", ft);
    fn->materializeArgs();
    ir::BasicBlock *entry = fn->createBlock("entry");
    ir::BasicBlock *skipped = fn->createBlock("skipped");
    ir::BasicBlock *join = fn->createBlock("join");
    ir::IRBuilder b(m);
    b.setInsertPoint(entry);
    b.condBr(m.constBool(false), skipped, join);
    b.setInsertPoint(skipped);
    ir::Instruction *x =
        b.binary(ir::Opcode::Add, m.constI32(1), m.constI32(2), "x");
    b.br(join);
    b.setInsertPoint(join);
    b.ret(x);
    return fn;
}

} // namespace

TEST(UseRule, VerifierReportsUseFromSkippedBlock)
{
    ir::Module m("m");
    buildSkippedDefinition(m);
    std::vector<std::string> problems = ir::verifyModule(m);
    ASSERT_EQ(problems.size(), 1u);
    EXPECT_NE(problems[0].find("use of undefined value 'x'"),
              std::string::npos)
        << problems[0];
}

TEST(UseRule, EmitterRejectsUseFromSkippedBlock)
{
    ir::Module m("m");
    buildSkippedDefinition(m);
    sim::SimMachine machine(sim::MachineRole::Mobile, arch::makeArm32());
    ir::DataLayout dl = interp::effectiveLayout(m, machine);
    try {
        codegen::emitModule(m, dl);
        FAIL() << "the undefined use was lowered";
    } catch (const PanicError &e) {
        EXPECT_NE(std::string(e.what()).find("use of undefined value 'x'"),
                  std::string::npos)
            << e.what();
    }
}

TEST(UseRule, BranchIntoAnotherFunctionPanicsOnBothBackends)
{
    ir::Module m("m");
    const ir::FunctionType *ft = m.types().functionTy(m.types().i32(), {});
    ir::Function *other = m.createFunction("other", ft);
    other->materializeArgs();
    ir::BasicBlock *foreign = other->createBlock("foreign");
    ir::IRBuilder b(m);
    b.setInsertPoint(foreign);
    b.ret(m.constI32(0));
    ir::Function *fn = m.createFunction("main", ft);
    fn->materializeArgs();
    b.setInsertPoint(fn->createBlock("entry"));
    b.br(foreign);
    EXPECT_FALSE(ir::verifyModule(m).empty());

    const std::string expected =
        "block entry of @main branches to block foreign of another function";
    sim::SimMachine machine(sim::MachineRole::Mobile, arch::makeArm32());
    try {
        codegen::emitModule(m, interp::effectiveLayout(m, machine));
        FAIL() << "the foreign branch was lowered";
    } catch (const PanicError &e) {
        EXPECT_NE(std::string(e.what()).find(expected), std::string::npos)
            << e.what();
    }
    interp::ProgramImage image = interp::loadProgram(m, machine);
    interp::DefaultEnv env;
    interp::Interp interp(machine, m, image, env);
    try {
        interp.call(fn, {});
        FAIL() << "the foreign branch was interpreted";
    } catch (const PanicError &e) {
        EXPECT_NE(std::string(e.what()).find(expected), std::string::npos)
            << e.what();
    }
}

TEST(UseRule, UseInUnreachableBlockIsExemptOnBothBackends)
{
    ASSERT_TRUE(codegen::toolchainAvailable());
    // "dead" has no predecessor and reads x, which its sibling "live"
    // defines: it never runs, so the rule does not apply to it.
    ir::Module m("m");
    const ir::FunctionType *ft = m.types().functionTy(m.types().i32(), {});
    ir::Function *fn = m.createFunction("main", ft);
    fn->materializeArgs();
    ir::BasicBlock *entry = fn->createBlock("entry");
    ir::BasicBlock *live = fn->createBlock("live");
    ir::BasicBlock *dead = fn->createBlock("dead");
    ir::IRBuilder b(m);
    b.setInsertPoint(entry);
    b.br(live);
    b.setInsertPoint(live);
    ir::Instruction *x =
        b.binary(ir::Opcode::Add, m.constI32(40), m.constI32(2), "x");
    b.ret(x);
    b.setInsertPoint(dead);
    b.ret(b.binary(ir::Opcode::Mul, x, m.constI32(3), "y"));
    EXPECT_TRUE(ir::verifyModule(m).empty());

    sim::SimMachine interp_machine(sim::MachineRole::Mobile,
                                   arch::makeArm32());
    interp::ProgramImage interp_image =
        interp::loadProgram(m, interp_machine);
    interp::DefaultEnv interp_env;
    interp::Interp interp(interp_machine, m, interp_image, interp_env);
    EXPECT_EQ(interp.call(fn, {}).i, 42);

    sim::SimMachine native_machine(sim::MachineRole::Mobile,
                                   arch::makeArm32());
    interp::ProgramImage native_image =
        interp::loadProgram(m, native_machine);
    interp::DefaultEnv native_env;
    auto prepared = codegen::PreparedModule::prepare(codegen::emitModule(
        m, interp::effectiveLayout(m, native_machine)));
    ASSERT_NE(prepared, nullptr);
    codegen::NativeExec native(prepared, native_machine, m, native_image,
                               native_env);
    EXPECT_EQ(native.call(fn, {}).i, 42);
    EXPECT_EQ(native_machine.computeUnits(), interp_machine.computeUnits());
    EXPECT_EQ(native_machine.nowNs(), interp_machine.nowNs());
}

// ---------------------------------------------------------------------------
// Guest operations on edge operands: one module, both backends
// ---------------------------------------------------------------------------

namespace {

using interp::RtVal;

constexpr double kInf = std::numeric_limits<double>::infinity();
const double kNaN = std::nan("");

/** Edge operands of an integer at @p w bits, canonical: 0, ±1, min,
 *  max and the shift counts w-1, w and 64. At one bit a true value is
 *  1 (a compare's) or -1 (sign-extended); both occur. */
std::vector<int64_t>
intEdges(uint32_t w)
{
    if (w == 1)
        return {0, 1, -1};
    std::vector<int64_t> out;
    for (uint64_t v : {uint64_t{0}, uint64_t{1}, ~uint64_t{0},
                       uint64_t{1} << (w - 1), nol_mask(w - 1),
                       uint64_t{w} - 1, uint64_t{w}, uint64_t{64}}) {
        int64_t canonical = nol_sext(v, w);
        if (std::find(out.begin(), out.end(), canonical) == out.end())
            out.push_back(canonical);
    }
    return out;
}

/** @p values as operands of a float type: rounded through float if
 *  @p f32, each bit pattern once. */
std::vector<double>
floatsOf(const std::vector<double> &values, bool f32)
{
    std::vector<double> out;
    for (double v : values) {
        double r = nol_round(v, f32);
        if (std::none_of(out.begin(), out.end(), [&](double o) {
                return nol_f64_bits(o) == nol_f64_bits(r);
            }))
            out.push_back(r);
    }
    return out;
}

/** NaN, ±inf, ±1e300, ±2^63 and its neighbours, ±0.5, ±0.0, and each
 *  integer width's bounds and the values just past them. */
std::vector<double>
floatEdges(bool f32)
{
    std::vector<double> out = {
        kNaN, kInf, -kInf, 1e300, -1e300,
        0x1p63, -0x1p63, 0x1p63 - 1024, -0x1p63 - 2048, 0.5, -0.5, 1.5,
        -1.5, -0.0, 0.0};
    for (int w : {8, 16, 32}) {
        double bound = std::ldexp(1.0, w - 1);
        for (double v : {bound, -bound, bound - 1, -bound - 1, bound - 0.5,
                         2 * bound})
            out.push_back(v);
    }
    return floatsOf(out, f32);
}

/** The value, as an exact string: integers in decimal, doubles by bit
 *  pattern so NaNs and -0.0 compare exactly. */
std::string
showValue(const RtVal &v, bool is_float)
{
    if (!is_float)
        return std::to_string(v.i);
    uint64_t bits;
    std::memcpy(&bits, &v.f, 8);
    char buf[40];
    std::snprintf(buf, sizeof buf, "%a (0x%016llx)", v.f,
                  static_cast<unsigned long long>(bits));
    return buf;
}

/**
 * A module of guest operations on edge operands. Each operation and
 * operand type gets two functions: one takes the operands as
 * arguments; the other takes a case index and computes each case from
 * IR constants, the form the host compiler folds in generated C.
 */
class EdgeModule
{
  public:
    struct Case {
        std::string label;
        ir::Function *argFn;
        std::vector<RtVal> args;
        ir::Function *constFn;
        int64_t index;
        bool floatResult;
    };

    EdgeModule() : m_("edges"), b_(m_) {}

    ir::Module &module() { return m_; }
    const std::vector<Case> &cases() const { return cases_; }

    /** Add @p op from operands of types @p from to a result of type
     *  @p to, on each operand tuple of @p operands; as arguments only
     *  if @p args_only. */
    void
    add(ir::Opcode op, std::vector<const ir::Type *> from, const ir::Type *to,
        const std::vector<std::vector<RtVal>> &operands,
        bool args_only = false)
    {
        std::string name = std::string(ir::opcodeName(op)) + "." +
                           typeName(from[0]) + "." + typeName(to) + "." +
                           std::to_string(m_.functions().size());
        const ir::FunctionType *arg_ty = m_.types().functionTy(to, from);
        ir::Function *arg_fn = m_.createFunction(name + ".args", arg_ty);
        arg_fn->materializeArgs();
        b_.setInsertPoint(arg_fn->createBlock("entry"));
        std::vector<ir::Value *> arg_values;
        for (size_t i = 0; i < from.size(); ++i)
            arg_values.push_back(arg_fn->arg(i));
        b_.ret(apply(op, arg_values, to));
        if (args_only) {
            for (const std::vector<RtVal> &args : operands)
                cases_.push_back({name + label(from, args), arg_fn, args,
                                  nullptr, 0, to->isFloat()});
            return;
        }

        const ir::FunctionType *const_ty =
            m_.types().functionTy(to, {m_.types().i32()});
        ir::Function *const_fn = m_.createFunction(name + ".consts", const_ty);
        const_fn->materializeArgs();
        ir::BasicBlock *entry = const_fn->createBlock("entry");
        ir::BasicBlock *none = const_fn->createBlock("none");
        b_.setInsertPoint(none);
        b_.unreachable();
        b_.setInsertPoint(entry);
        ir::Instruction *sw = b_.switch_(const_fn->arg(0), none);
        for (size_t k = 0; k < operands.size(); ++k) {
            ir::BasicBlock *bb = const_fn->createBlock("c" + std::to_string(k));
            sw->addCase(static_cast<int64_t>(k));
            sw->addSuccessor(bb);
            b_.setInsertPoint(bb);
            std::vector<ir::Value *> consts;
            for (size_t i = 0; i < from.size(); ++i)
                consts.push_back(constantOf(from[i], operands[k][i]));
            b_.ret(apply(op, consts, to));
            cases_.push_back({name + label(from, operands[k]), arg_fn,
                              operands[k], const_fn, static_cast<int64_t>(k),
                              to->isFloat()});
        }
    }

  private:
    static std::string
    label(const std::vector<const ir::Type *> &from,
          const std::vector<RtVal> &operands)
    {
        std::string out = "(";
        for (size_t i = 0; i < from.size(); ++i)
            out += (i ? ", " : "") +
                   showValue(operands[i], from[i]->isFloat());
        return out + ")";
    }

    static std::string
    typeName(const ir::Type *type)
    {
        if (type->isInt())
            return "i" + std::to_string(
                             static_cast<const ir::IntType *>(type)->bits());
        if (type->isFloat())
            return "f" + std::to_string(
                             static_cast<const ir::FloatType *>(type)->bits());
        return "ptr";
    }

    ir::Value *
    constantOf(const ir::Type *type, const RtVal &v)
    {
        if (type->isInt())
            return m_.constInt(static_cast<const ir::IntType *>(type), v.i);
        if (type->isFloat())
            return m_.constFloat(static_cast<const ir::FloatType *>(type),
                                 v.f);
        NOL_ASSERT(v.i == 0, "the only pointer constant is null");
        return m_.constNull(static_cast<const ir::PointerType *>(type));
    }

    ir::Value *
    apply(ir::Opcode op, const std::vector<ir::Value *> &operands,
          const ir::Type *to)
    {
        if (operands.size() == 1)
            return b_.cast(op, operands[0], to);
        if (to == m_.types().i1() && operands[0]->type() != to)
            return b_.cmp(op, operands[0], operands[1]);
        return b_.binary(op, operands[0], operands[1]);
    }

    ir::Module m_;
    ir::IRBuilder b_;
    std::vector<Case> cases_;
};

/** Run every case of @p edges on @p backend, as arguments and as
 *  constants: the value, or the FatalError a trap raised. */
std::vector<std::string>
runEdgeCases(const EdgeModule &edges, interp::ExecBackend &backend)
{
    std::vector<std::string> out;
    auto run = [&](ir::Function *fn, const std::vector<RtVal> &args,
                   bool is_float) -> std::string {
        try {
            return showValue(backend.call(fn, args), is_float);
        } catch (const FatalError &e) {
            return std::string("FatalError: ") + e.what();
        }
    };
    for (const EdgeModule::Case &c : edges.cases()) {
        out.push_back(run(c.argFn, c.args, c.floatResult));
        out.push_back(c.constFn == nullptr
                          ? out.back()
                          : run(c.constFn, {RtVal::ofInt(c.index)},
                                c.floatResult));
    }
    return out;
}

std::vector<RtVal>
ints(std::initializer_list<int64_t> values)
{
    std::vector<RtVal> out;
    for (int64_t v : values)
        out.push_back(RtVal::ofInt(v));
    return out;
}

} // namespace

TEST(GuestOps, BothBackendsAgreeOnEdgeOperands)
{
    ASSERT_TRUE(codegen::toolchainAvailable());
    EdgeModule edges;
    ir::Module &m = edges.module();
    ir::TypeContext &types = m.types();
    const uint32_t kWidths[] = {1, 8, 16, 32, 64};

    // Integer binary ops and compares at every width.
    const ir::Opcode kIntOps[] = {
        ir::Opcode::Add, ir::Opcode::Sub, ir::Opcode::Mul, ir::Opcode::SDiv,
        ir::Opcode::UDiv, ir::Opcode::SRem, ir::Opcode::URem, ir::Opcode::And,
        ir::Opcode::Or, ir::Opcode::Xor, ir::Opcode::Shl, ir::Opcode::LShr,
        ir::Opcode::AShr};
    const ir::Opcode kICmps[] = {
        ir::Opcode::ICmpEq, ir::Opcode::ICmpNe, ir::Opcode::ICmpSlt,
        ir::Opcode::ICmpSle, ir::Opcode::ICmpSgt, ir::Opcode::ICmpSge,
        ir::Opcode::ICmpUlt, ir::Opcode::ICmpUle, ir::Opcode::ICmpUgt,
        ir::Opcode::ICmpUge};
    for (uint32_t w : kWidths) {
        const ir::Type *ty = types.intTy(w);
        std::vector<std::vector<RtVal>> pairs;
        for (int64_t a : intEdges(w))
            for (int64_t b : intEdges(w))
                pairs.push_back(ints({a, b}));
        for (ir::Opcode op : kIntOps)
            edges.add(op, {ty, ty}, ty, pairs);
        for (ir::Opcode op : kICmps)
            edges.add(op, {ty, ty}, types.i1(), pairs);
    }

    // Float compares, with NaN operands, and float arithmetic at both
    // precisions.
    const ir::Opcode kFCmps[] = {
        ir::Opcode::FCmpEq, ir::Opcode::FCmpNe, ir::Opcode::FCmpLt,
        ir::Opcode::FCmpLe, ir::Opcode::FCmpGt, ir::Opcode::FCmpGe};
    std::vector<std::vector<RtVal>> fpairs;
    for (double a : {kNaN, -kInf, -1.0, -0.0, 0.0, 0.5, kInf})
        for (double b : {kNaN, -kInf, -1.0, -0.0, 0.0, 0.5,
                         kInf})
            fpairs.push_back({RtVal::ofFloat(a), RtVal::ofFloat(b)});
    for (ir::Opcode op : kFCmps)
        edges.add(op, {types.f64(), types.f64()}, types.i1(), fpairs);
    for (const ir::FloatType *ty : {types.f32(), types.f64()}) {
        std::vector<double> values =
            floatsOf({kNaN, kInf, -0.0, 0.1, 3.4e38, 1e300}, ty->bits() == 32);
        std::vector<std::vector<RtVal>> pairs;
        for (double a : values)
            for (double b : values)
                pairs.push_back({RtVal::ofFloat(a), RtVal::ofFloat(b)});
        for (ir::Opcode op : {ir::Opcode::FAdd, ir::Opcode::FSub,
                              ir::Opcode::FMul, ir::Opcode::FDiv})
            edges.add(op, {ty, ty}, ty, pairs);
    }

    // Conversions on each width's bounds and the float edges.
    for (uint32_t from : kWidths) {
        std::vector<std::vector<RtVal>> values;
        for (int64_t v : intEdges(from))
            values.push_back(ints({v}));
        for (uint32_t to : kWidths) {
            if (to < from)
                edges.add(ir::Opcode::Trunc, {types.intTy(from)},
                          types.intTy(to), values);
            if (to > from) {
                edges.add(ir::Opcode::ZExt, {types.intTy(from)},
                          types.intTy(to), values);
                edges.add(ir::Opcode::SExt, {types.intTy(from)},
                          types.intTy(to), values);
            }
        }
        if (from > 1) {
            for (const ir::FloatType *to : {types.f32(), types.f64()})
                edges.add(ir::Opcode::SIToFP, {types.intTy(from)}, to, values);
            edges.add(ir::Opcode::IntToPtr, {types.intTy(from)},
                      types.pointerTo(types.i8()), values);
        }
    }
    for (const ir::FloatType *from : {types.f32(), types.f64()}) {
        std::vector<std::vector<RtVal>> values;
        for (double v : floatEdges(from->bits() == 32))
            values.push_back({RtVal::ofFloat(v)});
        for (uint32_t to : kWidths)
            edges.add(ir::Opcode::FPToSI, {from}, types.intTy(to), values);
        if (from == types.f64())
            edges.add(ir::Opcode::FPTrunc, {from}, types.f32(), values);
        else
            edges.add(ir::Opcode::FPExt, {from}, types.f64(), values);
    }
    // Pointers: null is the only constant that folds.
    const ir::Type *ptr = types.pointerTo(types.i8());
    for (uint32_t to : kWidths) {
        edges.add(ir::Opcode::PtrToInt, {ptr}, types.intTy(to),
                  {ints({0})});
        edges.add(ir::Opcode::PtrToInt, {ptr}, types.intTy(to),
                  {ints({1}), ints({0x7fffffff}), ints({0x80000000}),
                   ints({0xffffffff})},
                  /*args_only=*/true);
    }
    EXPECT_TRUE(ir::verifyModule(m).empty());

    sim::SimMachine interp_machine(sim::MachineRole::Mobile,
                                   arch::makeArm32());
    interp::ProgramImage interp_image = interp::loadProgram(m, interp_machine);
    interp::DefaultEnv interp_env;
    interp::Interp interp(interp_machine, m, interp_image, interp_env);
    std::vector<std::string> interp_results = runEdgeCases(edges, interp);

    sim::SimMachine native_machine(sim::MachineRole::Mobile,
                                   arch::makeArm32());
    interp::ProgramImage native_image = interp::loadProgram(m, native_machine);
    interp::DefaultEnv native_env;
    auto prepared = codegen::PreparedModule::prepare(codegen::emitModule(
        m, interp::effectiveLayout(m, native_machine)));
    ASSERT_NE(prepared, nullptr);
    codegen::NativeExec native(prepared, native_machine, m, native_image,
                               native_env);
    std::vector<std::string> native_results = runEdgeCases(edges, native);

    ASSERT_EQ(interp_results.size(), 2 * edges.cases().size());
    ASSERT_EQ(native_results.size(), interp_results.size());
    size_t mismatches = 0;
    for (size_t k = 0; k < edges.cases().size() && mismatches < 20; ++k) {
        const std::string &expected = interp_results[2 * k];
        for (const std::string *got :
             {&interp_results[2 * k + 1], &native_results[2 * k],
              &native_results[2 * k + 1]}) {
            if (*got != expected) {
                ++mismatches;
                ADD_FAILURE() << edges.cases()[k].label << ": interpreter "
                              << "with arguments gives " << expected
                              << ", " << (got == &native_results[2 * k]
                                              ? "native-C with arguments"
                                          : got == &native_results[2 * k + 1]
                                              ? "native-C with constants"
                                              : "interpreter with constants")
                              << " gives " << *got;
            }
        }
    }
}

TEST(GuestOps, TrapsRaiseOneDiagnosticOnBothBackends)
{
    ASSERT_TRUE(codegen::toolchainAvailable());
    ir::Module m("traps");
    ir::IRBuilder b(m);
    const ir::Type *i32 = m.types().i32();
    auto define = [&](const char *name, std::vector<const ir::Type *> params) {
        ir::Function *fn =
            m.createFunction(name, m.types().functionTy(i32, params));
        fn->materializeArgs();
        b.setInsertPoint(fn->createBlock("entry"));
        return fn;
    };
    // Each frame of "deep" takes 1 MiB of the 16 MiB guest stack.
    ir::Function *deep = define("deep", {});
    b.alloca_(m.types().arrayOf(m.types().i8(), 1 << 20));
    b.ret(b.call(deep, {}));
    ir::Function *stop = define("stop", {});
    b.unreachable();
    ir::Function *quotient = define("quotient", {i32, i32});
    b.ret(b.binary(ir::Opcode::SDiv, quotient->arg(0), quotient->arg(1)));
    ir::Function *remainder = define("remainder", {i32, i32});
    b.ret(b.binary(ir::Opcode::URem, remainder->arg(0), remainder->arg(1)));
    EXPECT_TRUE(ir::verifyModule(m).empty());

    const std::vector<std::pair<ir::Function *, std::string>> expected = {
        {deep, "FatalError: guest stack overflow in deep"},
        {stop, "PanicError: guest reached 'unreachable' in stop"},
        {quotient, "FatalError: guest division by zero"},
        {remainder, "FatalError: guest remainder by zero"},
    };
    auto outcome = [](interp::ExecBackend &backend, ir::Function *fn) {
        try {
            backend.call(fn, ints({7, 0}));
            return std::string("returned");
        } catch (const FatalError &e) {
            return std::string("FatalError: ") + e.what();
        } catch (const PanicError &e) {
            return std::string("PanicError: ") + e.what();
        }
    };

    sim::SimMachine interp_machine(sim::MachineRole::Mobile,
                                   arch::makeArm32());
    interp::ProgramImage interp_image = interp::loadProgram(m, interp_machine);
    interp::DefaultEnv interp_env;
    interp::Interp interp(interp_machine, m, interp_image, interp_env);
    sim::SimMachine native_machine(sim::MachineRole::Mobile,
                                   arch::makeArm32());
    interp::ProgramImage native_image = interp::loadProgram(m, native_machine);
    interp::DefaultEnv native_env;
    auto prepared = codegen::PreparedModule::prepare(codegen::emitModule(
        m, interp::effectiveLayout(m, native_machine)));
    ASSERT_NE(prepared, nullptr);
    codegen::NativeExec native(prepared, native_machine, m, native_image,
                               native_env);
    for (const auto &[fn, message] : expected) {
        EXPECT_EQ(outcome(interp, fn), message);
        EXPECT_EQ(outcome(native, fn), message);
    }
}

// ---------------------------------------------------------------------------
// Differential oracle: all 17 workloads x 2 networks, local and ideal, solo
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
            spec->evalInput);
        RunReport native_report = prog.run(
            backendConfig(interp::BackendKind::NativeC, slow),
            spec->evalInput);
        expectIdentical(interp_report, native_report);
    }
}

TEST_P(CodegenOracle, CompiledMatchesInterpretedLocalAndIdeal)
{
    ASSERT_TRUE(codegen::toolchainAvailable());
    const WorkloadSpec *spec = workloadById(GetParam());
    ASSERT_NE(spec, nullptr);
    core::Program prog = compileWorkload(*spec);

    // Ideal mode swaps the mobile spec and compute state around each
    // target; the native charge table must follow both swaps.
    for (bool ideal : {false, true}) {
        SCOPED_TRACE(spec->id + (ideal ? " ideal" : " local"));
        SystemConfig interp_cfg =
            backendConfig(interp::BackendKind::Interpreter, false);
        SystemConfig native_cfg =
            backendConfig(interp::BackendKind::NativeC, false);
        for (SystemConfig *cfg : {&interp_cfg, &native_cfg}) {
            cfg->forceLocal = !ideal;
            cfg->idealOffload = ideal;
        }
        expectIdentical(prog.run(interp_cfg, spec->evalInput),
                        prog.run(native_cfg, spec->evalInput));
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
// Differential oracle: the clock an access that leaves the module sees
// ---------------------------------------------------------------------------

namespace {

/**
 * Run main() of @p module on @p backend (Interpreter or NativeC) with a
 * fault handler that records the machine's clock, energy and compute
 * units at each fault, then installs the page. The last entry is the
 * machine after the run.
 */
std::vector<std::string>
clocksAtFaults(const ir::Module &module, interp::BackendKind backend)
{
    sim::SimMachine machine(sim::MachineRole::Mobile, arch::makeArm32());
    interp::ProgramImage image = interp::loadProgram(module, machine);
    std::vector<std::string> seen;
    auto record = [&](const char *what) {
        char buf[160];
        std::snprintf(buf, sizeof buf, "%s: clock %a energy %a units %llu",
                      what, machine.nowNs(),
                      machine.power().energyMillijoules(),
                      static_cast<unsigned long long>(machine.computeUnits()));
        seen.push_back(buf);
    };
    machine.mem().setFaultHandler([&](uint64_t page) {
        record(("fault " + std::to_string(page)).c_str());
        machine.mem().installPage(page, nullptr);
        return true;
    });
    interp::DefaultEnv env;
    std::unique_ptr<interp::ExecBackend> exec;
    if (backend == interp::BackendKind::NativeC) {
        auto prepared = codegen::PreparedModule::prepare(codegen::emitModule(
            module, interp::effectiveLayout(module, machine)));
        if (prepared == nullptr)
            return {"no host toolchain"};
        exec = std::make_unique<codegen::NativeExec>(prepared, machine,
                                                     module, image, env);
    } else {
        exec = std::make_unique<interp::Interp>(machine, module, image, env);
    }
    ir::Function *main_fn = module.functionByName("main");
    EXPECT_EQ(exec->call(main_fn, {}).i, 0);
    record("end");
    return seen;
}

} // namespace

TEST(CodegenOracle, MissMidBlockSeesTheInterpretersClock)
{
    ASSERT_TRUE(codegen::toolchainAvailable());
    // The loop body is one block, so one charge segment: arithmetic
    // between a load of a page never touched (a fault), a store that
    // faults in about half the iterations, and a load of a page already
    // touched, which misses the 64-way translation cache whenever one
    // of the 96 pages in use has taken its way since.
    auto module = frontend::compileSource(R"(
        long sum;
        int main() {
            long *heap = (long *)malloc(96 * 4096);
            long x = 7;
            double f = 1.5;
            for (int i = 0; i < 64; i++) {
                x = x * 3 + i;
                f = f * 1.25 + 0.5;
                long y = heap[i * 512];
                x = x ^ y;
                f = f + (double)(x & 1023);
                heap[(95 - i) * 512 + 3] = x;
                x = x + (long)f;
                x = x + heap[((i * 7) % (i + 1)) * 512 + 1];
                f = f * 0.75;
            }
            sum = x + (long)f;
            return 0;
        }
    )", "misses");
    std::vector<std::string> interp =
        clocksAtFaults(*module, interp::BackendKind::Interpreter);
    std::vector<std::string> native =
        clocksAtFaults(*module, interp::BackendKind::NativeC);
    ASSERT_GE(interp.size(), 96u + 1); // a fault per page, and the end
    ASSERT_EQ(native.size(), interp.size());
    for (size_t i = 0; i < interp.size(); ++i)
        EXPECT_EQ(native[i], interp[i]) << "record " << i;
}

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
                        spec->evalInput, 4);
    FleetReport native_fleet =
        runBackendFleet(prog.compiled(), interp::BackendKind::NativeC,
                        spec->evalInput, 4);

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
        client.input = spec->evalInput;
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

// ---------------------------------------------------------------------------
// Console I/O reached only through a function pointer
// ---------------------------------------------------------------------------

namespace {

/**
 * A hot function reaching console I/O only through a function pointer,
 * next to a clean hot function (crunch) that does offload. The remote
 * I/O rewrite only retargets direct calls, so the function filter must
 * keep the pointer user on the device.
 */
struct FnPtrIoCase {
    const char *builtin;
    const char *hotFn;
    const char *source;
};

const FnPtrIoCase kFnPtrIoCases[] = {
    {"getchar", "sample", R"(
        typedef int (*ReadFn)();
        ReadFn reader;
        long crunch(int n) {
            long acc = 0;
            for (int i = 0; i < n * 4000; i++) acc += (i ^ (i >> 3)) % 11;
            return acc;
        }
        long sample(int n) {
            long acc = 0;
            for (int i = 0; i < n * 4000; i++) {
                acc += (i * 7) % 13;
                if (i % 2000 == 0) acc += reader();
            }
            return acc;
        }
        int main() {
            int first = getchar();
            reader = getchar;
            long a = crunch(40);
            long b = sample(40);
            printf("%d %ld %ld\n", first, a, b);
            return 0;
        }
    )"},
    {"putchar", "emit", R"(
        typedef int (*WriteFn)(int);
        WriteFn writer;
        long crunch(int n) {
            long acc = 0;
            for (int i = 0; i < n * 4000; i++) acc += (i ^ (i >> 3)) % 11;
            return acc;
        }
        long emit(int n) {
            long acc = 0;
            for (int i = 0; i < n * 4000; i++) {
                acc += (i * 7) % 13;
                if (i % 40000 == 0) writer(65 + i / 40000);
            }
            return acc;
        }
        int main() {
            putchar(60);
            writer = putchar;
            long b = emit(40);
            putchar(62);
            long a = crunch(40);
            printf(" %ld %ld\n", a, b);
            return 0;
        }
    )"},
};

} // namespace

TEST(FunctionPointerIo, StaysLocalAndPrintsTheLocalConsole)
{
    ASSERT_TRUE(codegen::toolchainAvailable());
    std::string text(200, 'a');
    for (size_t i = 0; i < text.size(); ++i)
        text[i] = static_cast<char>('a' + (i * 7) % 26);

    for (const FnPtrIoCase &c : kFnPtrIoCases) {
        SCOPED_TRACE(c.builtin);
        core::CompileRequest req;
        req.name = c.hotFn;
        req.source = c.source;
        req.profilingInput.stdinText = text;
        core::Program prog = core::Program::compile(req);

        const compiler::Candidate *hot =
            prog.compiled().selection.byName(c.hotFn);
        ASSERT_NE(hot, nullptr);
        EXPECT_TRUE(hot->machineSpecific);
        EXPECT_NE(hot->filterReason.find(c.builtin), std::string::npos)
            << hot->filterReason;
        EXPECT_EQ(prog.targets(), std::vector<std::string>{"crunch"});

        RunInput input;
        input.stdinText = text;
        std::string local = prog.runLocal(input).console;
        EXPECT_FALSE(local.empty());
        for (bool slow : {false, true}) {
            for (interp::BackendKind backend :
                 {interp::BackendKind::Interpreter,
                  interp::BackendKind::NativeC}) {
                SCOPED_TRACE(std::string(slow ? "802.11n " : "802.11ac ") +
                             interp::backendKindName(backend));
                RunReport report =
                    prog.run(backendConfig(backend, slow), input);
                EXPECT_GT(report.offloads, 0u);
                EXPECT_EQ(report.console, local);
            }
        }
    }
}
