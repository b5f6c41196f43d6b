/**
 * @file
 * Compiler-pass tests: profiler, function filter, static estimator
 * (Table 3 golden numbers), target selector, memory unifier and
 * partitioner.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <map>

#include "codegen/cemitter.hpp"
#include "compiler/driver.hpp"
#include "frontend/codegen.hpp"
#include "interp/loader.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"
#include "workloads/workloads.hpp"

using namespace nol;
using namespace nol::compiler;

namespace {

/** A self-contained chess-like program shaped after the paper's Fig. 3. */
const char *kChessSrc = R"(
typedef struct { char from; char to; double score; } Move;
typedef struct { char loc; char owner; char type; } Piece;
typedef double (*EVALFUNC)(Piece*);

int maxDepth;
Piece* board;

double evalPawn(Piece* p) { return 1.0 + p->loc * 0.01; }
double evalKnight(Piece* p) { return 3.0 + p->loc * 0.01; }
double evalKing(Piece* p) { return 100.0 + p->loc * 0.01; }
EVALFUNC evals[3] = { evalPawn, evalKnight, evalKing };

void getAITurn(Move* mv) {
    mv->score = 0.0;
    for (int i = 0; i < maxDepth; i++) {
        for (int j = 0; j < 64; j++) {
            char pieceType = board[j].type;
            EVALFUNC eval = evals[pieceType];
            double s = eval(&board[j]);
            for (int k = 0; k < 220; k++) {
                s = s + (double)((j * k) % 7) * 0.125;
            }
            mv->score += s;
        }
    }
    mv->from = 1; mv->to = 2;
}

void getPlayerTurn(Move* mv) {
    int from; int to;
    scanf("%d %d", &from, &to);
    mv->from = (char)from;
    mv->to = (char)to;
}

void updateBoard(Move* mv) {
    board[mv->to % 64].loc = board[mv->from % 64].loc;
}

int main() {
    scanf("%d", &maxDepth);
    board = (Piece*)malloc(sizeof(Piece) * 64);
    for (int j = 0; j < 64; j++) {
        board[j].loc = (char)j;
        board[j].owner = (char)(j % 2);
        board[j].type = (char)(j % 3);
    }
    int turns = 3;
    Move mv;
    while (turns > 0) {
        getPlayerTurn(&mv);
        updateBoard(&mv);
        getAITurn(&mv);
        printf("%f\n", mv.score);
        updateBoard(&mv);
        turns--;
    }
    return (int)mv.score % 100;
}
)";

CompiledProgram
compileChess()
{
    auto mod = frontend::compileSource(kChessSrc, "chess.c");
    CompileOptions options;
    options.profilingInput.stdinText = "2 0 1 2 3 4 5";
    return compileForOffload(std::move(mod), options);
}

} // namespace

TEST(Estimator, Table3GoldenNumbers)
{
    // Paper Table 3: R = 5, BW = 80 Mbps.
    decision::ModelParams params{5.0, 80.0};

    // runGame: Tm 27.0 s, 20 MB, 1 invocation.
    decision::Terms run_game = decision::evaluate(27.0, 20'000'000, 1, params);
    EXPECT_NEAR(run_game.idealGain, 21.6, 0.01);
    EXPECT_NEAR(run_game.commSeconds, 4.0, 0.01);
    EXPECT_NEAR(run_game.gain, 17.6, 0.01);

    // getAITurn: Tm 26.0 s, 12 MB, 3 invocations.
    decision::Terms ai_turn = decision::evaluate(26.0, 12'000'000, 3, params);
    EXPECT_NEAR(ai_turn.idealGain, 20.8, 0.01);
    EXPECT_NEAR(ai_turn.commSeconds, 7.2, 0.01);
    EXPECT_NEAR(ai_turn.gain, 13.6, 0.01);

    // for_j: Tm 25.0 s, 12 MB, 36 invocations → NEGATIVE gain.
    decision::Terms for_j = decision::evaluate(25.0, 12'000'000, 36, params);
    EXPECT_NEAR(for_j.commSeconds, 86.4, 0.01);
    EXPECT_NEAR(for_j.gain, -66.4, 0.01);
    EXPECT_FALSE(for_j.profitable());

    // getPlayerTurn: Tm 1.5 s, 10 MB, 3 invocations → negative.
    decision::Terms player = decision::evaluate(1.5, 10'000'000, 3, params);
    EXPECT_NEAR(player.gain, -4.8, 0.01);
}

TEST(Filter, ClassifiesChessFunctions)
{
    auto mod = frontend::compileSource(kChessSrc, "chess.c");
    FilterResult filter = runFunctionFilter(*mod);

    // getPlayerTurn calls scanf: interactive I/O → machine specific;
    // so are its (transitive) callers.
    EXPECT_TRUE(filter.isMachineSpecific(mod->functionByName("getPlayerTurn")));
    EXPECT_TRUE(filter.isMachineSpecific(mod->functionByName("main")));
    // getAITurn only computes (printf in main, not here) → offloadable.
    EXPECT_FALSE(filter.isMachineSpecific(mod->functionByName("getAITurn")));
    EXPECT_FALSE(filter.isMachineSpecific(mod->functionByName("evalPawn")));
    EXPECT_NE(filter.reason(mod->functionByName("getPlayerTurn")).find("scanf"),
              std::string::npos);
}

TEST(Filter, RemoteIoKeepsPrintfOffloadable)
{
    const char *src = R"(
        int work(int n) {
            int s = 0;
            for (int i = 0; i < n; i++) { s += i; }
            printf("%d\n", s);
            return s;
        }
        int main() { return work(100); }
    )";
    auto mod = frontend::compileSource(src, "t.c");

    FilterResult with_rio = runFunctionFilter(*mod, {true});
    EXPECT_FALSE(with_rio.isMachineSpecific(mod->functionByName("work")));

    FilterResult without_rio = runFunctionFilter(*mod, {false});
    EXPECT_TRUE(without_rio.isMachineSpecific(mod->functionByName("work")));
}

TEST(Filter, AsmAndSyscallTaint)
{
    const char *src = R"(
        void spin() { __machine_asm("wfi"); }
        long sys() { return __syscall(42); }
        int pure(int x) { return x * 2; }
        int main() { spin(); sys(); return pure(2); }
    )";
    auto mod = frontend::compileSource(src, "t.c");
    FilterResult filter = runFunctionFilter(*mod);
    EXPECT_TRUE(filter.isMachineSpecific(mod->functionByName("spin")));
    EXPECT_TRUE(filter.isMachineSpecific(mod->functionByName("sys")));
    EXPECT_FALSE(filter.isMachineSpecific(mod->functionByName("pure")));
}

TEST(Pipeline, ChessSelectsGetAITurn)
{
    CompiledProgram prog = compileChess();
    ASSERT_FALSE(prog.partition.targets.empty());
    EXPECT_EQ(prog.partition.targets[0].name, "getAITurn");

    // The interactive functions were never candidates for selection.
    const Candidate *player = prog.selection.byName("getPlayerTurn");
    ASSERT_NE(player, nullptr);
    EXPECT_TRUE(player->machineSpecific);
}

TEST(Pipeline, ProfileCoverageAndInvocations)
{
    CompiledProgram prog = compileChess();
    const profile::RegionProfile *ai = prog.profile.byName("getAITurn");
    ASSERT_NE(ai, nullptr);
    EXPECT_EQ(ai->invocations, 3u);
    EXPECT_GT(prog.profile.coverage("getAITurn"), 0.80);
    EXPECT_GT(ai->memPages, 0u);
}

TEST(Pipeline, UnifierPinsLayoutsAndAbi)
{
    CompiledProgram prog = compileChess();
    EXPECT_GT(prog.unifyStats.structsRealigned, 0u);
    EXPECT_GT(prog.unifyStats.allocSitesReplaced, 0u);
    EXPECT_TRUE(prog.unifyStats.addressSizeConversion); // 32 vs 64 bit
    EXPECT_FALSE(prog.unifyStats.endiannessTranslation); // both LE

    const ir::Module &mobile = *prog.partition.mobileModule;
    EXPECT_NE(mobile.unifiedAbi(), nullptr);
    EXPECT_EQ(mobile.unifiedAbi()->pointerSize, 4u);
    for (const ir::StructType *st : mobile.types().structs())
        EXPECT_TRUE(st->hasExplicitLayout()) << st->name();

    // malloc was rewritten to u_malloc everywhere.
    EXPECT_NE(mobile.functionByName("u_malloc"), nullptr);
}

TEST(Pipeline, ReferencedGlobalsMoveToUva)
{
    CompiledProgram prog = compileChess();
    const ir::Module &mobile = *prog.partition.mobileModule;
    // board, maxDepth and evals are all referenced by getAITurn's
    // reachable code.
    EXPECT_TRUE(mobile.globalByName("board")->inUva());
    EXPECT_TRUE(mobile.globalByName("maxDepth")->inUva());
    EXPECT_TRUE(mobile.globalByName("evals")->inUva());
    EXPECT_GE(prog.unifyStats.uvaGlobals, 3u);
}

TEST(Pipeline, MobileCallSitesRewrittenToStub)
{
    CompiledProgram prog = compileChess();
    const ir::Module &mobile = *prog.partition.mobileModule;
    EXPECT_NE(mobile.functionByName("nol.offload.getAITurn"), nullptr);
    EXPECT_GT(prog.partition.callSitesRewritten, 0u);

    // main's call now goes to the stub, not the target.
    bool stub_called = false;
    for (const auto &bb : mobile.functionByName("main")->blocks()) {
        for (const auto &inst : bb->insts()) {
            if (inst->op() == ir::Opcode::Call &&
                inst->callee()->name() == "nol.offload.getAITurn") {
                stub_called = true;
            }
            if (inst->op() == ir::Opcode::Call) {
                EXPECT_NE(inst->callee()->name(), "getAITurn");
            }
        }
    }
    EXPECT_TRUE(stub_called);
    // The local fallback body is still available.
    EXPECT_TRUE(mobile.functionByName("getAITurn")->hasBody());
}

TEST(Pipeline, ServerUnusedFunctionsStripped)
{
    CompiledProgram prog = compileChess();
    const ir::Module &server = *prog.partition.serverModule;
    EXPECT_TRUE(server.functionByName("getAITurn")->hasBody());
    EXPECT_TRUE(server.functionByName("evalPawn")->hasBody());
    // getPlayerTurn / updateBoard / main are unused on the server.
    EXPECT_FALSE(server.functionByName("getPlayerTurn")->hasBody());
    EXPECT_FALSE(server.functionByName("main")->hasBody());
    EXPECT_LT(prog.partition.serverFunctionsKept,
              prog.partition.totalFunctions);
}

TEST(Pipeline, ServerCountsFunctionPointerUses)
{
    CompiledProgram prog = compileChess();
    EXPECT_GT(prog.partition.functionPointerUses, 0u);
}

TEST(Pipeline, RemoteIoRewriting)
{
    // A program whose offloaded region prints: the server module must
    // call r_printf while the mobile module keeps printf.
    const char *src = R"(
        int heavy(int n) {
            int s = 0;
            for (int i = 0; i < n; i++) {
                for (int j = 0; j < 1000; j++) s += (i * j) % 13;
            }
            printf("%d\n", s);
            return s;
        }
        int main() { return heavy(2000) % 7; }
    )";
    auto mod = frontend::compileSource(src, "t.c");
    CompileOptions options;
    CompiledProgram prog = compileForOffload(std::move(mod), options);
    ASSERT_FALSE(prog.partition.targets.empty());

    const ir::Module &server = *prog.partition.serverModule;
    EXPECT_NE(server.functionByName("r_printf"), nullptr);
    EXPECT_GT(prog.partition.remoteOutputSites, 0u);

    const ir::Module &mobile = *prog.partition.mobileModule;
    EXPECT_EQ(mobile.functionByName("r_printf"), nullptr);
}

TEST(Pipeline, LoopTargetOutlined)
{
    // main's hot loop is machine-independent but main itself is not a
    // candidate → the loop gets outlined and offloaded.
    const char *src = R"(
        double acc;
        int main() {
            acc = 0.0;
            scanf("%d", 0);
            for (int i = 0; i < 4000; i++) {
                for (int j = 0; j < 500; j++) {
                    acc += (double)((i ^ j) & 15) * 0.5;
                }
            }
            printf("%f\n", acc);
            return 0;
        }
    )";
    auto mod = frontend::compileSource(src, "t.c");
    CompileOptions options;
    options.profilingInput.stdinText = "1";
    CompiledProgram prog = compileForOffload(std::move(mod), options);
    ASSERT_FALSE(prog.partition.targets.empty());
    EXPECT_EQ(prog.partition.targets[0].name, "main_for.cond");
    EXPECT_TRUE(prog.partition.targets[0].wasLoop);
    EXPECT_NE(prog.partition.serverModule->functionByName("main_for.cond"),
              nullptr);
}

TEST(Pipeline, NoProfitableTargetCompilesToLocalOnly)
{
    const char *src = R"(
        int main() { return 7; }
    )";
    auto mod = frontend::compileSource(src, "t.c");
    CompiledProgram prog = compileForOffload(std::move(mod), {});
    EXPECT_TRUE(prog.partition.targets.empty());
    EXPECT_NE(prog.partition.mobileModule, nullptr);
}

TEST(Pipeline, ModulesVerifyAfterAllPasses)
{
    CompiledProgram prog = compileChess();
    EXPECT_TRUE(ir::verifyModule(*prog.partition.mobileModule).empty());
    EXPECT_TRUE(ir::verifyModule(*prog.partition.serverModule).empty());
}

namespace {

/** Every field of @p prof, one per line; times in %a keep every bit. */
std::string
profileText(const profile::ProfileResult &prof)
{
    std::string text;
    char buf[64];
    for (const auto &[name, region] : prof.regions) {
        text += name + '\n' + region.name + '\n';
        text += region.isLoop ? "loop\n" : "function\n";
        text += (region.fn != nullptr ? region.fn->name() : "-") + '\n';
        text += (region.loop != nullptr ? region.loop->name : "-") + '\n';
        std::snprintf(buf, sizeof buf, "%a\n", region.execNs);
        text += buf;
        text += std::to_string(region.invocations) + '\n';
        text += std::to_string(region.memPages) + '\n';
    }
    std::snprintf(buf, sizeof buf, "%a\n", prof.totalNs);
    text += buf;
    text += std::to_string(prof.exitValue) + '\n';
    return text;
}

/**
 * Digests of profileText for the profile of every workload and chess
 * (depth 3) on its profiling input, as Program::compile profiles it.
 * They pin the profiler's regions, times, invocation counts and page
 * footprints, and under them the interpreter's charges: a change to
 * how either runs must leave every digest as it is.
 */
const std::map<std::string, std::string> kProfileGolden = {
    {"164.gzip", "880476d4786cd818"},
    {"175.vpr", "7eddfa56f3e7d0e9"},
    {"177.mesa", "189007a72dc4dcde"},
    {"179.art", "4811fb0153b7e939"},
    {"183.equake", "5151cac8e62453f0"},
    {"188.ammp", "f55605a1414012f5"},
    {"300.twolf", "559c495d30216040"},
    {"401.bzip2", "fb87b309c9f14080"},
    {"429.mcf", "849fbfef12cfa864"},
    {"433.milc", "31fd1ef856e7b5cc"},
    {"445.gobmk", "a3bdf543371bb2a2"},
    {"456.hmmer", "f555ac00145c6f01"},
    {"458.sjeng", "1be2f2c8877b89b9"},
    {"462.libquantum", "aab3af653587138c"},
    {"464.h264ref", "78e91e5897defeac"},
    {"470.lbm", "64da774dffa09590"},
    {"482.sphinx3", "738bed30a90f21b0"},
    {"chess", "daa14decef3643bb"},
};

} // namespace

TEST(Profiler, WorkloadProfilesMatchGoldenDigests)
{
    std::vector<workloads::WorkloadSpec> specs = workloads::allWorkloads();
    specs.push_back(workloads::makeChess(3));
    for (const workloads::WorkloadSpec &spec : specs) {
        SCOPED_TRACE(spec.id);
        auto mod = frontend::compileSource(spec.source, spec.id);
        profile::ProfileResult prof = profile::profileModule(
            *mod, CompileOptions().mobileSpec, spec.profilingInput, "main");
        EXPECT_EQ(codegen::contentDigest(profileText(prof)),
                  kProfileGolden.at(spec.id));
    }
}

namespace {

/**
 * One program for every way a region is left: a break out of an inner
 * loop, a return from two nested loops, two back-to-back loops, a
 * recursive call inside a loop, and exit() in the middle of a loop.
 */
const char *kRegionEdgeSrc = R"(
int g;
int grid[3000];

int firstHit(int key) {
    int hits = 0;
    for (int r = 0; r < 3; r++) {
        for (int i = 0; i < 10; i++) {
            if (grid[i] == key)
                break;
        }
        hits++;
    }
    return hits;
}

int pairSum(int n) {
    for (int i = 0; i < n; i++) {
        for (int j = 0; j < n; j++) {
            if (i * j == 6)
                return i + j;
        }
    }
    return -1;
}

int walk(int n) {
    int s = 0;
    for (int k = 0; k < 2; k++) {
        if (n > 0)
            s += walk(n - 1);
        s += k;
    }
    return s + 1;
}

int main() {
    for (g = 0; g < 3000; g++)
        grid[g] = g;
    int t = 0;
    while (t < 40)
        t += firstHit(5);
    t += pairSum(5) + pairSum(4);
    t += walk(9);
    for (int e = 0; e < 10; e++) {
        if (e == 3)
            exit(t % 200);
        t += e;
    }
    return 0;
}
)";

} // namespace

TEST(Profiler, RegionEdgesCountEachEntryOnce)
{
    auto mod = frontend::compileSource(kRegionEdgeSrc, "edges.c");
    const arch::ArchSpec spec = CompileOptions().mobileSpec;
    profile::ProfileResult prof =
        profile::profileModule(*mod, spec, {}, "main");

    auto invocations = [&](const std::string &name) -> uint64_t {
        const profile::RegionProfile *region = prof.byName(name);
        EXPECT_NE(region, nullptr) << name;
        return region == nullptr ? 0 : region->invocations;
    };
    // t climbs by 3 per firstHit call until it passes 40: 14 calls,
    // each running the outer loop once and the inner loop 3 times,
    // leaving the inner one by break on every pass.
    EXPECT_EQ(invocations("firstHit"), 14u);
    EXPECT_EQ(invocations("firstHit_for.cond"), 14u);
    EXPECT_EQ(invocations("firstHit_for.cond8"), 42u);
    // Both calls return from the inner loop at i = 2, j = 3.
    EXPECT_EQ(invocations("pairSum"), 2u);
    EXPECT_EQ(invocations("pairSum_for.cond"), 2u);
    EXPECT_EQ(invocations("pairSum_for.cond19"), 6u);
    // walk(9) makes 2^10 - 1 calls, each running its loop once.
    EXPECT_EQ(invocations("walk"), 1023u);
    EXPECT_EQ(invocations("walk_for.cond"), 1023u);
    // The sweep, the while loop behind it and the loop exit() leaves.
    EXPECT_EQ(invocations("main"), 1u);
    EXPECT_EQ(invocations("main_for.cond"), 1u);
    EXPECT_EQ(invocations("main_while.cond"), 1u);
    EXPECT_EQ(invocations("main_for.cond45"), 1u);
    EXPECT_EQ(prof.regions.size(), 12u);
    // walk(9) returns 2046, so t is 2101 when exit() runs at e = 3.
    EXPECT_EQ(prof.exitValue, 101);

    // A recursive region is timed from its outermost entry only; were
    // each re-entry timed, walk's ten nested levels would add up to
    // several times the whole run.
    for (const char *name : {"walk", "walk_for.cond"}) {
        ASSERT_NE(prof.byName(name), nullptr);
        EXPECT_GT(prof.byName(name)->execNs, 0.0) << name;
        EXPECT_LE(prof.byName(name)->execNs, prof.totalNs) << name;
    }
    EXPECT_GT(prof.coverage("walk"), 0.5);
    // exit() closes every open region at the moment it runs.
    ASSERT_NE(prof.byName("main"), nullptr);
    EXPECT_EQ(prof.byName("main")->execNs, prof.totalNs);

    // The sweep touches g and grid[0..2999], globals packed in that
    // order, and nothing else: no local lives on its path.
    sim::SimMachine machine(sim::MachineRole::Mobile, spec);
    interp::ProgramImage image = interp::loadProgram(*mod, machine);
    uint64_t first = image.addressOf(mod->globalByName("g"));
    uint64_t last = image.addressOf(mod->globalByName("grid")) +
                    3000 * sizeof(int32_t) - 1;
    ASSERT_NE(prof.byName("main_for.cond"), nullptr);
    EXPECT_EQ(prof.byName("main_for.cond")->memPages,
              sim::pageOf(last) - sim::pageOf(first) + 1);
}
