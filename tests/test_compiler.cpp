/**
 * @file
 * Compiler-pass tests: profiler, function filter, static estimator
 * (Table 3 golden numbers), target selector, memory unifier and
 * partitioner.
 */
#include <gtest/gtest.h>

#include "compiler/driver.hpp"
#include "frontend/codegen.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"

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
