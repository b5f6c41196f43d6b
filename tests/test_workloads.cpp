/**
 * @file
 * Workload-suite tests. Structural checks (compilation, target
 * selection, Table 4 shape) run for all 17 SPEC-shaped programs via a
 * parameterized suite; full offloaded-vs-local equivalence runs for a
 * representative subset to keep test time reasonable.
 */
#include <gtest/gtest.h>

#include "core/nativeoffloader.hpp"
#include "frontend/codegen.hpp"
#include "ir/loopinfo.hpp"
#include "ir/verifier.hpp"
#include "workloads/workloads.hpp"

using namespace nol;
using namespace nol::workloads;

namespace {

core::Program
compileWorkload(const WorkloadSpec &spec, bool fieldSensitive = true)
{
    core::CompileRequest req;
    req.name = spec.id;
    req.source = spec.source;
    req.profilingInput = spec.profilingInput;
    req.fieldSensitiveAnalysis = fieldSensitive;
    return core::Program::compile(req);
}

std::set<std::string>
uvaGlobalNames(const ir::Module &module)
{
    std::set<std::string> out;
    for (const auto &gv : module.globals())
        if (gv->inUva())
            out.insert(gv->name());
    return out;
}

/** Blocks of @p fn the entry reaches without passing through @p cut. */
std::set<const ir::BasicBlock *>
reachableAvoiding(const ir::Function &fn, const ir::BasicBlock *cut)
{
    std::set<const ir::BasicBlock *> seen;
    std::vector<const ir::BasicBlock *> work;
    if (fn.entry() != cut)
        work.push_back(fn.entry());
    while (!work.empty()) {
        const ir::BasicBlock *bb = work.back();
        work.pop_back();
        if (!seen.insert(bb).second)
            continue;
        for (const ir::BasicBlock *succ : bb->successors()) {
            if (succ != cut)
                work.push_back(succ);
        }
    }
    return seen;
}

} // namespace

TEST(WorkloadRegistry, HasAll17InTable4Order)
{
    const auto &all = allWorkloads();
    ASSERT_EQ(all.size(), 17u);
    EXPECT_EQ(all.front().id, "164.gzip");
    EXPECT_EQ(all.back().id, "482.sphinx3");
    EXPECT_NE(workloadById("458.sjeng"), nullptr);
    EXPECT_EQ(workloadById("999.nope"), nullptr);
}

TEST(WorkloadRegistry, PaperReferenceDataPresent)
{
    for (const WorkloadSpec &spec : allWorkloads()) {
        EXPECT_GT(spec.paper.execSeconds, 0) << spec.id;
        EXPECT_GT(spec.paper.coveragePct, 0) << spec.id;
        EXPECT_GE(spec.paper.invocations, 1) << spec.id;
        EXPECT_GT(spec.paper.trafficMb, 0) << spec.id;
        EXPECT_GT(spec.memScale, 0) << spec.id;
        EXPECT_FALSE(spec.source.empty()) << spec.id;
    }
    // Only gzip carries the paper's '*' (refused on 802.11n).
    EXPECT_FALSE(workloadById("164.gzip")->paper.offloadedOnSlow);
    EXPECT_TRUE(workloadById("470.lbm")->paper.offloadedOnSlow);
}

// ---------------------------------------------------------------------------
// Structural property per workload (parameterized sweep).
// ---------------------------------------------------------------------------

class WorkloadStructure : public ::testing::TestWithParam<std::string>
{
};

TEST_P(WorkloadStructure, SelectsExpectedTargetAndMatchesTable4Shape)
{
    const WorkloadSpec *spec = workloadById(GetParam());
    ASSERT_NE(spec, nullptr);
    core::Program prog = compileWorkload(*spec);

    // The paper's target (function or outlined loop) must be selected.
    auto targets = prog.targets();
    bool found = false;
    for (const std::string &t : targets)
        found |= t == spec->expectedTarget;
    EXPECT_TRUE(found) << spec->id << ": expected "
                       << spec->expectedTarget;

    // Coverage of the selected targets should be in the paper's range.
    double cov = 0;
    for (const std::string &t : targets)
        cov += prog.compiled().profile.coverage(t);
    EXPECT_GT(cov, 0.70) << spec->id;
    EXPECT_LE(cov, 1.001) << spec->id;

    // Every struct is layout-pinned, the ABI unified, malloc replaced.
    const ir::Module &mobile = *prog.compiled().partition.mobileModule;
    EXPECT_NE(mobile.unifiedAbi(), nullptr);
    for (const ir::StructType *st : mobile.types().structs())
        EXPECT_TRUE(st->hasExplicitLayout()) << spec->id << " " << st->name();
}

INSTANTIATE_TEST_SUITE_P(
    AllSpecPrograms, WorkloadStructure,
    ::testing::Values("164.gzip", "175.vpr", "177.mesa", "179.art",
                      "183.equake", "188.ammp", "300.twolf", "401.bzip2",
                      "429.mcf", "433.milc", "445.gobmk", "456.hmmer",
                      "458.sjeng", "462.libquantum", "464.h264ref",
                      "470.lbm", "482.sphinx3"),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &c : name) {
            if (c == '.')
                c = '_';
        }
        return name;
    });

// ---------------------------------------------------------------------------
// End-to-end equivalence for a representative subset.
// ---------------------------------------------------------------------------

class WorkloadEquivalence : public ::testing::TestWithParam<std::string>
{
};

TEST_P(WorkloadEquivalence, OffloadedMatchesLocal)
{
    const WorkloadSpec *spec = workloadById(GetParam());
    ASSERT_NE(spec, nullptr);
    core::Program prog = compileWorkload(*spec);
    const runtime::RunInput &input = spec->evalInput;

    runtime::RunReport local = prog.runLocal(input);

    runtime::SystemConfig fast;
    fast.memScale = spec->memScale;
    runtime::RunReport off = prog.run(fast, input);

    EXPECT_EQ(off.exitValue, local.exitValue) << spec->id;
    EXPECT_EQ(off.console, local.console) << spec->id;
    EXPECT_GT(off.offloads, 0u) << spec->id;
    EXPECT_LT(off.mobileSeconds, local.mobileSeconds) << spec->id;
}

INSTANTIATE_TEST_SUITE_P(
    Subset, WorkloadEquivalence,
    ::testing::Values("164.gzip", "445.gobmk", "456.hmmer", "458.sjeng",
                      "462.libquantum"),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &c : name) {
            if (c == '.')
                c = '_';
        }
        return name;
    });

// ---------------------------------------------------------------------------
// Field-sensitive analysis precision (differential vs the insensitive
// oracle; see analysis/pointsto.hpp).
// ---------------------------------------------------------------------------

class FieldSensitivePrecision : public ::testing::TestWithParam<std::string>
{
};

TEST_P(FieldSensitivePrecision, StrictlyShrinksUvaWithIdenticalOutputs)
{
    const WorkloadSpec *spec = workloadById(GetParam());
    ASSERT_NE(spec, nullptr);
    core::Program sens = compileWorkload(*spec, /*fieldSensitive=*/true);
    core::Program flat = compileWorkload(*spec, /*fieldSensitive=*/false);

    // Strict shrink of both the UVA global set and its page footprint.
    const auto &stats = sens.compiled().unifyStats;
    const auto &flat_stats = flat.compiled().unifyStats;
    EXPECT_TRUE(stats.fieldSensitive);
    EXPECT_LT(stats.uvaGlobals, flat_stats.uvaGlobals) << spec->id;
    EXPECT_LT(stats.uvaPages, flat_stats.uvaPages) << spec->id;
    EXPECT_GE(stats.uvaFieldLimitedGlobals, 1u) << spec->id;

    // The device-side trace buffer is the page saved: only reachable
    // through a config-struct field the kernel never touches.
    const ir::Module &mobile_s = *sens.compiled().partition.mobileModule;
    const ir::Module &mobile_f = *flat.compiled().partition.mobileModule;
    const ir::GlobalVariable *buf_s = mobile_s.globalByName("uiTraceBuf");
    const ir::GlobalVariable *buf_f = mobile_f.globalByName("uiTraceBuf");
    ASSERT_NE(buf_s, nullptr);
    ASSERT_NE(buf_f, nullptr);
    EXPECT_FALSE(buf_s->inUva()) << spec->id;
    EXPECT_TRUE(buf_f->inUva()) << spec->id;

    // Same partition, bit-identical execution in both modes.
    EXPECT_EQ(sens.targets(), flat.targets()) << spec->id;
    const runtime::RunInput &input = spec->evalInput;
    runtime::RunReport a = sens.runLocal(input);
    runtime::RunReport b = flat.runLocal(input);
    EXPECT_EQ(a.console, b.console) << spec->id;
    EXPECT_EQ(a.exitValue, b.exitValue) << spec->id;
}

INSTANTIATE_TEST_SUITE_P(
    StructHeavy, FieldSensitivePrecision,
    ::testing::Values("188.ammp", "300.twolf", "433.milc"),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &c : name) {
            if (c == '.')
                c = '_';
        }
        return name;
    });

TEST(FieldSensitiveSweep, UvaSubsetAndIdenticalOutputsOnAllWorkloads)
{
    // The differential-oracle contract over the whole suite and chess:
    // the field-sensitive UVA set is contained in the insensitive one,
    // target selection is unchanged, and execution is bit-identical.
    std::vector<WorkloadSpec> specs = allWorkloads();
    specs.push_back(makeChess(3));
    for (const WorkloadSpec &spec : specs) {
        core::Program sens = compileWorkload(spec, true);
        core::Program flat = compileWorkload(spec, false);

        std::set<std::string> uva_s =
            uvaGlobalNames(*sens.compiled().partition.mobileModule);
        std::set<std::string> uva_f =
            uvaGlobalNames(*flat.compiled().partition.mobileModule);
        for (const std::string &name : uva_s)
            EXPECT_TRUE(uva_f.count(name))
                << spec.id << ": " << name
                << " in the field-sensitive UVA set but not the "
                << "insensitive oracle's";
        EXPECT_EQ(sens.targets(), flat.targets()) << spec.id;

        // Bit-identical run (profiling-sized input keeps this fast).
        runtime::RunInput input;
        input.stdinText = spec.profilingInput.stdinText;
        input.files = spec.profilingInput.files;
        runtime::RunReport a = sens.runLocal(input);
        runtime::RunReport b = flat.runLocal(input);
        EXPECT_EQ(a.console, b.console) << spec.id;
        EXPECT_EQ(a.exitValue, b.exitValue) << spec.id;
    }
}

// ---------------------------------------------------------------------------
// The chess running example (Fig. 3 / Tables 1 and 3).
// ---------------------------------------------------------------------------

TEST(WorkloadDominators, MatchBruteForceOnEveryFunction)
{
    // a dominates b exactly when removing a leaves b unreachable from
    // the entry; and every use in these programs is dominated.
    std::vector<WorkloadSpec> specs = allWorkloads();
    specs.push_back(makeChess(3));
    size_t pairs = 0;
    for (const WorkloadSpec &spec : specs) {
        auto module = frontend::compileSource(spec.source, spec.id);
        for (const auto &fn : module->functions()) {
            if (!fn->hasBody())
                continue;
            SCOPED_TRACE(spec.id + " @" + fn->name());
            ir::DominatorTree dom(*fn);
            for (const auto &a : fn->blocks()) {
                std::set<const ir::BasicBlock *> rest =
                    reachableAvoiding(*fn, a.get());
                for (const auto &b : fn->blocks()) {
                    ASSERT_EQ(dom.dominates(a.get(), b.get()),
                              rest.count(b.get()) == 0)
                        << a->name() << " over " << b->name();
                    ++pairs;
                }
            }
            EXPECT_TRUE(ir::undefinedUses(*fn).empty());
        }
    }
    EXPECT_GT(pairs, 10000u);
}

TEST(ChessExample, SelectsGetAITurnLikeFig3)
{
    WorkloadSpec chess = makeChess(6);
    core::Program prog = compileWorkload(chess);
    auto targets = prog.targets();
    ASSERT_FALSE(targets.empty());
    EXPECT_EQ(targets[0], "getAITurn");

    // getPlayerTurn is interactive — never offloadable (Sec. 3.1).
    const auto *player =
        prog.compiled().selection.byName("getPlayerTurn");
    if (player != nullptr) {
        EXPECT_TRUE(player->machineSpecific);
    }
}

TEST(ChessExample, DifficultyScalesComputation)
{
    WorkloadSpec easy = makeChess(5);
    WorkloadSpec hard = makeChess(8);
    core::Program easy_prog = compileWorkload(easy);
    core::Program hard_prog = compileWorkload(hard);
    runtime::RunReport easy_run = easy_prog.runLocal(easy.evalInput);
    runtime::RunReport hard_run = hard_prog.runLocal(hard.evalInput);
    // Deeper thinking must cost substantially more (Table 1's shape).
    EXPECT_GT(hard_run.mobileSeconds, easy_run.mobileSeconds * 2.0);
}

TEST(ChessExample, MobileServerGapMatchesTable1)
{
    // Table 1: the smartphone is ~5.4-5.9x slower across difficulties.
    WorkloadSpec chess = makeChess(6);
    core::Program prog = compileWorkload(chess);
    const runtime::RunInput &input = chess.evalInput;
    runtime::RunReport local = prog.runLocal(input);
    runtime::RunReport ideal = prog.runIdeal(input);
    ASSERT_GT(ideal.offloads, 0u);
    // Ideal offloading approaches the architectural speed ratio on the
    // offloaded portion; whole-program gap is below R but well above 1.
    double gap = local.mobileSeconds / ideal.mobileSeconds;
    EXPECT_GT(gap, 3.0);
    EXPECT_LT(gap, 9.0);
}
