/**
 * @file
 * Analysis-layer tests: Andersen-style points-to (function-pointer
 * resolution, heap flow, unknown fallback, reachability), one-level
 * field sensitivity (per-slot contents, sibling isolation, the
 * subset-of-insensitive oracle), the taint attribute lattice (witness
 * chains, indirect-call classification), the function filter's
 * per-function loop verdicts, the post-partition offload-safety
 * verifier (clean pipeline accepted, every intentionally-broken module
 * pair rejected with a witness), and the verifier-driven repair loop
 * (every broken pair driven to 0 diagnostics within the bound).
 */
#include <gtest/gtest.h>

#include "analysis/corpus.hpp"
#include "analysis/partitionverifier.hpp"
#include "analysis/pointsto.hpp"
#include "analysis/repair.hpp"
#include "analysis/taint.hpp"
#include "compiler/driver.hpp"
#include "compiler/functionfilter.hpp"
#include "frontend/codegen.hpp"

using namespace nol;
using namespace nol::analysis;

namespace {

std::unique_ptr<ir::Module>
compile(const char *src)
{
    return frontend::compileSource(src, "test.c");
}

/** First CallIndirect instruction in @p fn (asserts there is one). */
const ir::Instruction *
firstIndirectSite(const ir::Function *fn)
{
    for (const auto &bb : fn->blocks()) {
        for (const auto &inst : bb->insts()) {
            if (inst->op() == ir::Opcode::CallIndirect)
                return inst.get();
        }
    }
    return nullptr;
}

std::set<std::string>
names(const std::set<const ir::Function *> &fns)
{
    std::set<std::string> out;
    for (const ir::Function *fn : fns)
        out.insert(fn->name());
    return out;
}

} // namespace

// ---------------------------------------------------------------------
// Points-to
// ---------------------------------------------------------------------

TEST(PointsTo, ResolvesFunctionPointerTable)
{
    auto mod = compile(R"(
        typedef int (*FN)(int);
        int inc(int x) { return x + 1; }
        int dec(int x) { return x - 1; }
        FN table[2] = { inc, dec };
        int apply(int which, int v) { FN f = table[which % 2]; return f(v); }
        int main() { return apply(0, 4) + apply(1, 4); }
    )");
    PointsToResult pts = analyzePointsTo(*mod);

    const ir::Instruction *site =
        firstIndirectSite(mod->functionByName("apply"));
    ASSERT_NE(site, nullptr);
    PointsToResult::CalleeSet callees = pts.indirectCallees(site);
    EXPECT_TRUE(callees.complete);
    EXPECT_EQ(names(callees.fns), (std::set<std::string>{"inc", "dec"}));
    EXPECT_EQ(names(pts.addressTaken()),
              (std::set<std::string>{"inc", "dec"}));
}

TEST(PointsTo, SeparateTablesStaySeparate)
{
    // The shrink mechanism: two tables, two call sites — each site
    // resolves only to the functions stored in *its* table, so the
    // fptr map / UVA set need not cover every address-taken function.
    auto mod = compile(R"(
        typedef int (*FN)(int);
        int hotA(int x) { return x * 2; }
        int hotB(int x) { return x * 3; }
        int uiA(int x) { return x + 10; }
        int uiB(int x) { return x + 20; }
        FN hot[2] = { hotA, hotB };
        FN ui[2] = { uiA, uiB };
        int kernel(int v) { FN f = hot[v % 2]; return f(v); }
        int main() { FN g = ui[kernel(5) % 2]; return g(1); }
    )");
    PointsToResult pts = analyzePointsTo(*mod);

    PointsToResult::CalleeSet hot_callees =
        pts.indirectCallees(firstIndirectSite(mod->functionByName("kernel")));
    EXPECT_TRUE(hot_callees.complete);
    EXPECT_EQ(names(hot_callees.fns),
              (std::set<std::string>{"hotA", "hotB"}));

    // Reachability from the kernel never touches the UI handlers.
    PointsToResult::Reachable reach =
        pts.reachableFrom({mod->functionByName("kernel")});
    EXPECT_TRUE(reach.precise);
    std::set<std::string> fns = names(reach.fns);
    EXPECT_EQ(fns.count("hotA"), 1u);
    EXPECT_EQ(fns.count("uiA"), 0u);
    EXPECT_EQ(fns.count("uiB"), 0u);
}

TEST(PointsTo, FunctionPointerFlowsThroughHeap)
{
    auto mod = compile(R"(
        typedef int (*FN)(int);
        int work(int x) { return x * x; }
        int main() {
            FN* slot = (FN*)malloc(sizeof(FN));
            *slot = work;
            FN f = *slot;
            return f(3);
        }
    )");
    PointsToResult pts = analyzePointsTo(*mod);
    PointsToResult::CalleeSet callees =
        pts.indirectCallees(firstIndirectSite(mod->functionByName("main")));
    EXPECT_TRUE(callees.complete);
    EXPECT_EQ(names(callees.fns), (std::set<std::string>{"work"}));
}

TEST(PointsTo, UnknownExternalForcesConservativeFallback)
{
    auto mod = compile(R"(
        typedef int (*FN)(int);
        FN getHandler(int which);   /* unmodeled external */
        int main() { FN f = getHandler(0); return f(3); }
    )");
    PointsToResult pts = analyzePointsTo(*mod);
    PointsToResult::CalleeSet callees =
        pts.indirectCallees(firstIndirectSite(mod->functionByName("main")));
    EXPECT_FALSE(callees.complete);

    PointsToResult::Reachable reach =
        pts.reachableFrom({mod->functionByName("main")});
    EXPECT_FALSE(reach.precise);
}

// ---------------------------------------------------------------------
// Field sensitivity
// ---------------------------------------------------------------------

namespace {

/** Dispatch-table-in-a-struct program: the kernel calls only through
 *  slot .hot, the UI loop only through slot .ui. */
const char *kSlotDispatchSrc = R"(
    typedef int (*FN)(int);
    int asksUser(int x) { int v; scanf("%d", &v); return v + x; }
    int clean(int x) { return x + 1; }
    typedef struct { FN ui; FN hot; } Tbl;
    Tbl tbl;
    int kernel(int v) { FN f = tbl.hot; return f(v); }
    int uiLoop(int v) { FN f = tbl.ui; return f(v); }
    int main() {
        tbl.ui = asksUser;
        tbl.hot = clean;
        return kernel(1) + uiLoop(2);
    }
)";

} // namespace

TEST(FieldSensitive, PerSlotContentsStaySeparate)
{
    auto mod = compile(kSlotDispatchSrc);
    PointsToResult pts = analyzePointsTo(*mod);
    ASSERT_TRUE(pts.fieldSensitive());

    // Each site resolves only to the function stored in *its* slot.
    PointsToResult::CalleeSet hot = pts.indirectCallees(
        firstIndirectSite(mod->functionByName("kernel")));
    EXPECT_TRUE(hot.complete);
    EXPECT_EQ(names(hot.fns), (std::set<std::string>{"clean"}));
    PointsToResult::CalleeSet ui = pts.indirectCallees(
        firstIndirectSite(mod->functionByName("uiLoop")));
    EXPECT_TRUE(ui.complete);
    EXPECT_EQ(names(ui.fns), (std::set<std::string>{"asksUser"}));
    EXPECT_GE(pts.stats().fieldSlots, 2u);

    // The legacy solver collapses the struct: both sites see both.
    PointsToResult flat = analyzePointsTo(*mod, {.fieldSensitive = false});
    EXPECT_FALSE(flat.fieldSensitive());
    EXPECT_EQ(names(flat.indirectCallees(
                        firstIndirectSite(mod->functionByName("kernel")))
                        .fns),
              (std::set<std::string>{"asksUser", "clean"}));
}

TEST(FieldSensitive, MachineSpecificFieldDoesNotTaintSiblings)
{
    // A machine-specific value held in one struct field must not taint
    // code that only touches a sibling field of the same object.
    auto mod = compile(kSlotDispatchSrc);

    PointsToResult pts = analyzePointsTo(*mod);
    AttributeResult taint = machineSpecificTaint(*mod, pts, {});
    EXPECT_FALSE(taint.has(mod->functionByName("kernel")));
    ASSERT_TRUE(taint.has(mod->functionByName("uiLoop")));
    const TaintWitness *w = taint.witness(mod->functionByName("uiLoop"));
    ASSERT_NE(w, nullptr);
    EXPECT_NE(w->str().find("asksUser"), std::string::npos);

    // Field-insensitively the sibling IS tainted — the isolation above
    // is precisely the field-sensitivity win.
    PointsToResult flat = analyzePointsTo(*mod, {.fieldSensitive = false});
    EXPECT_TRUE(machineSpecificTaint(*mod, flat, {})
                    .has(mod->functionByName("kernel")));
}

TEST(FieldSensitive, ResultsAreSubsetOfInsensitiveOracle)
{
    // Differential oracle: after collapsing fields to their base
    // object, every field-sensitive points-to set must be contained in
    // the corresponding field-insensitive one, for every value.
    auto mod = compile(kSlotDispatchSrc);
    PointsToResult sens = analyzePointsTo(*mod);
    PointsToResult flat = analyzePointsTo(*mod, {.fieldSensitive = false});

    auto collapse = [](const PtsSet &set) {
        std::set<MemObject> bases;
        for (const MemObject &obj : set)
            bases.insert(obj.base());
        return bases;
    };
    for (const auto &fn : mod->functions()) {
        for (const auto &bb : fn->blocks()) {
            for (const auto &inst : bb->insts()) {
                std::set<MemObject> s = collapse(sens.pointsTo(inst.get()));
                std::set<MemObject> f = collapse(flat.pointsTo(inst.get()));
                for (const MemObject &obj : s) {
                    EXPECT_TRUE(f.count(obj))
                        << fn->name() << ": sensitive set of "
                        << inst->name() << " contains " << obj.str()
                        << " but the insensitive oracle does not";
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Taint / attribute lattice
// ---------------------------------------------------------------------

TEST(Taint, WitnessChainNamesEveryFrame)
{
    auto mod = compile(R"(
        int readMove() { int m; scanf("%d", &m); return m; }
        int turn() { return readMove() + 1; }
        int main() { return turn(); }
    )");
    PointsToResult pts = analyzePointsTo(*mod);
    AttributeResult taint = machineSpecificTaint(*mod, pts, {});

    const ir::Function *main_fn = mod->functionByName("main");
    ASSERT_TRUE(taint.has(main_fn));
    const TaintWitness *w = taint.witness(main_fn);
    ASSERT_NE(w, nullptr);
    EXPECT_NE(w->reason.find("scanf"), std::string::npos);
    ASSERT_GE(w->steps.size(), 3u); // main -> turn -> readMove seed
    EXPECT_EQ(w->steps.front().fn, main_fn);
    EXPECT_EQ(w->steps.back().fn, mod->functionByName("readMove"));
    ASSERT_NE(w->steps.back().inst, nullptr);
    // Every frame renders with a function name.
    for (const std::string &frame : w->frames())
        EXPECT_EQ(frame[0], '@');
}

TEST(Taint, RemoteIoPolicyGatesPrintf)
{
    auto mod = compile(R"(
        int report(int x) { printf("%d\n", x); return x; }
        int main() { return report(3); }
    )");
    PointsToResult pts = analyzePointsTo(*mod);

    TaintPolicy remote_on;
    EXPECT_FALSE(machineSpecificTaint(*mod, pts, remote_on)
                     .has(mod->functionByName("report")));

    TaintPolicy remote_off;
    remote_off.remoteIoEnabled = false;
    AttributeResult taint = machineSpecificTaint(*mod, pts, remote_off);
    ASSERT_TRUE(taint.has(mod->functionByName("report")));
    EXPECT_NE(taint.witness(mod->functionByName("report"))
                  ->reason.find("printf"),
              std::string::npos);
}

TEST(Taint, ResolvedIndirectCallTaintsOnlyThroughTargets)
{
    // An indirect call is NOT machine specific per se: with a fully
    // resolved, clean target set the caller stays offloadable; taint
    // flows only when a resolved target is itself tainted, or is an
    // external the builtin table does not clear.
    auto mod = compile(R"(
        typedef int (*FN)(int);
        int clean1(int x) { return x + 1; }
        int clean2(int x) { return x * 2; }
        int asksUser(int x) { int v; scanf("%d", &v); return v + x; }
        int probe(int x);   /* unmodeled external */
        FN pure[2] = { clean1, clean2 };
        FN mixed[2] = { clean1, asksUser };
        FN outside[2] = { clean1, probe };
        int viaPure(int v) { FN f = pure[v % 2]; return f(v); }
        int viaMixed(int v) { FN f = mixed[v % 2]; return f(v); }
        int viaOutside(int v) { FN f = outside[v % 2]; return f(v); }
        int main() { return viaPure(1) + viaMixed(2) + viaOutside(3); }
    )");
    PointsToResult pts = analyzePointsTo(*mod);
    AttributeResult taint = machineSpecificTaint(*mod, pts, {});

    EXPECT_FALSE(taint.has(mod->functionByName("viaPure")));
    ASSERT_TRUE(taint.has(mod->functionByName("viaMixed")));
    const TaintWitness *w = taint.witness(mod->functionByName("viaMixed"));
    ASSERT_NE(w, nullptr);
    EXPECT_NE(w->str().find("asksUser"), std::string::npos);
    ASSERT_TRUE(taint.has(mod->functionByName("viaOutside")));
    EXPECT_EQ(taint.witness(mod->functionByName("viaOutside"))->reason,
              "unknown external library call (probe)");
}

TEST(Taint, UnresolvedIndirectCallIsConservativelyTainted)
{
    auto mod = compile(R"(
        typedef int (*FN)(int);
        FN getHandler(int which);   /* unmodeled external */
        int dispatch(int v) { FN f = getHandler(v); return f(v); }
        int main() { return dispatch(1); }
    )");
    PointsToResult pts = analyzePointsTo(*mod);
    AttributeResult taint = machineSpecificTaint(*mod, pts, {});
    const ir::Function *dispatch = mod->functionByName("dispatch");
    ASSERT_TRUE(taint.has(dispatch));
    EXPECT_NE(taint.witness(dispatch)->str().find("getHandler"),
              std::string::npos);
}

// ---------------------------------------------------------------------
// Function filter (per-function loop verdicts)
// ---------------------------------------------------------------------

TEST(FunctionFilter, LoopVerdictIsPerFunction)
{
    // Regression: two functions with the *same shape* — only the one
    // whose loop body reaches machine-specific code may have its loop
    // ruled out. A lookup that ignores which function is asked about
    // would taint (or clear) both.
    auto mod = compile(R"(
        int readKey() { int k; scanf("%d", &k); return k; }
        int pureStep(int k) { return k * 3 + 1; }
        int interactive(int n) {
            int s = 0;
            for (int i = 0; i < n; i++) { s += readKey(); }
            return s;
        }
        int batch(int n) {
            int s = 0;
            for (int i = 0; i < n; i++) { s += pureStep(i); }
            return s;
        }
        int main() { return interactive(2) + batch(2); }
    )");
    compiler::FilterResult filter = compiler::runFunctionFilter(*mod);

    const ir::Function *interactive = mod->functionByName("interactive");
    const ir::Function *batch = mod->functionByName("batch");
    ASSERT_EQ(interactive->loops().size(), 1u);
    ASSERT_EQ(batch->loops().size(), 1u);

    EXPECT_TRUE(filter.isMachineSpecific(interactive));
    EXPECT_TRUE(
        filter.loopIsMachineSpecific(interactive, interactive->loops()[0]));
    EXPECT_FALSE(filter.isMachineSpecific(batch));
    EXPECT_FALSE(filter.loopIsMachineSpecific(batch, batch->loops()[0]));

    // The witness pins the verdict to the offending call chain.
    const analysis::TaintWitness *w = filter.witness(interactive);
    ASSERT_NE(w, nullptr);
    EXPECT_NE(w->str().find("readKey"), std::string::npos);
    EXPECT_EQ(filter.witness(batch), nullptr);
}

// ---------------------------------------------------------------------
// Offload-safety verifier
// ---------------------------------------------------------------------

TEST(PartitionVerifier, CleanPipelineHasNoDiagnostics)
{
    const char *src = R"(
        typedef long (*EVALFUNC)(int);
        long evalA(int sq) { return 100 + sq % 8; }
        long evalB(int sq) { return 320 - sq % 5; }
        EVALFUNC evals[2] = { evalA, evalB };
        int* board;
        long heavy(int n) {
            long acc = 0;
            for (int i = 0; i < n * 4000; i++) {
                EVALFUNC f = evals[board[i % 16] % 2];
                acc += f(i % 64);
            }
            return acc;
        }
        int main() {
            int n;
            scanf("%d", &n);
            board = (int*)malloc(sizeof(int) * 16);
            for (int i = 0; i < 16; i++) { board[i] = i; }
            return (int)(heavy(n) % 97);
        }
    )";
    auto mod = compile(src);
    compiler::CompileOptions options;
    options.profilingInput.stdinText = "3";
    compiler::CompiledProgram prog =
        compiler::compileForOffload(std::move(mod), options);
    ASSERT_FALSE(prog.partition.targets.empty());

    support::DiagnosticEngine engine = compiler::verifyOffloadSafety(prog);
    EXPECT_FALSE(engine.hasErrors()) << engine.render();
    EXPECT_EQ(engine.count(support::DiagSeverity::Error), 0u);
}

TEST(PartitionVerifier, EveryBrokenCorpusCaseIsRejectedWithWitness)
{
    std::vector<CorpusOutcome> outcomes = runBrokenCorpus();
    ASSERT_GE(outcomes.size(), 5u);
    for (const CorpusOutcome &outcome : outcomes) {
        EXPECT_TRUE(outcome.fired)
            << outcome.name << ": expected diagnostic "
            << outcome.expectCode << " did not fire\n"
            << outcome.rendered;
        EXPECT_TRUE(outcome.witnessed)
            << outcome.name << ": diagnostic carries no witness\n"
            << outcome.rendered;
        EXPECT_TRUE(outcome.passed()) << outcome.rendered;
    }
}

TEST(PartitionVerifier, FieldGranularCaseEscapesInsensitiveCheck)
{
    // The cases flagged fieldSensitiveOnly only exist at field
    // granularity: the field-insensitive verifier must accept them
    // (that blindness is what the field-level check closes).
    std::vector<CorpusCase> corpus = buildBrokenCorpus();
    size_t field_only = 0;
    for (const CorpusCase &c : corpus) {
        if (!c.fieldSensitiveOnly)
            continue;
        ++field_only;
        PartitionCheckInput in = c.input();
        in.fieldSensitive = false;
        support::DiagnosticEngine engine;
        verifyPartition(in, engine);
        EXPECT_FALSE(engine.hasErrors())
            << c.name << ": insensitive verification was expected to "
            << "miss this case\n"
            << engine.render();
    }
    EXPECT_GE(field_only, 1u);
}

// ---------------------------------------------------------------------
// Verifier-driven repair
// ---------------------------------------------------------------------

TEST(Repair, EveryBrokenCorpusCaseConvergesWithinBound)
{
    std::vector<CorpusRepairOutcome> outcomes = runBrokenCorpusWithRepair();
    ASSERT_GE(outcomes.size(), 10u);
    for (const CorpusRepairOutcome &outcome : outcomes) {
        EXPECT_TRUE(outcome.report.converged)
            << outcome.name << ": " << outcome.report.iterations
            << " iterations, remaining:\n"
            << outcome.report.remaining.render();
        EXPECT_LE(outcome.report.iterations, kMaxRepairIterations)
            << outcome.name;
        EXPECT_GE(outcome.report.totalActions(), 1u) << outcome.name;
        EXPECT_EQ(outcome.report.remaining.size(), 0u) << outcome.name;
    }
}

TEST(Repair, VerifyAloneChangesNothing)
{
    // Verification without the repair loop reports the broken
    // partition and leaves it exactly as it was.
    std::vector<CorpusCase> corpus = buildBrokenCorpus();
    ASSERT_FALSE(corpus.empty());
    CorpusCase &c = corpus[0];
    std::vector<std::string> targets = c.targets;
    std::set<std::string> fptr_map = c.fptrMap;
    support::DiagnosticEngine engine;
    verifyPartition(c.input(), engine);
    EXPECT_GT(engine.size(), 0u);
    EXPECT_EQ(c.targets, targets);
    EXPECT_EQ(c.fptrMap, fptr_map);
    // The repair loop, by contrast, drives the same case clean.
    EXPECT_TRUE(repairPartition(c.repairInput()).converged);
}

TEST(Repair, PerSlotFptrRepairAddsOnlyTheDispatchedSlot)
{
    // The precision dividend of per-slot callee sets: repairing the
    // slot-1-dispatch case must add slot 1's callee and nothing else
    // (an insensitive map repair would also drag in slot 0's @slow).
    std::vector<CorpusCase> corpus = buildBrokenCorpus();
    CorpusCase *slot_case = nullptr;
    for (CorpusCase &c : corpus)
        if (c.name == "fptr-slot-missing")
            slot_case = &c;
    ASSERT_NE(slot_case, nullptr);

    RepairReport report = repairPartition(slot_case->repairInput());
    EXPECT_TRUE(report.converged) << report.remaining.render();
    EXPECT_EQ(report.fptrAdded, 1u);
    EXPECT_EQ(slot_case->fptrMap, (std::set<std::string>{"fast"}));
}

TEST(Repair, FieldGranularRepairWidensOnlyTheMissingField)
{
    // Field #1 is read directly in one case and escapes to memset
    // through a function pointer in the other.
    std::vector<CorpusCase> corpus = buildBrokenCorpus();
    size_t field_cases = 0;
    for (CorpusCase &c : corpus) {
        if (c.name != "global-field-not-uva" &&
            c.name != "global-field-fptr-escape") {
            continue;
        }
        SCOPED_TRACE(c.name);
        ++field_cases;
        EXPECT_TRUE(c.fieldSensitiveOnly);

        RepairReport report = repairPartition(c.repairInput());
        EXPECT_TRUE(report.converged) << report.remaining.render();
        EXPECT_EQ(report.fieldsPromoted, 1u);
        EXPECT_EQ(report.globalsPromoted, 0u);

        // The mark now covers the witnessed field and the global stays
        // field-limited (the repair widened, it did not give up
        // precision).
        const ir::GlobalVariable *cfg = c.server->globalByName("cfg");
        ASSERT_NE(cfg, nullptr);
        EXPECT_TRUE(cfg->inUva());
        EXPECT_TRUE(cfg->uvaFieldLimited());
        EXPECT_EQ(cfg->uvaFields().count(1), 1u);
    }
    EXPECT_EQ(field_cases, 2u);
}

TEST(Repair, CascadeFromStructuralStripToTargetDemotion)
{
    // structural → strip the malformed body → target-missing → demote:
    // the fixpoint must walk the cascade, not just the first round.
    std::vector<CorpusCase> corpus = buildBrokenCorpus();
    CorpusCase *structural = nullptr;
    for (CorpusCase &c : corpus)
        if (c.name == "structural-unterminated")
            structural = &c;
    ASSERT_NE(structural, nullptr);

    RepairReport report = repairPartition(structural->repairInput());
    EXPECT_TRUE(report.converged) << report.remaining.render();
    EXPECT_GE(report.iterations, 3u);
    EXPECT_EQ(report.bodiesStripped, 1u);
    EXPECT_EQ(report.targetsDemoted, 1u);
    EXPECT_TRUE(structural->targets.empty());
}

TEST(Repair, CleanCompiledProgramIsANoOp)
{
    auto mod = compile(R"(
        int* data;
        long heavy(int n) {
            long acc = 0;
            for (int i = 0; i < n * 4000; i++) acc += data[i % 16] * i;
            return acc;
        }
        int main() {
            int n;
            scanf("%d", &n);
            data = (int*)malloc(sizeof(int) * 16);
            for (int i = 0; i < 16; i++) { data[i] = i; }
            return (int)(heavy(n) % 97);
        }
    )");
    compiler::CompileOptions options;
    options.profilingInput.stdinText = "3";
    compiler::CompiledProgram prog =
        compiler::compileForOffload(std::move(mod), options);
    ASSERT_FALSE(prog.partition.targets.empty());
    size_t targets_before = prog.partition.targets.size();

    RepairReport report = compiler::repairOffloadSafety(prog);
    EXPECT_TRUE(report.converged) << report.remaining.render();
    EXPECT_EQ(report.iterations, 1u);
    EXPECT_EQ(report.totalActions(), 0u);
    EXPECT_EQ(prog.partition.targets.size(), targets_before);
}
