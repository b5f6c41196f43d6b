#include "analysis/corpus.hpp"

#include "frontend/builtins.hpp"
#include "ir/irbuilder.hpp"

namespace nol::analysis {

namespace {

using support::DiagSeverity;

/** i32 @kernel() { ret 0 } — the dispatch root every case starts from. */
ir::Function *
addKernel(ir::Module &module, bool with_body = true)
{
    const ir::FunctionType *fn_ty =
        module.types().functionTy(module.types().i32(), {});
    ir::Function *fn = module.createFunction("kernel", fn_ty, !with_body);
    fn->materializeArgs();
    if (!with_body)
        return fn;
    ir::IRBuilder builder(module);
    builder.setInsertPoint(fn->createBlock("entry"));
    builder.ret(module.constI32(0));
    return fn;
}

CorpusCase
makeCase(const std::string &name, const std::string &expect_code,
         DiagSeverity severity = DiagSeverity::Error)
{
    CorpusCase c;
    c.name = name;
    c.expectCode = expect_code;
    c.expectSeverity = severity;
    c.mobile = std::make_unique<ir::Module>(name + ".mobile");
    c.server = std::make_unique<ir::Module>(name + ".server");
    c.targets = {"kernel"};
    return c;
}

/** Server dispatch reaches inline assembly through a helper. */
CorpusCase
machineAsmReachable()
{
    CorpusCase c = makeCase("machine-asm-reachable", diag::kMachineSpecific);
    addKernel(*c.mobile);

    ir::Module &srv = *c.server;
    const ir::FunctionType *fn_ty =
        srv.types().functionTy(srv.types().i32(), {});
    ir::Function *spin = srv.createFunction("spin", fn_ty, false);
    spin->materializeArgs();
    ir::IRBuilder builder(srv);
    builder.setInsertPoint(spin->createBlock("entry"));
    builder.machineAsm("cpuid");
    builder.ret(srv.constI32(0));

    ir::Function *kernel = srv.createFunction("kernel", fn_ty, false);
    kernel->materializeArgs();
    builder.setInsertPoint(kernel->createBlock("entry"));
    ir::Instruction *call = builder.call(spin, {}, "t");
    builder.ret(call);
    return c;
}

/** Server dispatch calls interactive input (scanf). */
CorpusCase
interactiveIoReachable()
{
    CorpusCase c =
        makeCase("interactive-io-reachable", diag::kMachineSpecific);
    addKernel(*c.mobile);

    ir::Module &srv = *c.server;
    const ir::FunctionType *scanf_ty = srv.types().functionTy(
        srv.types().i32(), {}, /*variadic=*/true);
    ir::Function *scanf_fn = srv.createFunction("scanf", scanf_ty, true);
    scanf_fn->materializeArgs();

    const ir::FunctionType *fn_ty =
        srv.types().functionTy(srv.types().i32(), {});
    ir::Function *kernel = srv.createFunction("kernel", fn_ty, false);
    kernel->materializeArgs();
    ir::IRBuilder builder(srv);
    builder.setInsertPoint(kernel->createBlock("entry"));
    ir::Instruction *call = builder.call(scanf_fn, {}, "t");
    builder.ret(call);
    return c;
}

/** Offloaded code reads a global the unifier failed to move into UVA. */
CorpusCase
globalMissedUva()
{
    CorpusCase c = makeCase("global-missed-uva", diag::kGlobalNotUva);
    addKernel(*c.mobile);

    ir::Module &srv = *c.server;
    ir::GlobalVariable *counter = srv.createGlobal(
        "counter", srv.types().i32(), ir::Initializer::ofInt(7), false);
    // Deliberately NOT setInUva(true).

    const ir::FunctionType *fn_ty =
        srv.types().functionTy(srv.types().i32(), {});
    ir::Function *kernel = srv.createFunction("kernel", fn_ty, false);
    kernel->materializeArgs();
    ir::IRBuilder builder(srv);
    builder.setInsertPoint(kernel->createBlock("entry"));
    ir::Instruction *load = builder.load(counter, "v");
    builder.ret(load);
    return c;
}

/** Shared scaffolding of the two fptr-map cases: kernel calls through
 *  a function-pointer global that holds @worker. */
CorpusCase
fptrScaffold(const std::string &name, const std::string &expect_code,
             DiagSeverity severity)
{
    CorpusCase c = makeCase(name, expect_code, severity);
    addKernel(*c.mobile);

    ir::Module &srv = *c.server;
    const ir::FunctionType *fn_ty =
        srv.types().functionTy(srv.types().i32(), {});
    ir::Function *worker = srv.createFunction("worker", fn_ty, false);
    worker->materializeArgs();
    ir::IRBuilder builder(srv);
    builder.setInsertPoint(worker->createBlock("entry"));
    builder.ret(srv.constI32(1));

    const ir::PointerType *fn_ptr_ty = srv.types().pointerTo(fn_ty);
    ir::GlobalVariable *handler =
        srv.createGlobal("handler", fn_ptr_ty,
                         ir::Initializer::ofFunction(worker), false);
    handler->setInUva(true); // only the fptr invariant is broken here

    ir::Function *kernel = srv.createFunction("kernel", fn_ty, false);
    kernel->materializeArgs();
    builder.setInsertPoint(kernel->createBlock("entry"));
    ir::Instruction *fp = builder.load(handler, "fp");
    ir::Instruction *call = builder.callIndirect(fp, fn_ty, {}, "t");
    builder.ret(call);
    return c;
}

/** @worker flows to the indirect call but is absent from the map. */
CorpusCase
fptrMapMissing()
{
    CorpusCase c = fptrScaffold("fptr-map-missing", diag::kFptrMapMissing,
                                DiagSeverity::Error);
    c.fptrMap = {}; // worker missing
    return c;
}

/** The map carries @kernel, whose address never flows anywhere. */
CorpusCase
fptrMapExtra()
{
    CorpusCase c = fptrScaffold("fptr-map-extra", diag::kFptrMapExtra,
                                DiagSeverity::Warning);
    c.fptrMap = {"worker", "kernel"}; // kernel is dead weight
    return c;
}

/** Mobile and server clones disagree on a stack-reallocation mark. */
CorpusCase
stackMarkMismatch()
{
    CorpusCase c =
        makeCase("stack-mark-mismatch", diag::kStackMarkMismatch);
    ir::Instruction *mob_slot = nullptr;
    ir::Instruction *srv_slot = nullptr;
    for (ir::Module *module : {c.mobile.get(), c.server.get()}) {
        const ir::FunctionType *fn_ty =
            module->types().functionTy(module->types().i32(), {});
        ir::Function *kernel = module->createFunction("kernel", fn_ty,
                                                      false);
        kernel->materializeArgs();
        ir::IRBuilder builder(*module);
        builder.setInsertPoint(kernel->createBlock("entry"));
        ir::Instruction *slot =
            builder.alloca_(module->types().i32(), "buf");
        builder.store(module->constI32(0), slot);
        ir::Instruction *load = builder.load(slot, "v");
        builder.ret(load);
        (module == c.mobile.get() ? mob_slot : srv_slot) = slot;
    }
    (void)mob_slot;
    srv_slot->setUvaStack(true); // server clone alone marks the slot
    return c;
}

/** Server kernel's entry block lacks a terminator. */
CorpusCase
structuralUnterminated()
{
    CorpusCase c =
        makeCase("structural-unterminated", diag::kStructural);
    addKernel(*c.mobile);

    ir::Module &srv = *c.server;
    const ir::FunctionType *fn_ty =
        srv.types().functionTy(srv.types().i32(), {});
    ir::Function *kernel = srv.createFunction("kernel", fn_ty, false);
    kernel->materializeArgs();
    ir::IRBuilder builder(srv);
    builder.setInsertPoint(kernel->createBlock("entry"));
    builder.alloca_(srv.types().i32(), "buf"); // ... and nothing after
    return c;
}

/** The declared offload target has no body on the server. */
CorpusCase
targetMissing()
{
    CorpusCase c = makeCase("target-missing", diag::kTargetMissing);
    addKernel(*c.mobile);
    addKernel(*c.server, /*with_body=*/false);
    return c;
}

/** A struct-held dispatch table: kernel calls through slot 1 only, yet
 *  the map lacks slot 1's callee. Field-sensitive resolution needs —
 *  and repair restores — exactly {@fast}; the insensitive solver would
 *  collapse the table and demand slot 0's @slow as well. */
CorpusCase
fptrSlotMissing()
{
    CorpusCase c = makeCase("fptr-slot-missing", diag::kFptrMapMissing);
    addKernel(*c.mobile);

    ir::Module &srv = *c.server;
    const ir::FunctionType *fn_ty =
        srv.types().functionTy(srv.types().i32(), {});
    ir::IRBuilder builder(srv);
    ir::Function *slow = srv.createFunction("slow", fn_ty, false);
    slow->materializeArgs();
    builder.setInsertPoint(slow->createBlock("entry"));
    builder.ret(srv.constI32(1));
    ir::Function *fast = srv.createFunction("fast", fn_ty, false);
    fast->materializeArgs();
    builder.setInsertPoint(fast->createBlock("entry"));
    builder.ret(srv.constI32(2));

    const ir::PointerType *fn_ptr_ty = srv.types().pointerTo(fn_ty);
    ir::StructType *table_ty = srv.types().createStruct(
        "Dispatch", {{"slow", fn_ptr_ty}, {"fast", fn_ptr_ty}});
    ir::GlobalVariable *table = srv.createGlobal(
        "table", table_ty,
        ir::Initializer::aggregate({ir::Initializer::ofFunction(slow),
                                    ir::Initializer::ofFunction(fast)}),
        false);
    table->setInUva(true); // only the fptr invariant is broken here

    ir::Function *kernel = srv.createFunction("kernel", fn_ty, false);
    kernel->materializeArgs();
    builder.setInsertPoint(kernel->createBlock("entry"));
    ir::Instruction *slot = builder.fieldAddr(table, 1, "slot");
    ir::Instruction *fp = builder.load(slot, "fp");
    ir::Instruction *call = builder.callIndirect(fp, fn_ty, {}, "t");
    builder.ret(call);
    c.fptrMap = {}; // fast missing (slow is NOT needed per-slot)
    return c;
}

/** A UVA struct global whose field marks cover only field #0, while
 *  the kernel reads field #1. gv->inUva() is still true, so field-
 *  insensitive verification accepts this partition — only the
 *  field-granular check can reject (and repair) it. */
CorpusCase
globalFieldNotUva()
{
    CorpusCase c = makeCase("global-field-not-uva", diag::kGlobalNotUva);
    c.fieldSensitiveOnly = true;
    addKernel(*c.mobile);

    ir::Module &srv = *c.server;
    ir::StructType *cfg_ty = srv.types().createStruct(
        "Cfg", {{"scale", srv.types().i32()}, {"bias", srv.types().i32()}});
    ir::GlobalVariable *cfg = srv.createGlobal(
        "cfg", cfg_ty,
        ir::Initializer::aggregate(
            {ir::Initializer::ofInt(3), ir::Initializer::ofInt(4)}),
        false);
    cfg->setInUva(true);
    cfg->setUvaFields({0}); // bias (field #1) deliberately unmarked

    const ir::FunctionType *fn_ty =
        srv.types().functionTy(srv.types().i32(), {});
    ir::Function *kernel = srv.createFunction("kernel", fn_ty, false);
    kernel->materializeArgs();
    ir::IRBuilder builder(srv);
    builder.setInsertPoint(kernel->createBlock("entry"));
    ir::Instruction *bias = builder.fieldAddr(cfg, 1, "bias");
    ir::Instruction *load = builder.load(bias, "v");
    builder.ret(load);
    return c;
}

/** The field-limited global again (marked for field #0 only), but the
 *  kernel hands field #1's address to memset through a function-pointer
 *  global. Any external routine may dereference what it is handed, so
 *  the escape needs field #1 marked whether the call is direct or not. */
CorpusCase
globalFieldEscapesThroughPointer()
{
    CorpusCase c =
        makeCase("global-field-fptr-escape", diag::kGlobalNotUva);
    c.fieldSensitiveOnly = true;
    addKernel(*c.mobile);

    ir::Module &srv = *c.server;
    ir::StructType *cfg_ty = srv.types().createStruct(
        "Cfg", {{"scale", srv.types().i32()}, {"bias", srv.types().i32()}});
    ir::GlobalVariable *cfg = srv.createGlobal(
        "cfg", cfg_ty,
        ir::Initializer::aggregate(
            {ir::Initializer::ofInt(3), ir::Initializer::ofInt(4)}),
        false);
    cfg->setInUva(true);
    cfg->setUvaFields({0}); // bias (field #1) deliberately unmarked

    ir::Function *memset_fn = frontend::declareBuiltin(srv, "memset");
    ir::GlobalVariable *fill = srv.createGlobal(
        "fill", srv.types().pointerTo(memset_fn->functionType()),
        ir::Initializer::ofFunction(memset_fn), false);
    fill->setInUva(true);
    c.fptrMap = {"memset"}; // only the field mark is broken here

    const ir::FunctionType *fn_ty =
        srv.types().functionTy(srv.types().i32(), {});
    ir::Function *kernel = srv.createFunction("kernel", fn_ty, false);
    kernel->materializeArgs();
    ir::IRBuilder builder(srv);
    builder.setInsertPoint(kernel->createBlock("entry"));
    ir::Instruction *bias = builder.fieldAddr(cfg, 1, "bias");
    ir::Instruction *dst = builder.cast(
        ir::Opcode::Bitcast, bias, srv.types().pointerTo(srv.types().i8()));
    ir::Instruction *fp = builder.load(fill, "fp");
    builder.callIndirect(fp, memset_fn->functionType(),
                         {dst, srv.constI32(0), srv.constI64(4)}, "p");
    builder.ret(srv.constI32(0));
    return c;
}

} // namespace

std::vector<CorpusCase>
buildBrokenCorpus()
{
    std::vector<CorpusCase> corpus;
    corpus.push_back(machineAsmReachable());
    corpus.push_back(interactiveIoReachable());
    corpus.push_back(globalMissedUva());
    corpus.push_back(fptrMapMissing());
    corpus.push_back(fptrMapExtra());
    corpus.push_back(stackMarkMismatch());
    corpus.push_back(structuralUnterminated());
    corpus.push_back(targetMissing());
    corpus.push_back(fptrSlotMissing());
    corpus.push_back(globalFieldNotUva());
    corpus.push_back(globalFieldEscapesThroughPointer());
    return corpus;
}

std::vector<CorpusOutcome>
runBrokenCorpus()
{
    std::vector<CorpusOutcome> outcomes;
    for (const CorpusCase &c : buildBrokenCorpus()) {
        support::DiagnosticEngine engine;
        verifyPartition(c.input(), engine);

        CorpusOutcome outcome;
        outcome.name = c.name;
        outcome.expectCode = c.expectCode;
        outcome.rendered = engine.render();
        for (const support::Diagnostic *d : engine.byCode(c.expectCode)) {
            if (d->severity != c.expectSeverity)
                continue;
            outcome.fired = true;
            bool names_something = !d->function.empty() ||
                                   !d->instruction.empty() ||
                                   !d->witness.empty() ||
                                   d->message.find('@') !=
                                       std::string::npos;
            outcome.witnessed = outcome.witnessed || names_something;
        }
        outcomes.push_back(std::move(outcome));
    }
    return outcomes;
}

std::vector<CorpusRepairOutcome>
runBrokenCorpusWithRepair()
{
    std::vector<CorpusRepairOutcome> outcomes;
    std::vector<CorpusCase> corpus = buildBrokenCorpus();
    for (CorpusCase &c : corpus) {
        CorpusRepairOutcome outcome;
        outcome.name = c.name;
        outcome.report = repairPartition(c.repairInput());
        outcomes.push_back(std::move(outcome));
    }
    return outcomes;
}

} // namespace nol::analysis
