#include "codegen/nativeexec.hpp"

#include <cstring>

#include "sim/costmodel.hpp"
#include "support/logging.hpp"

namespace nol::codegen {

using interp::RtVal;

std::shared_ptr<const PreparedModule>
PreparedModule::prepare(LoweredModule lowered)
{
    auto prepared = std::make_shared<PreparedModule>();
    prepared->lowered = std::move(lowered);
    prepared->artifact = getOrCompile(prepared->lowered);
    if (prepared->artifact == nullptr)
        return nullptr;
    NOL_ASSERT(prepared->artifact->count() ==
                   prepared->lowered.functions.size(),
               "artifact function table size mismatch");
    return prepared;
}

NativeExec::NativeExec(std::shared_ptr<const PreparedModule> prepared,
                       sim::SimMachine &machine, const ir::Module &module,
                       const interp::ProgramImage &image,
                       interp::ExecEnv &env)
    : ExecBackend(machine, module, image, env),
      prepared_(std::move(prepared))
{
    NOL_ASSERT(prepared_ != nullptr && prepared_->artifact != nullptr,
               "NativeExec constructed without a compiled artifact");
    const LoweredModule &lowered = prepared_->lowered;

    global_addrs_.reserve(lowered.globals.size());
    for (const ir::GlobalVariable *gv : lowered.globals) {
        auto it = image.globalAddr.find(gv);
        global_addrs_.push_back(it == image.globalAddr.end() ? 0
                                                             : it->second);
    }
    fn_addrs_.reserve(lowered.functions.size());
    for (size_t i = 0; i < lowered.functions.size(); ++i) {
        const ir::Function *fn = lowered.functions[i];
        auto it = image.fnAddr.find(fn);
        fn_addrs_.push_back(it == image.fnAddr.end() ? 0 : it->second);
        fn_index_[fn] = static_cast<uint32_t>(i);
    }

    ctx_.host = this;
    ctx_.globals = global_addrs_.data();
    ctx_.fnaddrs = fn_addrs_.data();
    ctx_.sp = machine.stackBase();
    ctx_.stack_limit = machine.stackBase() - sim::kStackSize;
    ctx_.charge = &NativeExec::chargeThunk;
    ctx_.load_scalar = &NativeExec::loadThunk;
    ctx_.store_scalar = &NativeExec::storeThunk;
    ctx_.call_external = &NativeExec::callExternalThunk;
    ctx_.call_indirect = &NativeExec::callIndirectThunk;
    ctx_.machine_asm = &NativeExec::machineAsmThunk;
    ctx_.trap = &NativeExec::trapThunk;
}

const char *
NativeExec::fnName(uint32_t fn_id) const
{
    return prepared_->lowered.functions[fn_id]->name().c_str();
}

RtVal
NativeExec::call(ir::Function *fn, const std::vector<RtVal> &args)
{
    auto it = fn_index_.find(fn);
    NOL_ASSERT(it != fn_index_.end(), "call of unknown function %s",
               fn->name().c_str());
    NolFn fn_ptr = prepared_->artifact->fns()[it->second];
    NOL_ASSERT(fn_ptr != nullptr, "call of external function %s through "
               "NativeExec", fn->name().c_str());

    if (depth_ == 0) {
        try {
            return invoke(fn_ptr, fn, args);
        } catch (const interp::GuestExit &exit_req) {
            return RtVal::ofInt(exit_req.code);
        }
    }
    return invoke(fn_ptr, fn, args);
}

RtVal
NativeExec::invoke(NolFn fn_ptr, const ir::Function *fn,
                   const std::vector<RtVal> &args)
{
    NOL_ASSERT(args.size() >= fn->numArgs(),
               "too few arguments calling %s", fn->name().c_str());
    // Depth counts live call() entries (not guest frames): the
    // GuestExit catch above must only trigger on the outermost entry,
    // matching the interpreter's depth_ == 0 semantics when an env
    // re-enters the backend (runLocal / runIdeal / failover).
    ++depth_;
    struct DepthGuard {
        int &depth;
        ~DepthGuard() { --depth; }
    } guard{depth_};

    static_assert(sizeof(NolVal) == sizeof(RtVal),
                  "NolVal must mirror RtVal");
    std::vector<NolVal> buf(args.size());
    for (size_t i = 0; i < args.size(); ++i)
        buf[i] = NolVal{args[i].i, args[i].f};
    NolVal r = fn_ptr(&ctx_, buf.data());
    RtVal out;
    out.i = r.i;
    out.f = r.f;
    return out;
}

void
NativeExec::chargeThunk(NolCtx *ctx, const NolChargeItem *items, uint32_t n,
                        uint32_t fn_id)
{
    auto *self = static_cast<NativeExec *>(ctx->host);
    sim::SimMachine &m = self->machine_;
    for (uint32_t i = 0; i < n; ++i) {
        const NolChargeItem &item = items[i];
        if (item.count == 0)
            continue;
        // Nothing else runs inside one charge replay, so the spec
        // (which runIdeal swaps only between guest callbacks) and the
        // scaled cost are loop-invariant across the occurrences.
        if (item.count > kStepLimit - self->steps_)
            panic("step limit exceeded in %s", self->fnName(fn_id));
        self->steps_ += item.count;
        m.advanceComputeRepeat(
            sim::scaledCost(item.cost, static_cast<sim::CostKind>(item.kind),
                            m.spec()),
            item.count);
    }
}

inline void
NativeExec::chargeOne(uint32_t cost_kind, uint32_t fn_id)
{
    if (++steps_ > kStepLimit)
        panic("step limit exceeded in %s", fnName(fn_id));
    machine_.advanceCompute(
        sim::scaledCost(cost_kind >> 2,
                        static_cast<sim::CostKind>(cost_kind & 3),
                        machine_.spec()));
}

uint64_t
NativeExec::loadThunk(NolCtx *ctx, uint64_t addr, uint32_t size,
                      uint32_t cost_kind, uint32_t fn_id)
{
    auto *self = static_cast<NativeExec *>(ctx->host);
    // Charge the access's own cost first, exactly as the interpreter
    // charges an instruction before executing it.
    self->chargeOne(cost_kind, fn_id);
    return self->loadScalarAt(addr, size);
}

void
NativeExec::storeThunk(NolCtx *ctx, uint64_t addr, uint32_t size,
                       uint64_t value, uint32_t cost_kind, uint32_t fn_id)
{
    auto *self = static_cast<NativeExec *>(ctx->host);
    self->chargeOne(cost_kind, fn_id);
    self->storeScalarAt(addr, size, value);
}

RtVal
NativeExec::externalCall(const ir::Instruction *site,
                         const ir::Function *callee, NolVal *args,
                         uint32_t n)
{
    chargeExternalCall(*callee);
    std::vector<RtVal> vec(n);
    for (uint32_t i = 0; i < n; ++i) {
        vec[i].i = args[i].i;
        vec[i].f = args[i].f;
    }
    return env_.callExternal(*this, *callee, *site, vec);
}

NolVal
NativeExec::callExternalThunk(NolCtx *ctx, uint32_t site, NolVal *args,
                              uint32_t n)
{
    auto *self = static_cast<NativeExec *>(ctx->host);
    const ir::Instruction *inst = self->prepared_->lowered.callSites[site];
    RtVal r = self->externalCall(inst, inst->callee(), args, n);
    return NolVal{r.i, r.f};
}

NolVal
NativeExec::callIndirectThunk(NolCtx *ctx, uint64_t target, uint32_t site,
                              NolVal *args, uint32_t n)
{
    auto *self = static_cast<NativeExec *>(ctx->host);
    self->chargeIndirectCall();

    ir::Function *callee = self->image_.functionAt(target);
    if (callee == nullptr) {
        fatal("indirect call through wild pointer 0x%llx",
              static_cast<unsigned long long>(target));
    }
    if (callee->isExternal()) {
        const ir::Instruction *inst =
            self->prepared_->lowered.callSites[site];
        RtVal r = self->externalCall(inst, callee, args, n);
        return NolVal{r.i, r.f};
    }
    uint32_t idx = self->fn_index_.at(callee);
    NolFn fn_ptr = self->prepared_->artifact->fns()[idx];
    NOL_ASSERT(fn_ptr != nullptr, "indirect call of bodyless %s",
               callee->name().c_str());
    return fn_ptr(ctx, args);
}

void
NativeExec::machineAsmThunk(NolCtx *ctx, uint32_t site)
{
    auto *self = static_cast<NativeExec *>(ctx->host);
    self->env_.onMachineAsm(*self,
                            *self->prepared_->lowered.asmSites[site]);
}

void
NativeExec::trapThunk(NolCtx *ctx, uint32_t kind, uint32_t fn_id)
{
    auto *self = static_cast<NativeExec *>(ctx->host);
    switch (kind) {
      case kTrapDivZero:
        fatal("guest division by zero");
      case kTrapRemZero:
        fatal("guest remainder by zero");
      case kTrapStackOverflow:
        fatal("guest stack overflow in %s", self->fnName(fn_id));
      case kTrapUnreachable:
      default:
        panic("guest reached 'unreachable' in %s", self->fnName(fn_id));
    }
}

} // namespace nol::codegen
