#include "codegen/nativeexec.hpp"

#include <algorithm>

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
    ctx_.now = machine.clockSlot();
    ctx_.energy = machine.power().energySlot();
    ctx_.units = machine.computeUnitsSlot();
    ctx_.steps = &steps_;
    ctx_.step_limit = kStepLimit;
    ctx_.costs = costs_;
    const sim::PagedMemory &mem = machine.mem();
    ctx_.mem_tags = mem.cacheTags();
    ctx_.mem_data = mem.cacheData();
    ctx_.mem_dirty = mem.cacheDirty();
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
    sync();
    NolVal r = fn_ptr(&ctx_, buf.data());
    RtVal out;
    out.i = r.i;
    out.f = r.f;
    return out;
}

void
NativeExec::sync()
{
    sim::SimMachine &m = machine_;
    const arch::ArchSpec &spec = m.spec();
    sim::PowerState state = m.computeState();
    double mw = m.power().rate(state);
    const double key[4] = {spec.nsPerCostUnit, spec.arithCostScale,
                           spec.memCostScale, mw};
    if (!std::equal(key, key + 4, costs_key_)) {
        std::copy(key, key + 4, costs_key_);
        costs_positive_ = true;
        for (uint32_t kind = 0; kind < NOL_COST_KINDS; ++kind) {
            for (uint32_t cost = 1; cost < NOL_COST_SLOTS; ++cost) {
                // advanceCompute's operands, computed as it does.
                NolCost &c = costs_[kind * NOL_COST_SLOTS + cost];
                c.units = sim::scaledCost(
                    cost, static_cast<sim::CostKind>(kind), spec);
                c.ns = static_cast<double>(c.units) * spec.nsPerCostUnit;
                c.energy = mw * c.ns * 1e-9;
                costs_positive_ = costs_positive_ && c.ns > 0;
            }
        }
    }
    // A zero or negative charge would leave the run (accumulate()
    // skips it), so such a spec charges on the host throughout.
    sim::PowerSegment *run =
        costs_positive_ ? m.power().openRun(m.nowNs(), state) : nullptr;
    ctx_.open = run != nullptr;
    ctx_.seg_end = run != nullptr ? &run->endNs : nullptr;
    ctx_.mem_direct = endian() == arch::Endianness::Little &&
                      !m.mem().hasTouchObserver();
}

void
NativeExec::chargeThunk(NolCtx *ctx, const NolChargeItem *items, uint32_t n,
                        uint32_t fn_id)
{
    auto *self = static_cast<NativeExec *>(ctx->host);
    sim::SimMachine &m = self->machine_;
    for (uint32_t i = 0; i < n; ++i) {
        const NolChargeItem &item = items[i];
        if (item.count > kStepLimit - self->steps_)
            panic("step limit exceeded in %s", self->fnName(fn_id));
        self->steps_ += item.count;
        uint64_t units = sim::scaledCost(
            item.cost, static_cast<sim::CostKind>(item.kind), m.spec());
        for (uint32_t k = 0; k < item.count; ++k)
            m.advanceCompute(units);
    }
    self->sync();
}

uint64_t
NativeExec::loadThunk(NolCtx *ctx, uint64_t addr, uint32_t size)
{
    auto *self = static_cast<NativeExec *>(ctx->host);
    // A miss may fault the page in over the network.
    uint64_t value = self->loadScalarAt(addr, size);
    self->sync();
    return value;
}

void
NativeExec::storeThunk(NolCtx *ctx, uint64_t addr, uint32_t size,
                       uint64_t value)
{
    auto *self = static_cast<NativeExec *>(ctx->host);
    self->storeScalarAt(addr, size, value);
    self->sync();
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
    self->sync();
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
        self->sync();
        return NolVal{r.i, r.f};
    }
    uint32_t idx = self->fn_index_.at(callee);
    NolFn fn_ptr = self->prepared_->artifact->fns()[idx];
    NOL_ASSERT(fn_ptr != nullptr, "indirect call of bodyless %s",
               callee->name().c_str());
    self->sync();
    return fn_ptr(ctx, args);
}

void
NativeExec::machineAsmThunk(NolCtx *ctx, uint32_t site)
{
    auto *self = static_cast<NativeExec *>(ctx->host);
    self->env_.onMachineAsm(*self,
                            *self->prepared_->lowered.asmSites[site]);
    self->sync();
}

void
NativeExec::trapThunk(NolCtx *ctx, uint32_t kind, uint32_t fn_id)
{
    auto *self = static_cast<NativeExec *>(ctx->host);
    raiseTrap(kind, self->fnName(fn_id));
}

} // namespace nol::codegen
