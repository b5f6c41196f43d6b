#include "codegen/nativeexec.hpp"

#include "support/logging.hpp"

namespace nol::codegen {

using interp::RtVal;

static_assert(sizeof(NolCost) == sizeof(sim::Charge) &&
                  NOL_COST_KINDS == sim::kCostKinds &&
                  NOL_COST_SLOTS == sim::kCostSlots,
              "NolCost must mirror the machine's charge table");

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
    std::string().swap(prepared->lowered.source);
    return prepared;
}

std::shared_ptr<const PreparedModule>
ModuleCache::get(const ir::Module &module, const ir::DataLayout &dl,
                 const ir::Module *sibling, const ir::DataLayout *sibling_dl)
{
    Slot *slot;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        slot = &slots_[&module];
    }
    std::call_once(slot->once, [&] {
        LoweredModule lowered = take(module, dl);
        if (startCompile(lowered) && sibling != nullptr) {
            std::lock_guard<std::mutex> lock(mutex_);
            Slot &other = slots_[sibling];
            if (!other.taken && !other.started.has_value()) {
                other.started = emitModule(*sibling, *sibling_dl);
                ++lowered_;
                startCompile(*other.started);
            }
        }
        slot->prepared = PreparedModule::prepare(std::move(lowered));
    });
    return slot->prepared;
}

LoweredModule
ModuleCache::take(const ir::Module &module, const ir::DataLayout &dl)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        Slot &slot = slots_[&module];
        slot.taken = true;
        if (slot.started.has_value()) {
            LoweredModule lowered = std::move(*slot.started);
            slot.started.reset();
            return lowered;
        }
        ++lowered_;
    }
    return emitModule(module, dl);
}

size_t
ModuleCache::lowered() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return lowered_;
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
    ctx_.energy = machine.energySlot();
    ctx_.units = machine.computeUnitsSlot();
    ctx_.steps = &steps_;
    ctx_.step_limit = kStepLimit;
    ctx_.costs = reinterpret_cast<const NolCost *>(machine.charges());
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
        // A trap unwinds generated code without replaying the rest of
        // its segment.
        ctx_.replayed = 0;
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
    sim::PowerSegment *run = machine_.openComputeRun();
    ctx_.open = run != nullptr;
    ctx_.seg_end = run != nullptr ? &run->endNs : nullptr;
    ctx_.mem_direct = endian() == arch::Endianness::Little &&
                      !machine_.mem().hasTouchObserver();
}

void
NativeExec::chargeThunk(NolCtx *ctx, const uint8_t *slots, uint32_t n,
                        uint32_t fn_id)
{
    auto *self = static_cast<NativeExec *>(ctx->host);
    if (n > kStepLimit - self->steps_)
        panic("step limit exceeded in %s", self->fnName(fn_id));
    self->steps_ += n;
    for (uint32_t i = 0; i < n; ++i)
        self->machine_.charge(slots[i]);
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

NolVal
NativeExec::externalCall(uint32_t site, const ir::Function *callee,
                         NolVal *args, uint32_t n)
{
    chargeExternalCall(*callee);
    std::vector<RtVal> vec(n);
    for (uint32_t i = 0; i < n; ++i) {
        vec[i].i = args[i].i;
        vec[i].f = args[i].f;
    }
    RtVal r = env_.callExternal(*this, *callee,
                                *prepared_->lowered.callSites[site], vec);
    sync();
    return NolVal{r.i, r.f};
}

NolVal
NativeExec::callExternalThunk(NolCtx *ctx, uint32_t site, NolVal *args,
                              uint32_t n)
{
    auto *self = static_cast<NativeExec *>(ctx->host);
    return self->externalCall(
        site, self->prepared_->lowered.callSites[site]->callee(), args, n);
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
    if (callee->isExternal())
        return self->externalCall(site, callee, args, n);
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
