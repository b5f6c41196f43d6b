#include "runtime/session.hpp"

#include <cstring>

#include "codegen/nativeexec.hpp"
#include "compiler/partitioner.hpp"
#include "decision/engine.hpp"
#include "frontend/builtins.hpp"
#include "interp/externals.hpp"
#include "interp/interp.hpp"
#include "interp/loader.hpp"
#include "net/medium.hpp"
#include "runtime/server.hpp"
#include "sim/costmodel.hpp"
#include "sim/eventloop.hpp"
#include "support/strings.hpp"

namespace nol::runtime {

using interp::RtVal;

namespace {

/** Cost units charged per server indirect call: the function-pointer
 *  translation of paper Sec. 3.4. */
constexpr uint64_t kFnPtrTranslateCost = 60;

/** One offload-enabled target, resolved in both modules. */
struct TargetEntry {
    std::string name;
    ir::Function *mobileFn = nullptr;
    ir::Function *serverFn = nullptr;
};

} // namespace

/** Shared state of one session (the old RunContext). */
struct Session::Impl {
    const compiler::CompiledProgram &prog;
    SystemConfig cfg;
    FleetHooks fleet;
    sim::SimMachine mobile;
    sim::SimMachine server;
    net::SimNetwork network;
    CommManager comm;
    UvaManager uva; ///< this session's UVA namespace
    interp::ProgramImage mobileImage;
    interp::ProgramImage serverImage;
    decision::Engine dyn; ///< keeps the provenance of every decide()
    std::map<std::string, TargetEntry> targetsByStub;

    /** The report run() returns; counters are recorded into it as the
     *  run goes (a Session runs once). */
    RunReport report;

    // Accumulated in ns or cost units and converted once at the end.
    double serverComputeNs = 0;
    uint64_t fnPtrUnits = 0;
    double admissionWaitNs = 0;

    bool slotHeld = false;
    bool nativeUnavailable = false;

    Impl(const compiler::CompiledProgram &program,
         const SystemConfig &config, const FleetHooks &hooks)
        : prog(program), cfg(config), fleet(hooks),
          mobile(sim::MachineRole::Mobile, program.mobileSpec),
          server(sim::MachineRole::Server, program.serverSpec),
          network(config.network, config.memScale),
          comm(mobile, server, network, config.compressionEnabled),
          dyn(program.estimatorParams.speedRatio,
              net::SimNetwork(config.network, config.memScale)
                  .effectiveBitsPerSecond())
    {
        network.setFaultPlan(config.faultPlan);
        if (fleet.server != nullptr && cfg.fleetPriorsEnabled) {
            // Publish observations fleet-wide and read the knowledge
            // base at run() start. Strictly flag-gated: with priors
            // off the engine never touches the server's base.
            dyn.attachFleetPriors(&fleet.server->fleetPriors());
        }
        mobile.setPowerRate(sim::PowerState::Receive,
                            config.network.receiveMw);
        mobile.setPowerRate(sim::PowerState::Transmit,
                            config.network.transmitMw);
    }

    /**
     * Take a server slot before offloading. Solo sessions always own
     * the whole server; fleet sessions queue under admission control
     * and may be denied (queue timeout) — the caller then runs the
     * target locally (overflow).
     */
    bool
    acquireServerSlot(double predicted_hold_seconds = 0)
    {
        if (fleet.server == nullptr)
            return true;
        comm.syncClocks();
        AdmissionRequest request;
        request.priority = fleet.priority;
        request.predictedHoldSeconds = predicted_hold_seconds;
        AdmissionResult res = fleet.server->acquire(
            *fleet.strand, fleet.sessionId, mobile.nowNs(), request);
        if (res.waitedNs > 0) {
            // The device idled in the queue; the (not-yet-started)
            // server process costs nothing.
            mobile.syncTo(res.wakeNs, sim::PowerState::Waiting);
            server.syncTo(res.wakeNs, sim::PowerState::Idle);
            ++report.admissionWaits;
            admissionWaitNs += res.waitedNs;
        }
        if (!res.granted) {
            ++report.admissionDenials;
            return false;
        }
        slotHeld = true;
        return true;
    }

    void
    releaseServerSlot()
    {
        if (fleet.server == nullptr || !slotHeld)
            return;
        slotHeld = false;
        fleet.server->release(fleet.sessionId, mobile.nowNs());
    }

    /**
     * Prefetch through the server's content-addressed page cache?
     * Requires the session to opt in *and* the fleet to actually share
     * pages (≥2 clients); otherwise pages are pushed directly.
     */
    bool
    cacheActive() const
    {
        return fleet.server != nullptr && cfg.pageCacheEnabled &&
               fleet.server->cacheActive();
    }

    /**
     * Construct the execution backend for (machine, module). The
     * server backend is rebuilt for every offload (fresh process
     * semantics); on native-C each reuses the module the program
     * prepared once. Falls back to the interpreter with a warning when
     * no host toolchain is available.
     */
    std::unique_ptr<interp::ExecBackend>
    makeBackend(sim::SimMachine &machine, const ir::Module &module,
                const interp::ProgramImage &image, interp::ExecEnv &env)
    {
        if (cfg.backend == interp::BackendKind::NativeC &&
            !nativeUnavailable) {
            std::shared_ptr<const codegen::PreparedModule> prepared =
                prepareModule(machine, module);
            if (prepared != nullptr) {
                return std::make_unique<codegen::NativeExec>(
                    prepared, machine, module, image, env);
            }
            nativeUnavailable = true;
            warn("native-c backend unavailable (no host "
                          "toolchain); falling back to the interpreter");
        }
        return std::make_unique<interp::Interp>(machine, module, image,
                                                env);
    }

    /**
     * The program's prepared @p module for @p machine. The mobile and
     * the server module do not depend on each other, so when this
     * starts a cold compile, the program's other module starts
     * compiling alongside it (if the program offloads at all), and the
     * session waits only for the one it needs.
     */
    std::shared_ptr<const codegen::PreparedModule>
    prepareModule(sim::SimMachine &machine, const ir::Module &module)
    {
        ir::DataLayout dl = interp::effectiveLayout(module, machine);
        if (prog.partition.targets.empty())
            return prog.nativeModules->get(module, dl);
        bool on_mobile = &machine == &mobile;
        const ir::Module &other = on_mobile ? *prog.partition.serverModule
                                            : *prog.partition.mobileModule;
        ir::DataLayout other_dl =
            interp::effectiveLayout(other, on_mobile ? server : mobile);
        return prog.nativeModules->get(module, dl, &other, &other_dl);
    }

    RunReport run(const RunInput &input);
};

namespace {

/** Remote-I/O-aware environment of the server interpreter. */
class ServerEnv : public interp::DefaultEnv
{
  public:
    explicit ServerEnv(Session::Impl &ctx) : ctx_(ctx)
    {
        setUvaHeap(&ctx.uva.serverHeap());
    }

    RtVal
    callExternal(interp::ExecBackend &interp, const ir::Function &callee,
                 const ir::Instruction &call,
                 std::vector<RtVal> &args) override
    {
        frontend::BuiltinName found = frontend::lookupBuiltin(callee.name());
        if (found.twin == frontend::Twin::Remote)
            return remoteIo(interp, found.row->name, args);
        return DefaultEnv::callExternal(interp, callee, call, args);
    }

    void
    onMachineAsm(interp::ExecBackend &interp, const ir::Instruction &inst) override
    {
        (void)interp;
        panic("machine-specific instruction \"%s\" reached the server — "
              "the function filter must prevent this",
              inst.asmText().c_str());
    }

    /** Ship any batched output to the mobile device. */
    void
    flushOutputs()
    {
        if (out_text_.empty() && file_ops_.empty())
            return;
        uint64_t bytes = 64 + out_text_.size();
        for (const auto &[handle, data] : file_ops_)
            bytes += 16 + data.size();
        ctx_.comm.sendToMobile(bytes, CommCategory::RemoteIo);
        ctx_.mobile.console() += out_text_;
        for (const auto &[handle, data] : file_ops_) {
            ctx_.mobile.fs().write(
                handle, reinterpret_cast<const uint8_t *>(data.data()),
                data.size());
        }
        out_text_.clear();
        file_ops_.clear();
    }

  private:
    /** Block size of the read-ahead cache for r_fgetc (buffered stdio). */
    static constexpr uint64_t kReadAhead = 4096;

    struct FileCursor {
        uint64_t pos = 0;
        uint64_t cacheBase = 0;
        std::string cache;
    };

    /** Round trip to the mobile device: request + response. */
    void
    roundTrip(uint64_t request_bytes, uint64_t response_bytes)
    {
        flushOutputs();
        ctx_.comm.sendToMobile(request_bytes, CommCategory::RemoteIo);
        ctx_.mobile.advanceCompute(40); // request service on the device
        ctx_.comm.sendToServer(response_bytes, CommCategory::RemoteIo);
    }

    FileCursor &
    cursor(uint64_t handle)
    {
        return cursors_[handle];
    }

    /** Refill the read-ahead cache of @p handle at its cursor. */
    void
    refill(uint64_t handle)
    {
        FileCursor &cur = cursor(handle);
        std::vector<uint8_t> buf(kReadAhead);
        // The request carries the position; the mobile device seeks
        // and reads one block on the server's behalf.
        ctx_.mobile.fs().seek(handle, static_cast<int64_t>(cur.pos), 0);
        uint64_t got = ctx_.mobile.fs().read(handle, buf.data(), kReadAhead);
        roundTrip(64, 64 + got);
        cur.cacheBase = cur.pos;
        cur.cache.assign(reinterpret_cast<char *>(buf.data()), got);
    }

    RtVal
    remoteIo(interp::ExecBackend &interp, const std::string &op,
             std::vector<RtVal> &args)
    {
        sim::SimMachine &mob = ctx_.mobile;

        // --- Output operations: batched one-way (cheap) ---------------
        if (op == "printf") {
            std::string fmt = interp.readCString(args[0].ptr());
            std::string text = formatPrintf(interp, fmt, args, 1);
            out_text_ += text;
            maybeFlush();
            return RtVal::ofInt(static_cast<int64_t>(text.size()));
        }
        if (op == "puts") {
            out_text_ += interp.readCString(args[0].ptr());
            out_text_ += '\n';
            maybeFlush();
            return RtVal::ofInt(0);
        }
        if (op == "putchar") {
            out_text_ += static_cast<char>(args[0].i);
            maybeFlush();
            return RtVal::ofInt(args[0].i);
        }
        if (op == "fputc") {
            file_ops_.emplace_back(args[1].ptr(),
                                   std::string(1, static_cast<char>(args[0].i)));
            maybeFlush();
            return RtVal::ofInt(args[0].i);
        }
        if (op == "fwrite") {
            uint64_t total = args[1].ptr() * args[2].ptr();
            std::string data(total, '\0');
            if (total > 0)
                interp.readBytes(args[0].ptr(), total,
                                 reinterpret_cast<uint8_t *>(data.data()));
            file_ops_.emplace_back(args[3].ptr(), std::move(data));
            maybeFlush();
            uint64_t item = args[1].ptr() == 0 ? 1 : args[1].ptr();
            return RtVal::ofInt(static_cast<int64_t>(total / item));
        }

        // --- Input operations: round trips (expensive) -----------------
        if (op == "fopen") {
            std::string path = interp.readCString(args[0].ptr());
            std::string mode = interp.readCString(args[1].ptr());
            roundTrip(64 + path.size(), 64);
            uint64_t handle = mob.fs().open(path, mode);
            if (handle != 0)
                cursors_[handle] = {};
            return RtVal::ofPtr(handle);
        }
        if (op == "fclose") {
            roundTrip(64, 64);
            cursors_.erase(args[0].ptr());
            return RtVal::ofInt(mob.fs().close(args[0].ptr()) ? 0 : -1);
        }
        if (op == "fgetc") {
            FileCursor &cur = cursor(args[0].ptr());
            if (cur.pos < cur.cacheBase ||
                cur.pos >= cur.cacheBase + cur.cache.size()) {
                refill(args[0].ptr());
            }
            if (cur.pos >= cur.cacheBase + cur.cache.size())
                return RtVal::ofInt(-1); // EOF
            int c = static_cast<unsigned char>(
                cur.cache[cur.pos - cur.cacheBase]);
            ++cur.pos;
            return RtVal::ofInt(c);
        }
        if (op == "feof") {
            FileCursor &cur = cursor(args[0].ptr());
            if (cur.pos >= cur.cacheBase + cur.cache.size())
                refill(args[0].ptr());
            bool eof = cur.pos >= cur.cacheBase + cur.cache.size();
            return RtVal::ofInt(eof ? 1 : 0);
        }
        if (op == "fread") {
            uint64_t total = args[1].ptr() * args[2].ptr();
            FileCursor &cur = cursor(args[3].ptr());
            std::vector<uint8_t> buf(total);
            mob.fs().seek(args[3].ptr(), static_cast<int64_t>(cur.pos), 0);
            uint64_t got = mob.fs().read(args[3].ptr(), buf.data(), total);
            roundTrip(64, 64 + got);
            if (got > 0)
                interp.writeBytes(args[0].ptr(), got, buf.data());
            cur.pos += got;
            cur.cache.clear();
            uint64_t item = args[1].ptr() == 0 ? 1 : args[1].ptr();
            return RtVal::ofInt(static_cast<int64_t>(got / item));
        }
        if (op == "fseek") {
            FileCursor &cur = cursor(args[0].ptr());
            int whence = static_cast<int>(args[2].i);
            if (whence == 0) {
                cur.pos = static_cast<uint64_t>(args[1].i);
            } else if (whence == 1) {
                cur.pos = static_cast<uint64_t>(
                    static_cast<int64_t>(cur.pos) + args[1].i);
            } else {
                roundTrip(64, 64);
                mob.fs().seek(args[0].ptr(), 0, 2);
                int64_t size = mob.fs().tell(args[0].ptr());
                cur.pos = static_cast<uint64_t>(size + args[1].i);
            }
            cur.cache.clear();
            return RtVal::ofInt(0);
        }
        if (op == "ftell") {
            return RtVal::ofInt(
                static_cast<int64_t>(cursor(args[0].ptr()).pos));
        }
        panic("unknown remote I/O operation %s%s",
              frontend::kRemoteIoPrefix, op.c_str());
    }

    void
    maybeFlush()
    {
        uint64_t pending = out_text_.size();
        for (const auto &[handle, data] : file_ops_)
            pending += data.size();
        if (pending >= kFlushThreshold)
            flushOutputs();
    }

    static constexpr uint64_t kFlushThreshold = 8192;

    Session::Impl &ctx_;
    std::string out_text_;
    std::vector<std::pair<uint64_t, std::string>> file_ops_;
    std::map<uint64_t, FileCursor> cursors_;
};

/** Mobile-side environment: intercepts the offload stubs. */
class MobileEnv : public interp::DefaultEnv
{
  public:
    explicit MobileEnv(Session::Impl &ctx) : ctx_(ctx)
    {
        setUvaHeap(&ctx.uva.mobileHeap());
    }

    RtVal
    callExternal(interp::ExecBackend &interp, const ir::Function &callee,
                 const ir::Instruction &call,
                 std::vector<RtVal> &args) override
    {
        const std::string &name = callee.name();
        if (name.rfind(compiler::kOffloadStubPrefix, 0) == 0)
            return handleOffload(interp, name, args);
        return DefaultEnv::callExternal(interp, callee, call, args);
    }

  private:
    RtVal
    handleOffload(interp::ExecBackend &interp, const std::string &stub,
                  std::vector<RtVal> &args)
    {
        auto it = ctx_.targetsByStub.find(stub);
        NOL_ASSERT(it != ctx_.targetsByStub.end(), "unknown stub %s",
                   stub.c_str());
        const TargetEntry &target = it->second;

        if (ctx_.cfg.forceLocal)
            return runLocal(interp, target, args, /*declined=*/false);

        if (ctx_.cfg.idealOffload)
            return runIdeal(interp, target, args);

        // Dynamic performance estimation (paper Sec. 4), run through
        // the layered decision engine: failover suppression, single
        // recovery probes and — when admission-aware — the predicted
        // queue wait all speak through one DecisionRecord.
        decision::DecisionRecord decision;
        decision.offload = true;
        if (ctx_.cfg.dynamicDecision) {
            ctx_.mobile.advanceCompute(30); // estimation cost
            const decision::LoadSnapshot *load = nullptr;
            if (ctx_.cfg.admissionAwareDecision &&
                ctx_.fleet.server != nullptr) {
                load = &ctx_.fleet.server->loadSnapshot();
            }
            decision = ctx_.dyn.decide(target.name,
                                       ctx_.mobile.nowNs() * 1e-9, load);
        }
        if (!decision.offload) {
            bool queue_avoided =
                decision.verdict == decision::Verdict::QueueErased;
            return runLocal(interp, target, args, /*declined=*/true,
                            decision.suppressed, /*overflow=*/false,
                            queue_avoided);
        }
        // Fleet mode: the server must admit this offloading process.
        // A denied (queue-timeout) request overflows to local
        // execution — degraded, never deadlocked. The Eq. 1 terms of
        // the decision double as the predicted slot-hold time the SPJF
        // admission policy orders by: Ts + Tc = (Tm - Tideal) + Tc.
        double predicted_hold = 0;
        if (decision.terms.mobileSeconds > 0) {
            predicted_hold = decision.terms.mobileSeconds -
                             decision.terms.idealGain +
                             decision.terms.commSeconds;
        }
        if (!ctx_.acquireServerSlot(predicted_hold)) {
            // The link was never exercised: return a granted recovery
            // probe un-spent so the next decide() may probe again.
            ctx_.dyn.cancelProbe(target.name);
            return runLocal(interp, target, args, /*declined=*/true,
                            /*suppressed=*/false, /*overflow=*/true);
        }
        return runRemote(interp, target, decision, args);
    }

    RtVal
    runLocal(interp::ExecBackend &interp, const TargetEntry &target,
             const std::vector<RtVal> &args, bool declined,
             bool suppressed = false, bool overflow = false,
             bool queue_avoided = false)
    {
        ++ctx_.report.localRuns;
        if (queue_avoided)
            ++ctx_.report.queueAvoidedLocals;
        double start = ctx_.mobile.nowNs();
        RtVal ret = interp.call(target.mobileFn, args);
        if (declined) {
            // Keep the estimator's Tm fresh from the local run.
            ctx_.dyn.observe(target.name,
                             (ctx_.mobile.nowNs() - start) * 1e-9, 0);
        }
        OffloadEvent event;
        event.target = target.name;
        event.offloaded = false;
        event.suppressed = suppressed;
        event.overflow = overflow;
        event.queueAvoided = queue_avoided;
        ctx_.report.events.push_back(event);
        return ret;
    }

    RtVal
    runIdeal(interp::ExecBackend &interp, const TargetEntry &target,
             const std::vector<RtVal> &args)
    {
        // Zero-overhead offloading: the target runs at server speed
        // while the device waits; no communication, no translation.
        ++ctx_.report.offloads;
        const arch::ArchSpec &server = ctx_.prog.serverSpec;
        sim::ComputePricing saved = ctx_.mobile.swapPricing(
            {server.nsPerCostUnit, server.arithCostScale,
             server.memCostScale, sim::PowerState::Waiting});
        RtVal ret = interp.call(target.mobileFn, args);
        ctx_.mobile.swapPricing(saved);

        OffloadEvent event;
        event.target = target.name;
        event.offloaded = true;
        event.ideal = true;
        ctx_.report.events.push_back(event);
        return ret;
    }

    /** Pages to push at initialization (Fig. 5 "prefetch"). */
    std::vector<uint64_t>
    collectPrefetchPages(bool everything) const
    {
        // Unified pages lie in the UVA globals or either heap
        // sub-range; everything else is machine-local.
        auto in_uva = [](uint64_t page_num) {
            return sim::isUvaAddress(page_num * sim::kPageSize);
        };
        std::vector<uint64_t> out;
        if (everything) {
            auto in_stack = [](uint64_t page_num) {
                uint64_t addr = page_num * sim::kPageSize;
                return addr >= sim::kMobileStackBase - sim::kStackSize &&
                       addr < sim::kMobileStackBase;
            };
            for (uint64_t page : ctx_.mobile.mem().presentPages()) {
                if (in_uva(page) || in_stack(page))
                    out.push_back(page);
            }
            return out;
        }
        for (uint64_t page : ctx_.mobile.mem().dirtyPages()) {
            if (in_uva(page))
                out.push_back(page);
        }
        return out;
    }

    /** Per-page digesting throughput on the device: ~16 bytes/unit. */
    static constexpr uint64_t kDigestCostUnits = sim::kPageSize / 16;

    /**
     * Cache-aware initialization (tentpole of the fleet page cache):
     * instead of pushing every prefetch page, the device wires the
     * pages' content digests, the server batches the handshake with
     * every other prefetch of the same admission wave, and only the
     * pages nobody else has ("need") cross the medium. Pages the cache
     * or an in-flight peer already carries install server-side for
     * free once their carrier's transfer lands (arrival barrier).
     */
    void
    prefetchThroughCache(const std::vector<uint64_t> &pages)
    {
        ServerRuntime &srv = *ctx_.fleet.server;

        std::vector<PrefetchOffer> offers;
        offers.reserve(pages.size());
        for (uint64_t page : pages)
            offers.push_back({page, ctx_.mobile.mem().pageDigest(page)});
        ctx_.mobile.advanceCompute(pages.size() * kDigestCostUnits);
        ++ctx_.report.digestHandshakes;

        ctx_.comm.sendDigestsToServer(offers.size());
        PrefetchPlan plan =
            srv.planPrefetch(*ctx_.fleet.strand, ctx_.fleet.sessionId,
                             ctx_.mobile.nowNs(), offers);
        // The batch window: the device idles until the wave flushed.
        if (plan.flushNs > ctx_.mobile.nowNs()) {
            ctx_.mobile.syncTo(plan.flushNs, sim::PowerState::Waiting);
            ctx_.server.syncTo(plan.flushNs, sim::PowerState::Idle);
        }
        try {
            ctx_.comm.sendHaveNeedToMobile(offers.size());
            std::vector<uint64_t> carry_pages;
            carry_pages.reserve(plan.carry.size());
            for (const PrefetchOffer &offer : plan.carry)
                carry_pages.push_back(offer.pageNum);
            ctx_.comm.pushPagesToServer(carry_pages, CommCategory::Prefetch);
        } catch (const CommFailure &) {
            // The wave already counts on this carrier: release its
            // digests so waiting peers complete (their pages simply
            // stay missing and copy-on-demand backfills them).
            srv.abortPrefetch(plan.waveId, plan.carry,
                              ctx_.mobile.nowNs());
            throw;
        }
        double done_ns = srv.finishPrefetch(
            *ctx_.fleet.strand, plan.waveId, plan.dependsOnWaves,
            ctx_.mobile.nowNs(), plan.carry, ctx_.server.mem());
        if (done_ns > ctx_.mobile.nowNs()) {
            ctx_.mobile.syncTo(done_ns, sim::PowerState::Waiting);
            ctx_.server.syncTo(done_ns, sim::PowerState::Idle);
        }
        std::vector<uint64_t> served = srv.collectCachedPages(
            *ctx_.fleet.strand, ctx_.mobile.nowNs(), plan.cached,
            ctx_.server.mem());
        // Served pages are now on the server exactly as if pushed; the
        // device's dirty bits clear like a direct push's would (a
        // failover snapshot restores them, same as for pushed pages).
        for (uint64_t page : served)
            ctx_.mobile.mem().clearDirty(page);
        ctx_.report.prefetchPagesSent += plan.carry.size();
        ctx_.report.prefetchPagesCached += served.size();
    }

    /**
     * Mobile-side state an aborted offload must roll back: everything
     * a mid-flight remote invocation may have changed on the device
     * before its write-back committed. Memory *content* needs no
     * snapshot — pages only change at finalization, which is atomic
     * behind the write-back transfer — but prefetch clears dirty bits
     * and remote I/O replays console/file writes on the device.
     */
    struct FailoverSnapshot {
        std::string console;
        sim::SimFileSystem fs;
        std::string input;
        size_t inputPos = 0;
        std::vector<uint64_t> dirtyPages;
    };

    RtVal
    runRemote(interp::ExecBackend &interp, const TargetEntry &target,
              const decision::DecisionRecord &decision,
              std::vector<RtVal> &args)
    {
        // A perfect link can never fail a transfer, so the snapshot is
        // only needed (and only paid for) when faults are injected.
        if (!ctx_.network.faultPlan().enabled)
            return executeRemote(target, decision, args);

        FailoverSnapshot snapshot;
        snapshot.console = ctx_.mobile.console();
        snapshot.fs = ctx_.mobile.fs();
        snapshot.input = ctx_.mobile.input();
        snapshot.inputPos = ctx_.mobile.inputPos();
        snapshot.dirtyPages = ctx_.mobile.mem().dirtyPages();
        try {
            return executeRemote(target, decision, args);
        } catch (const CommFailure &failure) {
            return failOver(interp, target, args, snapshot, failure);
        }
    }

    RtVal
    executeRemote(const TargetEntry &target,
                  const decision::DecisionRecord &decision,
                  std::vector<RtVal> &args)
    {
        uint64_t wire_before = ctx_.comm.totalWireBytes();
        uint64_t raw_before = ctx_.comm.totalRawBytes();

        // --- Initialization (Fig. 5): offloading information + ------
        // prefetch of the mobile heap.
        ctx_.comm.sendToServer(128 + 16 * args.size(),
                               CommCategory::Control);
        if (ctx_.cfg.prefetchEnabled || !ctx_.cfg.copyOnDemand) {
            std::vector<uint64_t> pages =
                collectPrefetchPages(!ctx_.cfg.copyOnDemand);
            if (ctx_.cacheActive() && !pages.empty()) {
                prefetchThroughCache(pages);
            } else {
                ctx_.comm.pushPagesToServer(pages, CommCategory::Prefetch);
                ctx_.report.prefetchPagesSent += pages.size();
            }
        }

        // Fresh server process: re-initialize server-local globals and
        // service the rest by copy-on-demand.
        interp::loadProgram(*ctx_.prog.partition.serverModule, ctx_.server,
                            /*write_uva_content=*/false);
        ctx_.server.mem().clearDirtyBits();
        ctx_.server.mem().setFaultHandler([this](uint64_t page_num) {
            if (ctx_.cfg.copyOnDemand &&
                ctx_.mobile.mem().isPresent(page_num)) {
                ctx_.comm.fetchPageToServer(page_num);
            } else {
                // Fresh page (server stack / new allocation) — or the
                // send-all ablation already shipped everything.
                ctx_.server.mem().installPage(page_num, nullptr);
            }
            return true;
        });

        // --- Offloading execution ------------------------------------
        ServerEnv server_env(ctx_);
        std::unique_ptr<interp::ExecBackend> server_backend =
            ctx_.makeBackend(ctx_.server, *ctx_.prog.partition.serverModule,
                             ctx_.serverImage, server_env);
        interp::ExecBackend &server_interp = *server_backend;
        server_interp.setIndirectCallExtraCost(kFnPtrTranslateCost);

        ctx_.comm.syncClocks();
        uint64_t units_before = ctx_.server.computeUnits();
        RtVal ret = server_interp.call(target.serverFn, args);
        uint64_t units_exec = ctx_.server.computeUnits() - units_before;
        ctx_.fnPtrUnits += server_interp.indirectExtraUnits();

        // --- Finalization ----------------------------------------------
        server_env.flushOutputs();
        ctx_.comm.sendToMobile(64, CommCategory::Control); // return value
        ctx_.comm.writeBackDirtyPages();
        if (ctx_.cacheActive()) {
            // Write-back ledger: the server held these exact contents a
            // moment ago, so they enter the cache for free — this is
            // what answers "have" when a failover-reconnect prefetch
            // re-offers state the server has already seen. Copies are
            // owned because the process terminates before the cache
            // event fires. Hashing here is off the device's critical
            // path and goes uncharged.
            std::vector<uint64_t> dirty = ctx_.server.mem().dirtyPages();
            std::vector<PrefetchOffer> admitted;
            std::vector<std::vector<uint8_t>> contents;
            admitted.reserve(dirty.size());
            contents.reserve(dirty.size());
            for (uint64_t page : dirty) {
                const uint8_t *data = ctx_.server.mem().pageData(page);
                admitted.push_back({page, sim::digestPage(data)});
                contents.emplace_back(data, data + sim::kPageSize);
            }
            if (!admitted.empty()) {
                ctx_.fleet.server->admitWriteBack(ctx_.mobile.nowNs(),
                                                  std::move(admitted),
                                                  std::move(contents));
            }
        }
        ctx_.server.mem().setFaultHandler(nullptr);
        ctx_.server.mem().clear(); // terminate the offloading process
        ctx_.comm.syncClocks();
        ctx_.releaseServerSlot();

        double server_seconds =
            static_cast<double>(units_exec) *
            ctx_.prog.serverSpec.nsPerCostUnit * 1e-9;
        ctx_.serverComputeNs += static_cast<double>(units_exec) *
                                ctx_.prog.serverSpec.nsPerCostUnit;

        uint64_t traffic =
            ctx_.comm.totalRawBytes() - raw_before;
        ctx_.dyn.observe(target.name,
                         server_seconds *
                             ctx_.prog.estimatorParams.speedRatio,
                         traffic);
        ctx_.dyn.recordSuccess(target.name);
        ++ctx_.report.offloads;

        OffloadEvent event;
        event.target = target.name;
        event.offloaded = true;
        event.estimatedGain = decision.terms.gain;
        event.trafficBytes = static_cast<double>(
            ctx_.comm.totalWireBytes() - wire_before);
        event.rawTrafficBytes = static_cast<double>(
            ctx_.comm.totalRawBytes() - raw_before);
        event.serverSeconds = server_seconds;
        ctx_.report.events.push_back(event);
        return ret;
    }

    /**
     * Mid-offload failover (the robustness layer CloneCloud and COARA
     * require): the link died past the point of no return, so abort
     * the server invocation, discard its partial state, roll the
     * device back to the pre-offload snapshot and replay the target
     * locally. The mobile clock only ever moves forward — the time
     * burned on retries and timeouts stays burned.
     */
    RtVal
    failOver(interp::ExecBackend &interp, const TargetEntry &target,
             std::vector<RtVal> &args, const FailoverSnapshot &snapshot,
             const CommFailure &failure)
    {
        (void)failure;
        // The aborted offloading process no longer occupies the server.
        ctx_.releaseServerSlot();
        // Terminate the offloading process: every partially transferred
        // or computed server page is discarded.
        ctx_.server.mem().setFaultHandler(nullptr);
        ctx_.server.mem().clear();

        // Roll back device-visible side effects of the aborted attempt
        // (remote-I/O output replays, consumed input, cleared dirty
        // bits); the local replay will regenerate them.
        ctx_.mobile.console() = snapshot.console;
        ctx_.mobile.fs() = snapshot.fs;
        ctx_.mobile.input() = snapshot.input;
        ctx_.mobile.inputPos() = snapshot.inputPos;
        for (uint64_t page_num : snapshot.dirtyPages)
            ctx_.mobile.mem().markDirty(page_num);

        // Feed the failure back: suppress this target's offloads for a
        // growing window so a flaky link converges to local execution.
        ctx_.dyn.recordFailure(target.name, ctx_.mobile.nowNs() * 1e-9);
        ++ctx_.report.failovers;
        ++ctx_.report.localRuns;

        double start = ctx_.mobile.nowNs();
        RtVal ret = interp.call(target.mobileFn, args);
        ctx_.dyn.observe(target.name, (ctx_.mobile.nowNs() - start) * 1e-9,
                         0);

        OffloadEvent event;
        event.target = target.name;
        event.offloaded = false;
        event.failedOver = true;
        ctx_.report.events.push_back(event);
        return ret;
    }

    Session::Impl &ctx_;
};

} // namespace

RunReport
Session::Impl::run(const RunInput &input)
{
    if (fleet.loop != nullptr) {
        // The client arrives on the fleet timeline at startNs; both of
        // its machines idle until then. Transfers ride the shared
        // medium from here on.
        mobile.syncTo(fleet.startNs, sim::PowerState::Idle);
        server.syncTo(fleet.startNs, sim::PowerState::Idle);
        comm.attachMedium(fleet.medium, fleet.strand);
    }

    mobile.setInput(input.stdinText);
    for (const auto &[path, contents] : input.files)
        mobile.fs().putFile(path, contents);

    const ir::Module &mobile_module = *prog.partition.mobileModule;
    const ir::Module &server_module = *prog.partition.serverModule;
    mobileImage = interp::loadProgram(mobile_module, mobile,
                                      /*write_uva_content=*/true);
    serverImage = interp::loadProgram(server_module, server,
                                      /*write_uva_content=*/false);
    server.mem().clearDirtyBits();

    // Resolve targets in both modules and seed the dynamic estimator
    // from the compile-time profile.
    for (const compiler::PartitionedTarget &target :
         prog.partition.targets) {
        TargetEntry entry;
        entry.name = target.name;
        entry.mobileFn = mobile_module.functionByName(target.name);
        entry.serverFn = server_module.functionByName(target.name);
        NOL_ASSERT(entry.mobileFn != nullptr && entry.serverFn != nullptr,
                   "target %s missing after partitioning",
                   target.name.c_str());
        targetsByStub[std::string(compiler::kOffloadStubPrefix) +
                      target.name] = entry;

        const profile::RegionProfile *region =
            prog.profile.byName(target.name);
        if (region != nullptr && region->invocations > 0) {
            dyn.seed(target.name,
                     region->execSeconds() /
                         static_cast<double>(region->invocations),
                     region->memBytes());
        }
    }

    // Admission handshake with the fleet knowledge base: overlay what
    // peers already observed on top of the compile-time seeds, so a
    // late arrival never decides cold on a target the fleet knows.
    if (fleet.server != nullptr && cfg.fleetPriorsEnabled)
        report.priorsSeededTargets = dyn.seedFromPriors();

    MobileEnv env(*this);
    std::unique_ptr<interp::ExecBackend> backend =
        makeBackend(mobile, mobile_module, mobileImage, env);
    interp::ExecBackend &interp = *backend;

    ir::Function *entry_fn = mobile_module.functionByName("main");
    NOL_ASSERT(entry_fn != nullptr, "mobile module lacks main()");

    report.exitValue = interp.call(entry_fn, {}).i;

    // --- Assemble the report -------------------------------------------
    report.console = mobile.console();
    report.mobileSeconds = mobile.nowNs() * 1e-9;
    report.energyMillijoules = mobile.power().energyMillijoules();

    double server_ns_per_unit = prog.serverSpec.nsPerCostUnit;
    double fn_ptr_s =
        static_cast<double>(fnPtrUnits) * server_ns_per_unit * 1e-9;
    report.breakdown.mobileCompute =
        mobile.power().secondsInState(sim::PowerState::Compute) -
        comm.decompressSeconds();
    report.breakdown.serverCompute =
        serverComputeNs * 1e-9 - fn_ptr_s;
    report.breakdown.fnPtrTranslation = fn_ptr_s;
    report.breakdown.remoteIo = comm.secondsIn(CommCategory::RemoteIo);
    report.breakdown.communication =
        comm.secondsIn(CommCategory::Control) +
        comm.secondsIn(CommCategory::Prefetch) +
        comm.secondsIn(CommCategory::Demand) +
        comm.secondsIn(CommCategory::WriteBack) +
        comm.secondsIn(CommCategory::Digest) +
        comm.compressSeconds() + comm.decompressSeconds();

    report.wireBytes = comm.totalWireBytes();
    report.rawBytes = comm.totalRawBytes();
    for (const auto &[category, totals] : comm.totals())
        report.bytesByCategory[commCategoryName(category)] =
            totals.wireBytes;

    report.demandFaults = comm.demandFaults();
    report.retries = comm.totalRetries();
    report.admissionWaitSeconds = admissionWaitNs * 1e-9;
    report.decisions = dyn.takeRecords();
    for (const decision::DecisionRecord &record : report.decisions) {
        if (record.offload && record.inputs.observations == 0)
            ++report.coldStartOffloads;
    }
    report.powerTimeline = mobile.power().timeline();
    return std::move(report);
}

Session::Session(const compiler::CompiledProgram &program,
                 const SystemConfig &config)
    : impl_(new Impl(program, config, FleetHooks{}))
{
    NOL_ASSERT(program.partition.mobileModule != nullptr,
               "program was not partitioned");
}

Session::Session(const compiler::CompiledProgram &program,
                 const SystemConfig &config, const FleetHooks &hooks)
    : impl_(new Impl(program, config, hooks))
{
    NOL_ASSERT(program.partition.mobileModule != nullptr,
               "program was not partitioned");
    NOL_ASSERT(hooks.loop != nullptr && hooks.medium != nullptr &&
                   hooks.server != nullptr,
               "fleet session without fleet infrastructure");
}

Session::~Session() = default;

void
Session::setStrand(sim::Strand *strand)
{
    impl_->fleet.strand = strand;
}

RunReport
Session::run(const RunInput &input)
{
    return impl_->run(input);
}

} // namespace nol::runtime
