/**
 * @file
 * The traced run. Spans are recorded here, in the benchmark, around the
 * calls into each layer's public functions; nothing inside the program
 * is instrumented. Every traced run tours all layers in the same order,
 * so it reports every per-layer metric whatever the workload:
 *
 *  1. compile: Program::compile and, alternating with it per program,
 *     the same pipeline called stage by stage as
 *     compiler::compileForOffload calls it (the staged-compile check
 *     compares the two results, and the stage times with the untraced
 *     compile time);
 *  2. the interpreter's local runs (the engine profiling uses);
 *  3. codegen: emitModule + getOrCompile of every mobile and server
 *     module into the run's empty artifact cache;
 *  4. the Fig. 6 sweep on native-C;
 *  5. the open-loop suite-mix traffic cell and solo 802.11ac runs;
 *  6. substrate probes (probes.cpp).
 *
 * The named workload's pass also runs once untraced next to its traced
 * twin; trace.overhead_frac is traced / untraced − 1.
 */
#include <array>
#include <cmath>
#include <fstream>

#include "bench/benchlib.hpp"
#include "codegen/artifact.hpp"
#include "codegen/cemitter.hpp"
#include "frontend/codegen.hpp"
#include "interp/loader.hpp"
#include "ir/callgraph.hpp"
#include "passes.hpp"

namespace perfbench {

namespace {

constexpr size_t kStageCount = 6;
const char *const kStages[kStageCount] = {
    "frontend.parse",   "profile.run",     "compiler.select",
    "compiler.outline", "compiler.unify",  "compiler.partition",
};

/** Untraced and staged compiles of each program, alternating: the
 *  comparison uses per-program medians, so one slow moment of a shared
 *  host cannot decide it. */
constexpr int kCompileReps = 5;

size_t
instructionCount(const ir::Module &module)
{
    size_t n = 0;
    for (const auto &fn : module.functions()) {
        for (const auto &bb : fn->blocks())
            n += bb->size();
    }
    return n;
}

/** What the staged compile produced, for the staged-compile check. */
struct StagedCompile {
    std::vector<std::string> targets;
    size_t uvaPages = 0;
    std::set<std::string> fptrMap;
    size_t instructions = 0;
    std::array<double, kStageCount> stageSeconds{}; ///< as kStages
};

/** compiler::compileForOffload, one span per stage. */
StagedCompile
stagedCompile(const core::CompileRequest &req, Spans &spans)
{
    StagedCompile out;
    std::unique_ptr<ir::Module> module;
    {
        Spans::Scope s(&spans, "frontend.parse", req.name);
        module = frontend::compileSource(req.source, req.name);
        out.stageSeconds[0] = s.elapsed();
    }
    out.instructions = instructionCount(*module);

    compiler::EstimatorParams params;
    params.speedRatio =
        req.mobileSpec.nsPerCostUnit / req.serverSpec.nsPerCostUnit;
    params.bandwidthMbps = req.staticBandwidthMbps;

    profile::ProfileResult prof;
    {
        Spans::Scope s(&spans, "profile.run", req.name);
        prof = profile::profileModule(*module, req.mobileSpec,
                                      req.profilingInput, "main");
        out.stageSeconds[1] = s.elapsed();
    }
    compiler::SelectionResult selection;
    {
        Spans::Scope s(&spans, "compiler.select", req.name);
        ir::CallGraph cg(*module);
        compiler::FilterResult filter =
            compiler::runFunctionFilter(*module, req.filter);
        selection = compiler::selectTargets(*module, prof, filter, cg, params);
        out.stageSeconds[2] = s.elapsed();
    }
    compiler::OutlinedTargets outlined;
    {
        Spans::Scope s(&spans, "compiler.outline", req.name);
        outlined = compiler::outlineTargets(*module, selection);
        out.stageSeconds[3] = s.elapsed();
    }
    compiler::UnifyStats unify;
    {
        Spans::Scope s(&spans, "compiler.unify", req.name);
        unify = compiler::unifyMemory(*module, outlined.fns, req.mobileSpec,
                                      req.serverSpec, {.fieldSensitive = true});
        out.stageSeconds[4] = s.elapsed();
    }
    compiler::PartitionResult partition;
    {
        Spans::Scope s(&spans, "compiler.partition", req.name);
        partition = compiler::partitionModule(*module, outlined,
                                              {.fieldSensitive = true});
        out.stageSeconds[5] = s.elapsed();
    }
    for (const compiler::PartitionedTarget &t : partition.targets)
        out.targets.push_back(t.name);
    out.uvaPages = unify.uvaPages;
    out.fptrMap = partition.fptrMap;
    return out;
}

/** Lower and compile one module into the empty artifact cache. */
size_t
coldCodegen(const ir::Module &module, sim::MachineRole role,
            const arch::ArchSpec &spec, const std::string &id, Spans &spans,
            Tally &tally)
{
    sim::SimMachine machine(role, spec);
    codegen::LoweredModule lowered;
    {
        Spans::Scope s(&spans, "codegen.emit", id);
        lowered = codegen::emitModule(
            module, interp::effectiveLayout(module, machine));
    }
    std::shared_ptr<const codegen::NativeArtifact> artifact;
    {
        Spans::Scope s(&spans, "codegen.cc_cold", id);
        artifact = codegen::getOrCompile(lowered);
    }
    tally.record(artifact != nullptr, id + ": host cc failed");
    return lowered.source.size();
}

/** One row of the per-program baseline table (seconds; -1 = not run). */
struct Row {
    double compileS = 0;
    double profileS = 0;
    double interpLocalS = -1;
    double nativeLocalS = -1;
};

/** The traced run's state; one method per step of the tour. */
class Tour
{
  public:
    Tour(const Options &opts, const Oracle &oracle, Result &out)
        : opts_(opts), oracle_(oracle), tally_(out.tally),
          metrics_(out.metrics), lines_(out.lines), sweep_(opts.seed),
          traffic_(opts.seed, opts.traceSeed)
    {
    }

    void compile();
    void interpLocal();
    void codegen();
    void sweep();
    void traffic();
    void probes();
    void finish();

  private:
    void put(const std::string &name, double value, const char *unit)
    {
        metrics_[name] = {value, unit};
    }
    bool named(const char *workload) const
    {
        return opts_.workload == workload;
    }
    /** The sweep's program for case @p i (nullptr if it failed). */
    const core::Program *sweepProgram(size_t i) const
    {
        auto it = programs_.find(sweep_.cases()[i].id);
        return it == programs_.end() ? nullptr : it->second.get();
    }

    const Options &opts_;
    const Oracle &oracle_;
    Tally &tally_;
    Metrics &metrics_;
    std::vector<std::string> &lines_;
    Spans spans_;
    std::map<std::string, Row> rows_;
    std::map<std::string, std::shared_ptr<core::Program>> programs_;
    SweepWorkload sweep_;
    TrafficWorkload traffic_;
    uint32_t peakQueueDepth_ = 0;
    double untraced_s_ = 0; ///< the named workload's untraced pass
    double traced_s_ = 0;   ///< ... and its traced twin
};

void
Tour::compile()
{
    // Program::compile and its staged twin alternate, program by
    // program, so both see the same host speed, cache and allocator.
    double untraced = 0, traced = 0;
    std::array<double, kStageCount> stage_s{};
    size_t instructions = 0, targets = 0, uva_pages = 0, fptr_entries = 0;
    for (const Case &c : suiteCases(opts_.seed, /*with_chess=*/true)) {
        core::CompileRequest req = compileRequest(c.spec);
        Row &row = rows_[c.id];
        try {
            std::shared_ptr<core::Program> prog;
            StagedCompile staged;
            std::vector<double> plain_s, staged_s;
            std::array<std::vector<double>, kStageCount> stage_reps;
            for (int rep = 0; rep < kCompileReps; ++rep) {
                double t0 = hostNow();
                prog = std::make_shared<core::Program>(
                    bench::compileWorkload(c.spec));
                plain_s.push_back(hostNow() - t0);

                t0 = hostNow();
                staged = stagedCompile(req, spans_);
                staged_s.push_back(hostNow() - t0);
                for (size_t k = 0; k < kStageCount; ++k)
                    stage_reps[k].push_back(staged.stageSeconds[k]);

                const compiler::CompiledProgram &ref = prog->compiled();
                tally_.record(staged.targets == ref.targetNames() &&
                                  staged.uvaPages ==
                                      ref.unifyStats.uvaPages &&
                                  staged.fptrMap == ref.partition.fptrMap,
                              c.id + ": staged compile differs from "
                                     "Program::compile");
            }
            untraced += median(plain_s);
            row.compileS = median(staged_s);
            traced += row.compileS;
            for (size_t k = 0; k < kStageCount; ++k)
                stage_s[k] += median(stage_reps[k]);
            row.profileS = median(stage_reps[1]);
            instructions += staged.instructions;
            targets += staged.targets.size();
            uva_pages += staged.uvaPages;
            fptr_entries += staged.fptrMap.size();
            programs_[c.id] = std::move(prog);
        } catch (const std::exception &e) {
            tally_.record(false, c.id + " compile: " + e.what());
        }
    }
    if (named("compile")) {
        untraced_s_ = untraced;
        traced_s_ = traced;
    }

    // Each stage's time over the 18 programs (per-program medians).
    // The six must sum to within 10% of the untraced Program::compile
    // time: a staged pipeline that missed part of the real compile
    // would fall short of it.
    double stage_sum = 0;
    size_t largest = 0;
    for (size_t k = 0; k < kStageCount; ++k) {
        put(std::string(kStages[k]) + "_s", stage_s[k], "s");
        stage_sum += stage_s[k];
        if (stage_s[k] > stage_s[largest])
            largest = k;
    }
    put("trace.compile_s", traced, "s");
    lines_.push_back(format("  compile stages sum to %.4f s; untraced "
                            "Program::compile %.4f s; staged %.4f s",
                            stage_sum, untraced, traced));
    tally_.record(std::abs(stage_sum - untraced) <= 0.1 * untraced,
                  format("compile stages sum to %.4f s of %.4f s untraced",
                         stage_sum, untraced));
    tally_.record(largest == 1, std::string("largest compile stage is ") +
                                    kStages[largest]);
    put("ir.instructions", static_cast<double>(instructions), "count");
    put("compiler.targets", static_cast<double>(targets), "count");
    put("compiler.uva_pages", static_cast<double>(uva_pages), "count");
    put("compiler.fptr_map_entries", static_cast<double>(fptr_entries),
        "count");
}

void
Tour::interpLocal()
{
    // The engine the profiling run uses, on the evaluation inputs.
    for (size_t i = 0; i < sweep_.cases().size(); ++i) {
        const Case &c = sweep_.cases()[i];
        const core::Program *prog = sweepProgram(i);
        if (prog == nullptr)
            continue;
        runtime::SystemConfig cfg = sweep_.configs(i)[0].config;
        cfg.backend = interp::BackendKind::Interpreter;
        Spans::Scope s(&spans_, "exec.interp_local", c.id);
        try {
            runtime::RunReport r = bench::runConfig(*prog, c.spec, cfg);
            tally_.record(oracle_.matches(c.id, r),
                          c.id + " interp local: output differs from "
                                 "reference");
        } catch (const std::exception &e) {
            tally_.record(false, c.id + " interp local: " + e.what());
        }
        rows_[c.id].interpLocalS = s.elapsed();
    }
    put("exec.interp_local_s", spans_.total("exec.interp_local"), "s");
}

void
Tour::codegen()
{
    // Lower and host-compile every sweep module into the empty cache,
    // before any session can.
    size_t c_bytes = 0;
    for (size_t i = 0; i < sweep_.cases().size(); ++i) {
        const core::Program *prog = sweepProgram(i);
        if (prog == nullptr)
            continue;
        const compiler::CompiledProgram &cp = prog->compiled();
        const std::string &id = sweep_.cases()[i].id;
        c_bytes += coldCodegen(*cp.partition.mobileModule,
                               sim::MachineRole::Mobile, cp.mobileSpec, id,
                               spans_, tally_);
        c_bytes += coldCodegen(*cp.partition.serverModule,
                               sim::MachineRole::Server, cp.serverSpec, id,
                               spans_, tally_);
    }
    put("codegen.emit_s", spans_.total("codegen.emit"), "s");
    put("codegen.cc_cold_s", spans_.total("codegen.cc_cold"), "s");
    put("codegen.c_bytes", static_cast<double>(c_bytes), "bytes");
    put("codegen.cc_invocations", static_cast<double>(artifactCount()),
        "count");
}

void
Tour::sweep()
{
    std::vector<std::shared_ptr<core::Program>> programs;
    for (const Case &c : sweep_.cases()) {
        auto it = programs_.find(c.id);
        programs.push_back(it == programs_.end() ? nullptr : it->second);
    }
    size_t artifacts = artifactCount();
    sweep_.adopt(std::move(programs), oracle_, tally_);
    tally_.record(artifactCount() == artifacts,
                  "sessions compiled modules the codegen step did not");

    if (named("paper-sweep")) {
        SweepWorkload::Pass plain = sweep_.pass(oracle_, tally_);
        untraced_s_ = plain.localSeconds + plain.offloadSeconds;
    }
    SweepWorkload::Pass sp = sweep_.pass(oracle_, tally_, &spans_);
    if (named("paper-sweep"))
        traced_s_ = sp.localSeconds + sp.offloadSeconds;

    double arith_s = 0, mem_s = 0, ac_s = 0, sim_local_s = 0;
    double offloads = 0, faults = 0, wire = 0, raw = 0, remote_io = 0;
    for (size_t i : sweep_.canonicalOrder()) {
        const Case &c = sweep_.cases()[i];
        if (c.heavyClass == "arith")
            arith_s += sp.host[i][0];
        else if (c.heavyClass == "mem")
            mem_s += sp.host[i][0];
        ac_s += sp.host[i][2];
        rows_[c.id].nativeLocalS = sp.host[i][0];
        sim_local_s += sp.reports[i][0].mobileSeconds;
        const runtime::RunReport &ac = sp.reports[i][2];
        offloads += static_cast<double>(ac.offloads);
        faults += static_cast<double>(ac.demandFaults);
        wire += static_cast<double>(ac.wireBytes);
        raw += static_cast<double>(ac.rawBytes);
        auto io = ac.bytesByCategory.find("remote-io");
        if (io != ac.bytesByCategory.end())
            remote_io += static_cast<double>(io->second);
    }
    put("exec.native_local_s", sp.localSeconds, "s");
    put("exec.native_local_arith_s", arith_s, "s");
    put("exec.native_local_mem_s", mem_s, "s");
    put("exec.host_ms_per_sim_s", sp.localSeconds * 1e3 / sim_local_s,
        "ms/sim_s");
    put("runtime.offload_s", sp.offloadSeconds, "s");
    put("runtime.offload_extra_s", ac_s - sp.localSeconds, "s");
    put("runtime.ideal_s", spans_.total("run.ideal"), "s");
    put("runtime.offloads", offloads, "count");
    put("runtime.demand_faults", faults, "count");
    put("net.wire_bytes", wire, "bytes");
    put("net.raw_bytes", raw, "bytes");
    put("compress.ratio", raw / wire, "x");
    put("runtime.remote_io_bytes", remote_io, "bytes");
    put("sim.mobile_s_local", sim_local_s, "sim_s");
    put("sim_speedup_ac", sweep_.speedupAc(sp), "x");
    put("sim_battery_saving_ac", sweep_.batterySavingAc(sp), "frac");
    checkSimDigest(oracle_, "paper-sweep", opts_.traceSeed,
                   sweep_.simDigest(sp), tally_, lines_);
}

void
Tour::traffic()
{
    {
        Spans::Scope s(&spans_, "traffic.setup");
        traffic_.setup(oracle_, tally_);
    }
    // Solo 802.11ac host time of each class: the session work a fleet
    // cannot avoid, against which its own overhead is measured.
    std::map<std::string, double> solo_s;
    for (const traffic::TrafficProgram &cls : traffic_.mix().programs) {
        Spans::Scope s(&spans_, "traffic.solo_802.11ac", cls.name);
        try {
            runtime::OffloadSystem system(*cls.program, cls.config);
            runtime::RunReport r = system.run(cls.input);
            tally_.record(oracle_.matches(cls.name, r),
                          cls.name + " solo: output differs from reference");
        } catch (const std::exception &e) {
            tally_.record(false, cls.name + " solo: " + e.what());
        }
        solo_s[cls.name] = s.elapsed();
    }

    if (named("traffic")) {
        TrafficWorkload::Pass plain = traffic_.pass(oracle_, tally_);
        untraced_s_ = plain.generateSeconds + plain.runSeconds;
    }
    TrafficWorkload::Pass tp = traffic_.pass(oracle_, tally_, &spans_);
    double traffic_s = tp.generateSeconds + tp.runSeconds;
    if (named("traffic"))
        traced_s_ = traffic_s;

    const runtime::FleetReport &fleet = tp.report.fleet;
    double solo_sum = 0, retries = 0;
    for (const runtime::FleetClientResult &client : fleet.clients) {
        // Client names are "t<arrival>-<class>".
        solo_sum += solo_s[client.name.substr(client.name.find('-') + 1)];
        retries += static_cast<double>(client.report.retries);
    }
    const runtime::PageCacheStats &cache = fleet.cache;
    double served = static_cast<double>(cache.hitPages + cache.coalescedPages);
    double pages = served + static_cast<double>(cache.missPages);
    peakQueueDepth_ = tp.report.peakQueueDepth;

    put("traffic.generate_s", tp.generateSeconds, "s");
    put("traffic.sessions_per_s",
        static_cast<double>(fleet.clients.size()) / traffic_s, "1/s");
    put("runtime.fleet_overhead_frac", 1.0 - solo_sum / tp.runSeconds,
        "frac");
    put("runtime.admission_waits",
        static_cast<double>(tp.report.admissionWaits), "count");
    put("runtime.admission_wait_sim_s", tp.report.admissionWaitSeconds,
        "sim_s");
    put("runtime.peak_queue_depth", static_cast<double>(peakQueueDepth_),
        "count");
    put("net.medium_busy_sim_s", fleet.mediumBusySeconds, "sim_s");
    put("net.medium_bytes", static_cast<double>(fleet.mediumBytes), "bytes");
    put("runtime.pagecache_hit_ratio", pages > 0 ? served / pages : 0,
        "frac");
    put("runtime.prefetch_waves", static_cast<double>(cache.prefetchWaves),
        "count");
    put("runtime.retries", retries, "count");
    put("decision.cold_start_offloads",
        static_cast<double>(fleet.totalColdStartOffloads), "count");
    put("decision.priors_seeded_targets",
        static_cast<double>(fleet.priorsSeededTargets), "count");
    put("sim_latency_p50_s", tp.report.latency.p50, "sim_s");
    put("sim_latency_p95_s", tp.report.latency.p95, "sim_s");
    checkSimDigest(oracle_, "traffic", opts_.traceSeed,
                   traffic_.simDigest(tp), tally_, lines_);
}

void
Tour::probes()
{
    Probes p = runProbes(peakQueueDepth_, tally_);
    put("sim.translate_hit_ns", p.translateHitNs, "ns");
    put("sim.translate_miss_ns", p.translateMissNs, "ns");
    put("sim.charge_ns", p.chargeNs, "ns");
    put("sim.eventloop_ns", p.eventLoopNs, "ns");
    put("runtime.admission_select_ns", p.admissionSelectNs, "ns");
    put("compress.lz_mb_per_s", p.lzMbPerSecond, "MB/s");

    // The host speed the traced run saw, in pass_norm's unit.
    std::vector<double> loops;
    for (int i = 0; i < 32; ++i)
        loops.push_back(calibrationLoop());
    put("host.cal_loop_us", median(loops) * 1e6, "us");
}

void
Tour::finish()
{
    put("trace.overhead_frac", traced_s_ / untraced_s_ - 1.0, "frac");

    auto ms = [](double s) {
        return s < 0 ? std::string("-") : format("%.1f", s * 1e3);
    };
    lines_.push_back(format("  %-16s %12s %12s %12s %12s", "program",
                            "compile ms", "profile ms", "interp ms",
                            "native ms"));
    for (const auto &[id, row] : rows_) {
        lines_.push_back(format("  %-16s %12s %12s %12s %12s", id.c_str(),
                                ms(row.compileS).c_str(),
                                ms(row.profileS).c_str(),
                                ms(row.interpLocalS).c_str(),
                                ms(row.nativeLocalS).c_str()));
    }
    if (!opts_.traceOut.empty()) {
        std::ofstream file(opts_.traceOut);
        file << spans_.chromeTrace();
    }
}

} // namespace

void
runLayers(const Options &opts, const Oracle &oracle, Result &out)
{
    out.lines.push_back(format("traced run: workload %s  seed %llu",
                               opts.workload.c_str(),
                               static_cast<unsigned long long>(opts.seed)));
    Tour tour(opts, oracle, out);
    tour.compile();
    tour.interpLocal();
    tour.codegen();
    tour.sweep();
    tour.traffic();
    tour.probes();
    tour.finish();
}

} // namespace perfbench
