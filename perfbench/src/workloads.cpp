#include <algorithm>
#include <cstdio>
#include <fstream>

#include "bench/benchlib.hpp"
#include "codegen/artifact.hpp"
#include "passes.hpp"

namespace perfbench {

namespace {

/** Indices of @p cases sorted by id: digests never depend on the seed. */
std::vector<size_t>
canonicalOrder(const std::vector<Case> &cases)
{
    std::vector<size_t> order(cases.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return cases[a].id < cases[b].id;
    });
    return order;
}

/** Run one configuration of a program, counting it as an operation. */
runtime::RunReport
checkedRun(const core::Program &program, const Case &c,
           const SweepConfig &sc, const Oracle &oracle, Tally &tally)
{
    runtime::RunReport report;
    try {
        report = bench::runConfig(program, c.spec, sc.config);
    } catch (const std::exception &e) {
        tally.record(false, c.id + " " + sc.name + ": " + e.what());
        return report;
    }
    tally.record(oracle.matches(c.id, report),
                 c.id + " " + sc.name + ": output differs from reference");
    return report;
}

} // namespace

CompileFingerprint
fingerprintOf(const compiler::CompiledProgram &prog)
{
    CompileFingerprint fp;
    fp.targets = prog.targetNames();
    Digest d;
    for (const std::string &t : fp.targets)
        d.add(t);
    for (const std::string &f : prog.partition.fptrMap)
        d.add(f);
    d.add(prog.unifyStats.uvaGlobals).add(prog.unifyStats.uvaPages);
    d.add(prog.unifyStats.allocSitesReplaced);
    d.add(prog.unifyStats.stackSlotsUnified);
    d.add(prog.partition.serverFunctionsKept);
    d.add(prog.partition.callSitesRewritten);
    d.add(prog.profile.totalNs);
    d.add(std::to_string(prog.profile.exitValue));
    for (const auto &[name, region] : prog.profile.regions) {
        d.add(name).add(region.execNs).add(region.invocations);
        d.add(region.memPages);
    }
    fp.digest = d.hex();
    return fp;
}

// ---------------------------------------------------------------- compile

CompileWorkload::CompileWorkload(uint64_t seed)
    : cases_(suiteCases(seed, /*with_chess=*/true))
{
}

void
CompileWorkload::setup(Tally &tally)
{
    refs_.clear();
    for (const Case &c : cases_) {
        CompileFingerprint fp;
        try {
            fp = fingerprintOf(bench::compileWorkload(c.spec).compiled());
        } catch (const std::exception &e) {
            tally.record(false, c.id + " compile: " + e.what());
        }
        refs_.push_back(std::move(fp));
    }
}

bool
CompileWorkload::check(size_t i, const compiler::CompiledProgram &prog,
                       std::string *why) const
{
    const Case &c = cases_[i];
    CompileFingerprint fp = fingerprintOf(prog);
    if (std::find(fp.targets.begin(), fp.targets.end(),
                  c.spec.expectedTarget) == fp.targets.end()) {
        *why = c.id + " compile: target " + c.spec.expectedTarget +
               " not selected";
        return false;
    }
    if (fp.digest != refs_[i].digest) {
        *why = c.id + " compile: result differs from the set-up compile";
        return false;
    }
    return true;
}

PassTime
CompileWorkload::pass(Tally &tally)
{
    PassTime time;
    for (size_t i = 0; i < cases_.size(); ++i) {
        const Case &c = cases_[i];
        double t0 = hostNow();
        try {
            core::Program prog = bench::compileWorkload(c.spec);
            time.add(hostNow() - t0);
            std::string why;
            bool ok = check(i, prog.compiled(), &why);
            tally.record(ok, why);
        } catch (const std::exception &e) {
            time.add(hostNow() - t0);
            tally.record(false, c.id + " compile: " + e.what());
        }
    }
    return time;
}

std::string
CompileWorkload::simDigest() const
{
    Digest d;
    for (size_t i : canonicalOrder(cases_))
        d.add(cases_[i].id).add(refs_[i].digest);
    return d.hex();
}

// ------------------------------------------------------------ paper-sweep

SweepWorkload::SweepWorkload(uint64_t seed)
    : cases_(suiteCases(seed, /*with_chess=*/false))
{
    for (const Case &c : cases_)
        configs_.push_back(sweepConfigs(c.spec.memScale));
}

void
SweepWorkload::setup(const Oracle &oracle, Tally &tally)
{
    // Set-up runs in id order, whatever the seed.
    std::vector<std::shared_ptr<core::Program>> programs(cases_.size());
    for (size_t i : canonicalOrder()) {
        const Case &c = cases_[i];
        try {
            programs[i] = std::make_shared<core::Program>(
                bench::compileWorkload(c.spec));
        } catch (const std::exception &e) {
            tally.record(false, c.id + " compile: " + e.what());
        }
    }
    adopt(std::move(programs), oracle, tally);
}

void
SweepWorkload::adopt(std::vector<std::shared_ptr<core::Program>> programs,
                     const Oracle &oracle, Tally &tally)
{
    programs_ = std::move(programs);
    warm(oracle, tally);
}

void
SweepWorkload::warm(const Oracle &oracle, Tally &tally)
{
    tally.record(codegen::toolchainAvailable(),
                 "no host C compiler: the native-C backend is unavailable");
    // One run of each configuration, in id order: the local and the
    // offloaded runs lower and compile the mobile and the server module,
    // so every timed run finds both in the artifact cache.
    for (size_t i : canonicalOrder()) {
        if (programs_[i] == nullptr)
            continue;
        for (const SweepConfig &sc : configs_[i])
            checkedRun(*programs_[i], cases_[i], sc, oracle, tally);
    }
}

SweepWorkload::Pass
SweepWorkload::pass(const Oracle &oracle, Tally &tally, Spans *spans)
{
    static const char *const kSpanNames[kConfigs] = {
        "run.local", "run.802.11n", "run.802.11ac", "run.ideal"};
    Pass out;
    out.host.resize(cases_.size());
    out.reports.resize(cases_.size());
    for (size_t i = 0; i < cases_.size(); ++i) {
        const Case &c = cases_[i];
        if (programs_[i] == nullptr) {
            tally.record(false, c.id + ": not compiled");
            continue;
        }
        for (size_t k = 0; k < kConfigs; ++k) {
            Spans::Scope scope(spans, kSpanNames[k], c.id);
            out.reports[i][k] =
                checkedRun(*programs_[i], c, configs_[i][k], oracle, tally);
            out.host[i][k] = scope.elapsed();
            (k == 0 ? out.localSeconds : out.offloadSeconds) +=
                out.host[i][k];
        }
        out.time.add(out.host[i][0] + out.host[i][1] + out.host[i][2] +
                     out.host[i][3]);
        // Local ≡ offloaded: every configuration prints the same.
        for (size_t k = 1; k < kConfigs; ++k) {
            const runtime::RunReport &a = out.reports[i][0];
            const runtime::RunReport &b = out.reports[i][k];
            tally.record(a.console == b.console && a.exitValue == b.exitValue,
                         c.id + " " + configs_[i][k].name +
                             ": output differs from the local run");
        }
    }
    return out;
}

std::vector<size_t>
SweepWorkload::canonicalOrder() const
{
    return perfbench::canonicalOrder(cases_);
}

std::string
SweepWorkload::simDigest(const Pass &pass) const
{
    Digest d;
    for (size_t i : canonicalOrder()) {
        d.add(cases_[i].id);
        for (const runtime::RunReport &r : pass.reports[i])
            d.add(reportDigest(r));
    }
    return d.hex();
}

double
SweepWorkload::speedupAc(const Pass &pass) const
{
    std::vector<double> ratios;
    for (size_t i : canonicalOrder()) {
        const auto &r = pass.reports[i];
        if (r[2].mobileSeconds > 0)
            ratios.push_back(r[0].mobileSeconds / r[2].mobileSeconds);
    }
    return bench::geomean(ratios);
}

double
SweepWorkload::batterySavingAc(const Pass &pass) const
{
    std::vector<double> ratios;
    for (size_t i : canonicalOrder()) {
        const auto &r = pass.reports[i];
        if (r[0].energyMillijoules > 0)
            ratios.push_back(r[2].energyMillijoules / r[0].energyMillijoules);
    }
    return 1.0 - bench::geomean(ratios);
}

// ---------------------------------------------------------------- traffic

TrafficWorkload::TrafficWorkload(uint64_t seed, uint64_t trace_seed)
    : seed_(seed)
{
    traceConfig_.seed = trace_seed;
    traceConfig_.arrivals = 400;
    traceConfig_.process = traffic::ArrivalProcess::Poisson;
    traceConfig_.ratePerSecond = 0.1;
    traceConfig_.mixAlpha = 1.1;
    traceConfig_.churnFraction = 0.03;
    admission_.kind = runtime::AdmissionPolicyKind::Fifo;
    admission_.maxConcurrentSessions = 4;
    admission_.maxQueueWaitSeconds = 1e9;
}

void
TrafficWorkload::setup(const Oracle &oracle, Tally &tally)
{
    tally.record(codegen::toolchainAvailable(),
                 "no host C compiler: the native-C backend is unavailable");
    mix_ = traffic::makeSuiteMix(net::makeWifi80211ac(),
                                 interp::BackendKind::NativeC);
    for (traffic::TrafficProgram &cls : mix_.programs) {
        cls.config.pageCacheEnabled = true;
        cls.config.fleetPriorsEnabled = true;
    }
    // One solo run per class, in seeded order, lowers and compiles both
    // modules of every class before the timed passes.
    for (size_t i : seededOrder(mix_.programs.size(), seed_)) {
        const traffic::TrafficProgram &cls = mix_.programs[i];
        try {
            runtime::OffloadSystem system(*cls.program, cls.config);
            runtime::RunReport report = system.run(cls.input);
            tally.record(oracle.matches(cls.name, report),
                         cls.name + " solo: output differs from reference");
        } catch (const std::exception &e) {
            tally.record(false, cls.name + " solo: " + e.what());
        }
    }
}

TrafficWorkload::Pass
TrafficWorkload::pass(const Oracle &oracle, Tally &tally, Spans *spans)
{
    Pass out;
    traffic::Trace trace;
    {
        Spans::Scope scope(spans, "traffic.generate");
        trace = traffic::generateTrace(traceConfig_, mix_.programs.size());
        out.generateSeconds = scope.elapsed();
    }
    {
        Spans::Scope scope(spans, "traffic.run_open_loop");
        try {
            out.report =
                traffic::runOpenLoop(trace, mix_.programs, admission_);
        } catch (const std::exception &e) {
            for (size_t i = 0; i < trace.entries.size(); ++i)
                tally.record(false, std::string("traffic: ") + e.what());
            return out;
        }
        out.runSeconds = scope.elapsed();
    }
    // One long operation: enough loops to time the host speed well.
    out.time.add(out.generateSeconds + out.runSeconds, /*loops=*/32);

    const std::vector<runtime::FleetClientResult> &clients =
        out.report.fleet.clients;
    for (size_t i = 0; i < trace.entries.size(); ++i) {
        const traffic::TrafficProgram &cls =
            mix_.programs[trace.entries[i].programIndex];
        if (i >= clients.size()) {
            tally.record(false, format("session %zu never finished", i));
            continue;
        }
        const runtime::FleetClientResult &client = clients[i];
        bool finished = client.finishSeconds >= client.startSeconds &&
                        client.latencySeconds > 0;
        tally.record(finished && oracle.matches(cls.name, client.report),
                     client.name + (finished
                                        ? ": output differs from reference"
                                        : ": session did not finish"));
    }
    return out;
}

std::string
TrafficWorkload::simDigest(const Pass &pass) const
{
    return fnv1a(traffic::serializeTrafficReport(pass.report));
}

// ----------------------------------------------------------- entry points

namespace {

/** The one workload an invocation runs. */
struct Runner {
    std::unique_ptr<CompileWorkload> compile;
    std::unique_ptr<SweepWorkload> sweep;
    std::unique_ptr<TrafficWorkload> traffic;
};

Runner
makeRunner(const Options &opts)
{
    Runner r;
    if (opts.workload == "compile")
        r.compile = std::make_unique<CompileWorkload>(opts.seed);
    else if (opts.workload == "paper-sweep")
        r.sweep = std::make_unique<SweepWorkload>(opts.seed);
    else
        r.traffic = std::make_unique<TrafficWorkload>(opts.seed, opts.traceSeed);
    return r;
}

void
setup(Runner &r, const Oracle &oracle, Tally &tally)
{
    if (r.compile)
        r.compile->setup(tally);
    else if (r.sweep)
        r.sweep->setup(oracle, tally);
    else
        r.traffic->setup(oracle, tally);
}

/** Key of a workload's reference digest in sim-digests.txt. */
std::string
simKey(const std::string &workload, uint64_t trace_seed)
{
    return workload == "traffic" ? format("traffic/%llu",
                                          static_cast<unsigned long long>(
                                              trace_seed))
                                 : workload;
}

/** One pass of @p r; returns the simulated-statistics digest. */
std::string
simDigestOfOnePass(Runner &r, const Oracle &oracle, Tally &tally)
{
    if (r.compile) {
        r.compile->pass(tally);
        return r.compile->simDigest();
    }
    if (r.sweep)
        return r.sweep->simDigest(r.sweep->pass(oracle, tally));
    return r.traffic->simDigest(r.traffic->pass(oracle, tally));
}

} // namespace

void
checkSimDigest(const Oracle &oracle, const std::string &workload,
               uint64_t trace_seed, const std::string &digest, Tally &tally,
               std::vector<std::string> &lines)
{
    std::string key = simKey(workload, trace_seed);
    const std::string *expected = oracle.simDigest(key);
    lines.push_back("  sim digest " + key + " " + digest +
                    (expected == nullptr ? " (no reference)"
                     : *expected == digest ? " (matches reference)"
                                           : " (DIFFERS from reference " +
                                                 *expected + ")"));
    if (expected != nullptr) {
        tally.record(*expected == digest,
                     key + ": simulated statistics differ from the reference");
    }
}

int
writeReference(const std::string &dir)
{
    std::vector<Case> cases = suiteCases(/*seed=*/0, /*with_chess=*/true);
    std::sort(cases.begin(), cases.end(),
              [](const Case &a, const Case &b) { return a.id < b.id; });
    {
        // Outputs come from the interpreter, which shares no code with
        // the native-C backend every workload runs on.
        std::ofstream out(dir + "/outputs.txt");
        for (const Case &c : cases) {
            core::Program prog = bench::compileWorkload(c.spec);
            runtime::SystemConfig cfg = sweepConfigs(c.spec.memScale)[0].config;
            cfg.backend = interp::BackendKind::Interpreter;
            runtime::RunReport report = bench::runConfig(prog, c.spec, cfg);
            out << c.id << ' ' << Oracle::outputDigest(report) << '\n';
        }
        if (!out)
            return 1;
    }
    Oracle oracle = Oracle::load(dir);
    std::ofstream out(dir + "/sim-digests.txt");
    for (const char *workload : {"compile", "paper-sweep", "traffic"}) {
        Options opts;
        opts.workload = workload;
        Runner r = makeRunner(opts);
        Tally tally;
        setup(r, oracle, tally);
        std::string digest = simDigestOfOnePass(r, oracle, tally);
        if (tally.failed() != 0) {
            std::fprintf(stderr, "perfbench: %s failed: %s\n", workload,
                         tally.reasons().front().c_str());
            return 1;
        }
        out << simKey(workload, opts.traceSeed) << ' ' << digest << '\n';
    }
    return out ? 0 : 1;
}

void
runWorkload(const Options &opts, const Oracle &oracle, Result &out)
{
    Tally &tally = out.tally;
    Runner r = makeRunner(opts);
    double t0 = hostNow();
    setup(r, oracle, tally);
    double setup_s = hostNow() - t0;
    size_t artifacts_after_setup = artifactCount();
    // Peak memory over a fixed amount of work, done in the same order
    // whatever the seed: the set-up.
    double peak_rss_mb = peakRssMb();

    // Timed phase: whole passes until the budget is spent (at least 1).
    std::vector<double> pass_s, pass_norm, local_s, offload_s, sessions_per_s;
    double speedup = 0, battery = 0, p50 = 0, p95 = 0;
    std::string digest;
    bool digest_stable = true;
    double start = hostNow();
    do {
        std::string d;
        PassTime time;
        if (r.compile) {
            time = r.compile->pass(tally);
            d = r.compile->simDigest();
        } else if (r.sweep) {
            SweepWorkload::Pass p = r.sweep->pass(oracle, tally);
            time = p.time;
            local_s.push_back(p.localSeconds);
            offload_s.push_back(p.offloadSeconds);
            speedup = r.sweep->speedupAc(p);
            battery = r.sweep->batterySavingAc(p);
            d = r.sweep->simDigest(p);
        } else {
            TrafficWorkload::Pass p = r.traffic->pass(oracle, tally);
            time = p.time;
            sessions_per_s.push_back(
                static_cast<double>(p.report.fleet.clients.size()) /
                time.seconds);
            p50 = p.report.latency.p50;
            p95 = p.report.latency.p95;
            d = r.traffic->simDigest(p);
        }
        pass_s.push_back(time.seconds);
        pass_norm.push_back(time.norm());
        if (!digest.empty() && d != digest)
            digest_stable = false;
        digest = d;
    } while (hostNow() - start < opts.seconds);

    size_t new_artifacts = artifactCount() - artifacts_after_setup;
    tally.record(new_artifacts == 0,
                 format("%zu host cc invocations inside the timed phase",
                        new_artifacts));
    tally.record(digest_stable,
                 "simulated statistics differ between passes of one run");
    out.lines.push_back(format("workload %s  seed %llu  passes %zu",
                               opts.workload.c_str(),
                               static_cast<unsigned long long>(opts.seed),
                               pass_s.size()));
    checkSimDigest(oracle, opts.workload, opts.traceSeed, digest, tally,
                   out.lines);

    out.metrics["setup_s"] = {setup_s, "s"};
    out.metrics["pass_norm"] = {median(pass_norm), "cal_loops"};
    out.metrics["peak_rss_mb"] = {peak_rss_mb, "MiB"};
    out.passNorm = pass_norm;
    // The human-readable report: the workload's own end-to-end figures.
    auto line = [&](const std::string &name, double value,
                    const char *unit) {
        out.lines.push_back(format("  %-24s %14.6f %s", name.c_str(), value,
                                   unit));
    };
    std::string passes, norms;
    for (size_t i = 0; i < pass_s.size(); ++i) {
        passes += format(" %.4f", pass_s[i]);
        norms += format(" %.2f", pass_norm[i]);
    }
    out.lines.push_back("  pass_s per pass:" + passes);
    out.lines.push_back("  pass_norm per pass:" + norms);
    if (r.compile) {
        line("compile_s", median(pass_s), "s");
    } else if (r.sweep) {
        line("run_local_s", median(local_s), "s");
        line("run_offload_s", median(offload_s), "s");
        line("sim_speedup_ac", speedup, "x (paper 6.42x)");
        line("  error vs paper", speedup / 6.42 - 1, "frac");
        line("sim_battery_saving_ac", battery, "frac (paper 0.820)");
        line("  error vs paper", battery - 0.820, "frac");
    } else {
        line("sessions_per_s", median(sessions_per_s), "1/s");
        line("sim_latency_p50_s", p50, "sim s");
        line("sim_latency_p95_s", p95, "sim s");
        line("trace_seed", static_cast<double>(opts.traceSeed),
             opts.traceSeed == kPinnedTraceSeed     ? "(pinned)"
             : opts.traceSeed == kHeldOutTraceSeed ? "(held out)"
                                                   : "");
    }
}

} // namespace perfbench
