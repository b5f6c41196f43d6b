/**
 * @file
 * Regenerates the paper's evaluation in one run, in DESIGN.md §4's
 * order: Tables 1-4, Figs. 6(a), 6(b), 7 and 8, Table 5, then the six
 * design studies (copy-on-demand, compression, prefetch, dynamic
 * decision, remote I/O, cloudlet).
 *
 * Every program is compiled once and the 17-program sweep (local,
 * 802.11n, 802.11ac, ideal) runs once. Each section reads its runs
 * from that sweep; an ablation adds only the runs that change one
 * setting of a sweep configuration.
 *
 * The output is deterministic. It is committed as
 * bench/bench_paper.golden, and the ctest BenchPaper.MatchesGolden
 * diffs the two. After a deliberate model change, regenerate it with
 *   ./build/bench/bench_paper > bench/bench_paper.golden
 */
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/benchlib.hpp"
#include "core/surveydata.hpp"
#include "decision/model.hpp"
#include "sim/powermodel.hpp"
#include "support/strings.hpp"

using namespace nol;
using namespace nol::bench;

namespace {

using Sweep = std::vector<WorkloadRuns>;

const WorkloadRuns &
sweepRuns(const Sweep &sweep, const std::string &id)
{
    auto it = std::find_if(sweep.begin(), sweep.end(),
                           [&](const WorkloadRuns &runs) {
                               return runs.spec->id == id;
                           });
    NOL_ASSERT(it != sweep.end(), "unknown workload %s", id.c_str());
    return *it;
}

/** "12.3s" */
std::string
seconds(double value)
{
    return fixed(value, 1) + "s";
}

/** Percent saved going from @p before to @p after, or "-". */
std::string
savedPct(double after, double before)
{
    return before > 0 ? fixed((1 - after / before) * 100, 1) + "%" : "-";
}

// --- Table 1: chess gap ------------------------------------------------

/**
 * Movement computation time of the same chess game on the smartphone
 * and the desktop across difficulty levels 7-11. The "desktop" column
 * is the same source compiled with the x86 ArchSpec as the device. The
 * gap row is the comparable quantity: the miniature chess AI grows
 * slower with depth than the real engine. Returns the depth-7
 * smartphone compile, which Table 3 reads.
 */
core::Program
table1()
{
    std::printf("=== Table 1: chess move computation, smartphone vs "
                "desktop ===\n");
    std::printf("paper: gap 5.36x / 5.89x / 5.71x / 5.74x / 5.80x for "
                "difficulty 7..11\n\n");

    std::vector<int> difficulties = {7, 8, 9, 10, 11};
    std::vector<core::Program> phones;
    std::vector<double> phone_s;
    std::vector<double> desktop_s;
    for (int depth : difficulties) {
        workloads::WorkloadSpec chess = workloads::makeChess(depth);
        phones.push_back(compileWorkload(chess));
        runtime::SystemConfig local;
        local.forceLocal = true;
        phone_s.push_back(
            runConfig(phones.back(), chess, local).mobileSeconds);

        core::CompileRequest desk_req;
        desk_req.name = "chess.desktop";
        desk_req.source = chess.source;
        desk_req.profilingInput = chess.profilingInput;
        desk_req.mobileSpec = arch::makeX86_64();
        core::Program desk = core::Program::compile(desk_req);
        desktop_s.push_back(desk.runLocal(chess.evalInput).mobileSeconds);
    }

    TextTable table;
    table.header({"Difficulty Level", "7", "8", "9", "10", "11"});
    std::vector<std::string> desk_row = {"Desktop (sec)"};
    std::vector<std::string> phone_row = {"Smartphone (sec)"};
    std::vector<std::string> gap_row = {"Performance Gap (x)"};
    for (size_t i = 0; i < difficulties.size(); ++i) {
        desk_row.push_back(fixed(desktop_s[i], 2));
        phone_row.push_back(fixed(phone_s[i], 2));
        gap_row.push_back(fixed(phone_s[i] / desktop_s[i], 2));
    }
    table.row(desk_row);
    table.row(phone_row);
    table.row(gap_row);
    std::printf("%s\n", table.render().c_str());
    std::printf("(paper smartphone row: 0.34 2.92 6.33 12.79 66.02.\n"
                " The reproduced claim is the CONSTANT >5x gap across\n"
                " difficulties; our gap sits above the 5.5x clock ratio\n"
                " because the chess evaluation is floating-point heavy\n"
                " and the server's FPU advantage compounds it.)\n");
    return phones.front();
}

// --- Table 2: Android native-code survey (the paper's data) ------------

void
table2()
{
    std::printf("=== Table 2: C/C++ share of top 20 open-source Android "
                "apps ===\n\n");

    TextTable table;
    table.header({"Application", "Version", "C/C++ LoC", "Total LoC",
                  "LoC %", "Runtime scenario", "Exec %"});
    for (const core::AndroidAppRow &row : core::androidAppSurvey()) {
        double loc_pct =
            row.totalLoc > 0
                ? 100.0 * static_cast<double>(row.cLoc) /
                      static_cast<double>(row.totalLoc)
                : 0.0;
        table.row({row.app, row.version, std::to_string(row.cLoc),
                   std::to_string(row.totalLoc), fixed(loc_pct, 2),
                   row.runtimeScenario,
                   row.execTimeRatio > 0 ? fixed(row.execTimeRatio, 2)
                                         : "0.00"});
    }
    std::printf("%s\n", table.render().c_str());

    core::SurveyStats stats = core::computeSurveyStats();
    std::printf("Derived claims (paper Sec. 1: \"around one third\"):\n");
    std::printf("  apps with > 50%% native LoC:        %d / %d\n",
                stats.appsOverHalfNativeLoc, stats.totalApps);
    std::printf("  apps with > 20%% native exec time:  %d / %d\n",
                stats.appsOverFifthNativeTime, stats.totalApps);
}

// --- Table 3: chess profiling + static estimation ----------------------

/**
 * Part 1 pushes the paper's own profile rows through our Equation 1
 * (the Tideal/Tc/Tg columns must reproduce exactly); part 2 shows our
 * profiler's measurements of @p chess and the estimates from them.
 */
void
table3(const core::Program &chess)
{
    std::printf("=== Table 3: profiling + static estimation (chess) ===\n");
    std::printf("estimator assumptions (paper): R = 5, BW = 80 Mbps\n\n");

    struct PaperRow {
        const char *name;
        double exec_s;
        int invocations;
        double mem_mb;
        double t_g; // the paper's printed result
    };
    const PaperRow kPaperRows[] = {
        {"runGame", 27.0, 1, 20, 17.6},
        {"getAITurn", 26.0, 3, 12, 13.6},
        {"for_i", 26.0, 3, 12, 13.6},
        {"for_j", 25.0, 36, 12, -66.4},
        {"getPlayerTurn", 1.5, 3, 10, -4.8},
    };

    decision::ModelParams params{5.0, 80.0};
    TextTable golden;
    golden.header({"Candidate", "Exec(s)", "Invo", "Mem(MB)", "Tideal",
                   "Tc", "Tg", "paper Tg"});
    for (const PaperRow &row : kPaperRows) {
        decision::Terms est = decision::evaluate(
            row.exec_s, static_cast<uint64_t>(row.mem_mb * 1e6),
            static_cast<uint64_t>(row.invocations), params);
        golden.row({row.name, fixed(row.exec_s, 1),
                    std::to_string(row.invocations), fixed(row.mem_mb, 0),
                    fixed(est.idealGain, 1), fixed(est.commSeconds, 1),
                    fixed(est.gain, 1), fixed(row.t_g, 1)});
    }
    std::printf("Part 1 — paper profile -> our Eq. 1 (columns must match "
                "the paper):\n%s\n", golden.render().c_str());

    const auto &profile = chess.compiled().profile;
    TextTable measured;
    measured.header({"Candidate", "Exec(s)", "Invo", "Mem(KB)", "Tideal",
                     "Tc", "Tg", "verdict"});
    for (const compiler::Candidate &cand :
         chess.compiled().selection.candidates) {
        const auto *region = profile.byName(cand.name);
        if (region == nullptr)
            continue;
        std::string verdict =
            cand.selected ? "SELECTED"
                          : (cand.machineSpecific ? "machine-specific"
                                                  : cand.rejectReason);
        measured.row({cand.name, fixed(region->execSeconds(), 2),
                      std::to_string(region->invocations),
                      fixed(region->memBytes() / 1024.0, 0),
                      fixed(cand.estimate.idealGain, 2),
                      fixed(cand.estimate.commSeconds, 2),
                      fixed(cand.estimate.gain, 2), verdict});
    }
    std::printf("Part 2 — our profiler on the chess workload "
                "(difficulty 7):\n%s\n", measured.render().c_str());
    std::printf("(like the paper, the interactive getPlayerTurn chain is\n"
                " filtered and getAITurn is the chosen target)\n");
}

// --- Table 4: per-program offload statistics ---------------------------

void
table4(const Sweep &sweep)
{
    std::printf("=== Table 4: offloaded-program details (17 SPEC-shaped "
                "workloads) ===\n");
    std::printf("measured on the 802.11ac configuration; traffic in "
                "paper-equivalent MB (raw bytes x k)\n\n");

    TextTable table;
    table.header({"Program", "Exec(s)", "paper", "Target", "Cover%",
                  "paper", "Inv", "paper", "Traf/inv MB", "paper"});
    for (const WorkloadRuns &runs : sweep) {
        const workloads::WorkloadSpec &spec = *runs.spec;
        double coverage = 0;
        for (const std::string &target : runs.program->targets())
            coverage +=
                runs.program->compiled().profile.coverage(target);
        table.row({spec.id, fixed(runs.local.mobileSeconds, 1),
                   fixed(spec.paper.execSeconds, 1), spec.expectedTarget,
                   fixed(coverage * 100, 2),
                   fixed(spec.paper.coveragePct, 2),
                   std::to_string(runs.primaryInvocations(runs.fast)),
                   std::to_string(spec.paper.invocations),
                   fixed(runs.primaryTrafficMb(runs.fast), 1),
                   fixed(spec.paper.trafficMb, 1)});
    }
    std::printf("%s\n", table.render().c_str());

    // The "Offloaded Function" columns. The "cons" columns are what the
    // conservative address-taken treatment would ship; the points-to
    // refinement keeps UVA globals and the fptr map at the smaller
    // numbers.
    TextTable fns;
    fns.header({"Program", "Server fns kept", "Total fns",
                "UVA globals", "cons", "Total globals",
                "Fn-ptr call sites", "Fptr map", "cons"});
    for (const WorkloadRuns &runs : sweep) {
        const auto &part = runs.program->compiled().partition;
        const auto &unify = runs.program->compiled().unifyStats;
        fns.row({runs.spec->id, std::to_string(part.serverFunctionsKept),
                 std::to_string(part.totalFunctions),
                 std::to_string(unify.uvaGlobals),
                 std::to_string(unify.uvaGlobalsConservative),
                 std::to_string(unify.totalGlobals),
                 std::to_string(part.functionPointerUses),
                 std::to_string(part.fptrMap.size()),
                 std::to_string(part.fptrMapConservative)});
    }
    std::printf("%s", fns.render().c_str());
}

// --- Fig. 6: normalized time and battery -------------------------------

/** fixed(@p value, 3), starred when @p report never offloaded. */
std::string
normalizedCell(double value, const runtime::RunReport &report)
{
    return fixed(value, 3) + (report.offloads == 0 ? " *" : "");
}

/** `*` marks programs the dynamic estimator refused to offload. */
void
fig6a(const Sweep &sweep)
{
    std::printf("=== Fig. 6(a): normalized whole-program execution time "
                "===\n\n");

    TextTable table;
    table.header({"Program", "slow", "fast", "ideal", "speedup(fast)"});
    std::vector<double> norm_slow, norm_fast, norm_ideal;
    int refused_slow = 0;
    for (const WorkloadRuns &runs : sweep) {
        double local = runs.local.mobileSeconds;
        double slow = runs.slow.mobileSeconds / local;
        double fast = runs.fast.mobileSeconds / local;
        double ideal = runs.ideal.mobileSeconds / local;
        norm_slow.push_back(slow);
        norm_fast.push_back(fast);
        norm_ideal.push_back(ideal);
        refused_slow += runs.slow.offloads == 0;
        table.row({runs.spec->id, normalizedCell(slow, runs.slow),
                   normalizedCell(fast, runs.fast), fixed(ideal, 3),
                   fixed(1.0 / fast, 2) + "x"});
    }
    std::printf("%s\n", table.render().c_str());

    double gm_slow = geomean(norm_slow);
    double gm_fast = geomean(norm_fast);
    double gm_ideal = geomean(norm_ideal);
    std::printf("geomean normalized time: slow %.3f  fast %.3f  ideal "
                "%.3f\n", gm_slow, gm_fast, gm_ideal);
    std::printf("geomean time reduction:  slow %.1f%%  fast %.1f%%   "
                "(paper: 82.0%% / 84.4%%)\n",
                (1 - gm_slow) * 100, (1 - gm_fast) * 100);
    std::printf("geomean speedup (fast):  %.2fx              "
                "(paper: 6.42x)\n", 1.0 / gm_fast);
    std::printf("programs refused on 802.11n (*): %d  "
                "(paper text names 164.gzip)\n", refused_slow);
}

void
fig6b(const Sweep &sweep)
{
    std::printf("=== Fig. 6(b): normalized battery consumption ===\n\n");

    TextTable table;
    table.header({"Program", "slow", "fast", "ideal", "fast vs ideal"});
    std::vector<double> norm_slow, norm_fast;
    for (const WorkloadRuns &runs : sweep) {
        double local = runs.local.energyMillijoules;
        double slow = runs.slow.energyMillijoules / local;
        double fast = runs.fast.energyMillijoules / local;
        double ideal = runs.ideal.energyMillijoules / local;
        norm_slow.push_back(slow);
        norm_fast.push_back(fast);
        table.row({runs.spec->id, normalizedCell(slow, runs.slow),
                   fixed(fast, 3), fixed(ideal, 3),
                   fixed(fast / ideal, 2) + "x"});
    }
    std::printf("%s\n", table.render().c_str());

    std::printf("geomean battery saving: slow %.1f%%  fast %.1f%%   "
                "(paper: 77.2%% / 82.0%%)\n",
                (1 - geomean(norm_slow)) * 100,
                (1 - geomean(norm_fast)) * 100);

    // The paper's one battery regression, on the network where gzip
    // does offload.
    const WorkloadRuns &gzip = sweepRuns(sweep, "164.gzip");
    const runtime::RunReport &rep =
        gzip.fast.offloads > 0 ? gzip.fast : gzip.slow;
    std::printf("164.gzip battery when offloaded: %.3f of local "
                "(paper: > 1.0 — the one regression)\n",
                rep.energyMillijoules / gzip.local.energyMillijoules);
}

// --- Fig. 7: overhead breakdown ----------------------------------------

void
addBreakdownRow(TextTable &table, const std::string &name,
                const runtime::RunReport &report)
{
    const runtime::TimeBreakdown &b = report.breakdown;
    double total = b.mobileCompute + b.serverCompute + b.fnPtrTranslation +
                   b.remoteIo + b.communication;
    if (report.offloads == 0) {
        table.row({name, fixed(report.mobileSeconds, 1), "-", "-", "-",
                   "-", "(not offloaded)"});
        return;
    }
    auto pct = [&](double v) { return fixed(100 * v / total, 1) + "%"; };
    table.row({name, fixed(total, 1),
               pct(b.mobileCompute + b.serverCompute),
               pct(b.fnPtrTranslation), pct(b.remoteIo),
               pct(b.communication), ""});
}

/**
 * The breakdown per program and network, then the paper's reading of
 * it next to our numbers: twolf/gobmk/h264ref remote-I/O heavy,
 * gobmk/sjeng/h264ref paying function-pointer translation, and the
 * compressors, sjeng and lbm network-sensitive.
 */
void
fig7(const Sweep &sweep)
{
    std::printf("=== Fig. 7: overhead breakdown (s = 802.11n, f = "
                "802.11ac) ===\n\n");

    TextTable table;
    table.header({"Program", "total s", "compute", "fn-ptr", "remote I/O",
                  "comm", ""});
    for (const WorkloadRuns &runs : sweep) {
        addBreakdownRow(table, runs.spec->id + " (s)", runs.slow);
        addBreakdownRow(table, runs.spec->id + " (f)", runs.fast);
    }
    std::printf("%s\n", table.render().c_str());

    std::printf("shape checks against the paper's reading:\n");
    for (const WorkloadRuns &runs : sweep) {
        const std::string &id = runs.spec->id;
        const runtime::TimeBreakdown &b = runs.fast.breakdown;
        if (id == "445.gobmk" || id == "300.twolf" || id == "464.h264ref") {
            std::printf("  %-12s remote I/O %.1fs (paper: prominent)\n",
                        id.c_str(), b.remoteIo);
        }
        if (id == "458.sjeng" || id == "445.gobmk" || id == "464.h264ref") {
            std::printf("  %-12s fn-ptr translation %.1fs (expected "
                        "visible)\n", id.c_str(), b.fnPtrTranslation);
        }
        if (id == "164.gzip" || id == "470.lbm" || id == "458.sjeng") {
            if (runs.slow.offloads == 0) {
                std::printf("  %-12s comm fast %.1fs; not offloaded on "
                            "802.11n\n", id.c_str(), b.communication);
            } else {
                std::printf("  %-12s comm fast %.1fs vs slow %.1fs "
                            "(expected network-sensitive)\n", id.c_str(),
                            b.communication,
                            runs.slow.breakdown.communication);
            }
        }
    }
}

// --- Fig. 8: power over time -------------------------------------------

/** @p report's power as a 60-bucket sparkline plus every sixth bucket. */
void
printPowerTrace(const std::string &title, const runtime::RunReport &report,
                double local_seconds)
{
    constexpr int kBuckets = 60;
    const double idle_mw = sim::PowerModel().rate(sim::PowerState::Idle);

    std::printf("--- %s ---\n", title.c_str());
    std::printf("run length %.1f s (local %.1f s), energy %.0f mJ, "
                "offloads %llu\n", report.mobileSeconds, local_seconds,
                report.energyMillijoules,
                static_cast<unsigned long long>(report.offloads));

    double total_ns = report.mobileSeconds * 1e9;
    std::vector<double> buckets(kBuckets, 0);
    for (int i = 0; i < kBuckets; ++i) {
        buckets[i] = sim::averagePower(report.powerTimeline,
                                       total_ns * i / kBuckets,
                                       total_ns * (i + 1) / kBuckets,
                                       idle_mw);
    }
    const char *glyphs = " .:-=+*#%@";
    std::string spark;
    for (double mw : buckets)
        spark += glyphs[std::clamp(static_cast<int>(mw / 5000.0 * 9.0),
                                   0, 9)];
    std::printf("power (0-5000 mW, %d buckets): [%s]\n", kBuckets,
                spark.c_str());
    for (int i = 0; i < kBuckets; i += 6) {
        std::printf("  t=%5.1fs  %6.0f mW\n",
                    report.mobileSeconds * i / kBuckets, buckets[i]);
    }
    std::printf("\n");
}

/** 458.sjeng (fast) and 445.gobmk (fast and slow). */
void
fig8(const Sweep &sweep)
{
    std::printf("=== Fig. 8: power consumption over time ===\n\n");

    const WorkloadRuns &sjeng = sweepRuns(sweep, "458.sjeng");
    const WorkloadRuns &gobmk = sweepRuns(sweep, "445.gobmk");
    printPowerTrace("(a) 458.sjeng, fast network (3 think bursts + "
                    "waiting at ~1350 mW)", sjeng.fast,
                    sjeng.local.mobileSeconds);
    printPowerTrace("(b) 445.gobmk, fast network (paper: sustained "
                    "~2000 mW remote-I/O service)", gobmk.fast,
                    gobmk.local.mobileSeconds);
    printPowerTrace("(c) 445.gobmk, slow network (paper: longer, at a "
                    "~1700 mW plateau)", gobmk.slow,
                    gobmk.local.mobileSeconds);

    // The paper's Sec. 5.2 peculiarity: gobmk (and twolf) spend MORE
    // battery on the FAST network than the slow one.
    std::printf("445.gobmk energy: fast %.0f mJ vs slow %.0f mJ "
                "(paper: fast > slow despite shorter run)\n",
                gobmk.fast.energyMillijoules, gobmk.slow.energyMillijoules);
}

// --- Table 5: related systems (the paper's data) -----------------------

void
table5()
{
    std::printf("=== Table 5: comparison of computation offload systems "
                "===\n\n");

    TextTable table;
    table.header({"System", "Fully-Automatic", "Decision", "Requires VM",
                  "Language", "Target complexity"});
    for (const core::RelatedSystemRow &row : core::relatedSystems()) {
        table.row({row.system, row.fullyAutomatic ? "Yes" : "No",
                   row.decision, row.requiresVm ? "Yes" : "No",
                   row.language, row.complexity});
    }
    std::printf("%s\n", table.render().c_str());

    int unique = 0;
    for (const core::RelatedSystemRow &row : core::relatedSystems()) {
        if (row.fullyAutomatic && row.decision == "Dynamic" &&
            !row.requiresVm && row.language == "C" &&
            row.complexity == "Complex") {
            ++unique;
            std::printf("all-five-properties system: %s\n",
                        row.system.c_str());
        }
    }
    std::printf("(exactly %d system has automatic + dynamic + no-VM + "
                "native C + complex apps)\n", unique);
}

// --- Ablations ---------------------------------------------------------

/** Wire bytes of @p report in paper-equivalent MB. */
double
wireMb(const runtime::RunReport &report, const workloads::WorkloadSpec &spec)
{
    return report.wireBytes * spec.memScale / 1e6;
}

/**
 * Copy-on-demand vs shipping every page up front, the conservative
 * static partitioner's strategy (paper Sec. 6).
 */
void
ablationCopyOnDemand(const Sweep &sweep)
{
    std::printf("=== Ablation: copy-on-demand vs send-all (802.11ac) "
                "===\n\n");

    TextTable table;
    table.header({"Program", "CoD time", "send-all time", "CoD wire MB",
                  "send-all wire MB", "traffic saved"});
    for (const char *id : {"164.gzip", "429.mcf", "456.hmmer", "458.sjeng",
                           "462.libquantum"}) {
        const WorkloadRuns &runs = sweepRuns(sweep, id);
        runtime::SystemConfig send_all = sweepConfig(*runs.spec);
        send_all.copyOnDemand = false;
        runtime::RunReport without =
            runConfig(*runs.program, *runs.spec, send_all);

        double cod_mb = wireMb(runs.fast, *runs.spec);
        double all_mb = wireMb(without, *runs.spec);
        table.row({id, seconds(runs.fast.mobileSeconds),
                   seconds(without.mobileSeconds), fixed(cod_mb, 1),
                   fixed(all_mb, 1), savedPct(cod_mb, all_mb)});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("paper: static partitioners must conservatively send all\n"
                "the data the offloaded tasks may touch; copy-on-demand\n"
                "ships only the pages they access.\n");
}

/** Server-to-mobile write-back compression, on the slow network. */
void
ablationCompression(const Sweep &sweep)
{
    std::printf("=== Ablation: write-back compression (802.11n) ===\n\n");

    TextTable table;
    table.header({"Program", "on: time", "off: time", "on: wire MB",
                  "off: wire MB", "wire saved"});
    for (const char *id : {"401.bzip2", "429.mcf", "458.sjeng", "470.lbm"}) {
        const WorkloadRuns &runs = sweepRuns(sweep, id);
        runtime::SystemConfig off_cfg = sweepConfig(*runs.spec);
        off_cfg.network = net::makeWifi80211n();
        off_cfg.compressionEnabled = false;
        runtime::RunReport without =
            runConfig(*runs.program, *runs.spec, off_cfg);

        double on_mb = wireMb(runs.slow, *runs.spec);
        double off_mb = wireMb(without, *runs.spec);
        table.row({id, seconds(runs.slow.mobileSeconds),
                   seconds(without.mobileSeconds), fixed(on_mb, 1),
                   fixed(off_mb, 1), savedPct(on_mb, off_mb)});
    }
    std::printf("%s\n", table.render().c_str());
}

/** Initialization prefetch vs pure copy-on-demand (paper Sec. 4). */
void
ablationPrefetch(const Sweep &sweep)
{
    std::printf("=== Ablation: prefetch vs pure demand paging (802.11ac) "
                "===\n\n");

    TextTable table;
    table.header({"Program", "prefetch: time", "demand-only: time",
                  "prefetch: faults", "demand-only: faults"});
    for (const char *id : {"177.mesa", "183.equake", "433.milc",
                           "470.lbm"}) {
        const WorkloadRuns &runs = sweepRuns(sweep, id);
        runtime::SystemConfig without = sweepConfig(*runs.spec);
        without.prefetchEnabled = false;
        runtime::RunReport off = runConfig(*runs.program, *runs.spec, without);

        table.row({id, seconds(runs.fast.mobileSeconds),
                   seconds(off.mobileSeconds),
                   std::to_string(runs.fast.demandFaults),
                   std::to_string(off.demandFaults)});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("paper: the device prefetches the heap the server will\n"
                "most likely use in one batch, ahead of demand faults.\n");
}

/**
 * Dynamic runtime decision vs static-only offloading as 164.gzip's
 * bandwidth drops (paper Sec. 4: no slowdown on an unexpectedly slow
 * network).
 */
void
ablationDynamic(const Sweep &sweep)
{
    std::printf("=== Ablation: dynamic vs static-only offload decision "
                "(164.gzip) ===\n\n");

    const WorkloadRuns &gzip = sweepRuns(sweep, "164.gzip");
    const double local_s = gzip.local.mobileSeconds;
    std::printf("local baseline: %.1f s\n\n", local_s);

    TextTable table;
    table.header({"Bandwidth", "dynamic: time", "offloaded?",
                  "static-only: time", "dyn vs local"});
    for (double mbps : {844.0, 433.0, 144.0, 72.0, 36.0}) {
        runtime::SystemConfig dyn_cfg = sweepConfig(*gzip.spec);
        // At 802.11ac's own bandwidth this is the sweep's fast run.
        bool sweep_run = mbps == dyn_cfg.network.bandwidthMbps;
        dyn_cfg.network.bandwidthMbps = mbps;
        runtime::RunReport dyn =
            sweep_run ? gzip.fast
                      : runConfig(*gzip.program, *gzip.spec, dyn_cfg);

        runtime::SystemConfig static_cfg = dyn_cfg;
        static_cfg.dynamicDecision = false;
        runtime::RunReport stat =
            runConfig(*gzip.program, *gzip.spec, static_cfg);

        table.row({fixed(mbps, 0) + " Mbps", seconds(dyn.mobileSeconds),
                   dyn.offloads > 0 ? "yes" : "no (local)",
                   seconds(stat.mobileSeconds),
                   fixed(dyn.mobileSeconds / local_s, 2)});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("expectation: below the crossover the dynamic runtime "
                "pins time near\nthe local baseline while static-only "
                "offloading keeps degrading.\n");
}

/**
 * The remote I/O manager on vs off (paper Sec. 3.4). "Off" compiles
 * the evaluation request with remote I/O filtered out, so the two
 * programs differ only in that setting.
 */
void
ablationRemoteIo(const Sweep &sweep)
{
    std::printf("=== Ablation: remote I/O manager on/off (802.11ac) "
                "===\n\n");

    TextTable table;
    table.header({"Program", "on: targets", "on: speedup", "off: targets",
                  "off: speedup"});
    for (const char *id : {"445.gobmk", "300.twolf", "464.h264ref",
                           "482.sphinx3"}) {
        const WorkloadRuns &runs = sweepRuns(sweep, id);
        core::CompileRequest req = workloads::evaluationRequest(*runs.spec);
        req.filter.remoteIoEnabled = false;
        core::Program without_rio = core::Program::compile(req);
        runtime::RunReport off =
            runConfig(without_rio, *runs.spec, sweepConfig(*runs.spec));

        double local_s = runs.local.mobileSeconds;
        table.row({id, std::to_string(runs.program->targets().size()),
                   fixed(local_s / runs.fast.mobileSeconds, 2) + "x",
                   std::to_string(without_rio.targets().size()),
                   fixed(local_s / off.mobileSeconds, 2) + "x"});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("paper: without remote I/O the function filter excludes\n"
                "most of the code and no profitable offload remains.\n");
}

/**
 * Server placement, the paper's Sec. 6 Cloudlet extension: a one-hop
 * cloudlet, the two LAN networks of the sweep, and a distant LTE
 * cloud.
 */
void
ablationCloudlet(const Sweep &sweep)
{
    std::printf("=== Extension: server placement (Cloudlet vs LAN vs "
                "LTE cloud) ===\n\n");

    TextTable table;
    table.header({"Program", "local", "cloudlet", "802.11ac", "802.11n",
                  "lte-cloud"});
    for (const char *id : {"445.gobmk", "300.twolf", "458.sjeng",
                           "456.hmmer"}) {
        const WorkloadRuns &runs = sweepRuns(sweep, id);
        auto run_on = [&](const net::NetworkSpec &placement) {
            runtime::SystemConfig cfg = sweepConfig(*runs.spec);
            cfg.network = placement;
            return runConfig(*runs.program, *runs.spec, cfg);
        };
        const runtime::RunReport cloudlet = run_on(net::makeCloudlet());
        const runtime::RunReport lte = run_on(net::makeLteCloud());
        std::vector<std::string> row = {id,
                                        seconds(runs.local.mobileSeconds)};
        for (const runtime::RunReport *rep :
             {&cloudlet, &runs.fast, &runs.slow, &lte}) {
            row.push_back(seconds(rep->mobileSeconds) +
                          (rep->offloads == 0 ? "*" : ""));
        }
        table.row(row);
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("(* = the dynamic estimator kept the task local)\n");
    std::printf("expectation: the remote-I/O programs (gobmk, twolf) gain\n"
                "most from the cloudlet's low latency; the LTE cloud's\n"
                "60 ms round trips hurt them disproportionately.\n");
}

} // namespace

int
main()
{
    core::Program chess = table1();
    table2();
    table3(chess);

    Sweep sweep = runSweep();
    table4(sweep);
    fig6a(sweep);
    fig6b(sweep);
    fig7(sweep);
    fig8(sweep);
    table5();

    ablationCopyOnDemand(sweep);
    ablationCompression(sweep);
    ablationPrefetch(sweep);
    ablationDynamic(sweep);
    ablationRemoteIo(sweep);
    ablationCloudlet(sweep);
    return 0;
}
