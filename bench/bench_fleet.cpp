/**
 * @file
 * Extension: multi-client scalability of the offload server. The paper
 * evaluates one device against one server; this bench puts N identical
 * clients (1–128) on the shared wireless medium and server admission
 * queue and reports fleet throughput (offloads per second of virtual
 * time) and per-client latency percentiles on both WiFi environments.
 *
 * Every cell runs twice — page cache off, then on — and the table adds
 * the bytes the fleet pushed over the medium for prefetch in each mode
 * plus the off/on ratio. Identical binaries dirty identical read-only
 * pages, so the content-addressed cache should collapse the prefetch
 * traffic roughly with N once two or more clients share a wave.
 *
 * Simulated metrics are backend-independent (the native-C backend is
 * bit-identical to the interpreter by construction), so every cell
 * executes on the native backend; that is what makes the N=64/128
 * points affordable at all. Cells up to N=32 additionally re-run on
 * the interpreter to report the compiled-vs-interpreted wall-clock
 * speedup, and a solo section times the compute-heavy workloads under
 * both backends.
 *
 * Expected shape: throughput rises with N until the channel or the
 * admission policy saturates, while client latency degrades smoothly —
 * fair-share airtime and FIFO admission, so nobody starves and nothing
 * deadlocks. Results land in BENCH_fleet.json next to the table.
 */
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench/benchlib.hpp"
#include "codegen/artifact.hpp"
#include "support/strings.hpp"

using namespace nol;
using namespace nol::bench;

namespace {

/** Interpreter timing reruns stop here; beyond it only the native
 *  backend keeps the bench inside its time budget. */
constexpr size_t kSpeedupMaxClients = 32;

struct Cell {
    const char *network = nullptr;
    size_t clients = 0;
    runtime::FleetReport off; ///< page cache disabled
    runtime::FleetReport on;  ///< page cache enabled
    double nativeWallSeconds = 0; ///< cache-off cell, native backend
    double interpWallSeconds = 0; ///< same cell on the interpreter
                                  ///< (0: skipped, N too large)
};

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

runtime::FleetReport
runFleetCell(const core::Program &prog,
             const workloads::WorkloadSpec &spec,
             const net::NetworkSpec &network, size_t n, bool cache_on,
             interp::BackendKind backend)
{
    runtime::SystemConfig cfg;
    cfg.network = network;
    cfg.memScale = spec.memScale;
    cfg.pageCacheEnabled = cache_on;
    cfg.backend = backend;

    std::vector<runtime::FleetClient> clients;
    for (size_t i = 0; i < n; ++i) {
        runtime::FleetClient client;
        client.name = "client-" + std::to_string(i);
        client.config = cfg;
        client.input = spec.evalInput;
        // Staggered arrivals (0.5 ms apart): devices are never
        // perfectly synchronized.
        client.startSeconds = static_cast<double>(i) * 0.0005;
        clients.push_back(std::move(client));
    }
    // Patient clients: sessions hold a slot for the whole (virtual-
    // minutes) offload, so the default 5 s queue timeout would deny
    // everyone past the slot count and hide the queueing behaviour
    // this bench is about. Saturation should show up as latency.
    runtime::AdmissionConfig policy;
    policy.maxQueueWaitSeconds = 1e9;
    return prog.runFleet(clients, policy);
}

uint64_t
prefetchBytes(const runtime::FleetReport &fleet)
{
    uint64_t total = 0;
    for (const runtime::FleetClientResult &result : fleet.clients) {
        auto it = result.report.bytesByCategory.find("prefetch");
        if (it != result.report.bytesByCategory.end())
            total += it->second;
    }
    return total;
}

std::string
ratioOf(uint64_t off, uint64_t on)
{
    if (on == 0)
        return off == 0 ? "-" : "inf";
    return fixed(static_cast<double>(off) / static_cast<double>(on), 2) + "x";
}

std::string
speedupOf(const Cell &cell)
{
    if (cell.interpWallSeconds <= 0 || cell.nativeWallSeconds <= 0)
        return "-";
    return fixed(cell.interpWallSeconds / cell.nativeWallSeconds, 1) + "x";
}

/** One compute-heavy workload timed solo under both backends. */
struct SoloSpeedup {
    std::string id;
    bool arithDense = false;
    double interpWallSeconds = 0;
    double nativeWallSeconds = 0;
    double speedup = 0;
};

double
timeSoloRun(const core::Program &prog, const workloads::WorkloadSpec &spec,
            interp::BackendKind backend, int reps)
{
    runtime::SystemConfig cfg;
    cfg.memScale = spec.memScale;
    cfg.backend = backend;
    // The local baseline (paper Fig. 6 "local"): the whole run is
    // guest computation, so this isolates exactly the engine the
    // backend replaces. Offloaded configurations dilute the ratio
    // with network/paging simulation that both backends share.
    cfg.forceLocal = true;
    const runtime::RunInput &input = spec.evalInput;

    double best = 0;
    for (int r = 0; r < reps; ++r) {
        double t0 = now();
        runtime::RunReport report = prog.run(cfg, input);
        double dt = now() - t0;
        NOL_ASSERT(!report.console.empty() || report.exitValue >= 0,
                   "run produced nothing");
        if (r == 0 || dt < best)
            best = dt;
    }
    return best;
}

} // namespace

int
main()
{
    std::printf("=== Extension: fleet scalability — N clients, one "
                "offload server ===\n\n");

    const bool native = codegen::toolchainAvailable();
    const interp::BackendKind cell_backend =
        native ? interp::BackendKind::NativeC
               : interp::BackendKind::Interpreter;
    if (!native)
        std::printf("NOTE: no host C compiler; running everything on the "
                    "interpreter (no speedup columns)\n\n");

    const std::string workload_id = "179.art";
    const workloads::WorkloadSpec *spec = workloads::workloadById(workload_id);
    NOL_ASSERT(spec != nullptr, "unknown workload");
    core::Program prog = compileWorkload(*spec);

    // Warm the artifact cache so the first timed cell does not pay the
    // one-time host-toolchain compile.
    if (native)
        runFleetCell(prog, *spec, net::makeWifi80211ac(), 1, false,
                     cell_backend);

    struct Link {
        const char *name;
        net::NetworkSpec spec;
    };
    std::vector<Link> links = {{"802.11n", net::makeWifi80211n()},
                               {"802.11ac", net::makeWifi80211ac()}};
    std::vector<size_t> counts = {1, 2, 4, 8, 16, 32, 64, 128};

    std::vector<Cell> cells;
    for (const Link &link : links) {
        std::printf("workload %s on %s\n", workload_id.c_str(), link.name);
        TextTable table;
        table.header({"Clients", "Offloads/s", "p50 latency", "p95 latency",
                      "p99 latency", "makespan", "waits", "denied",
                      "pf bytes off", "pf bytes on", "saved", "hits",
                      "wall", "speedup"});
        for (size_t n : counts) {
            std::fprintf(stderr, "  [fleet] %s N=%zu ...\n", link.name, n);
            Cell cell;
            cell.network = link.name;
            cell.clients = n;
            double t0 = now();
            cell.off =
                runFleetCell(prog, *spec, link.spec, n, false, cell_backend);
            cell.nativeWallSeconds = now() - t0;
            cell.on =
                runFleetCell(prog, *spec, link.spec, n, true, cell_backend);
            if (native && n <= kSpeedupMaxClients) {
                t0 = now();
                runtime::FleetReport rerun = runFleetCell(
                    prog, *spec, link.spec, n, false,
                    interp::BackendKind::Interpreter);
                cell.interpWallSeconds = now() - t0;
                NOL_ASSERT(rerun.totalOffloads == cell.off.totalOffloads,
                           "backends diverged on total offloads");
            }
            const runtime::FleetReport &f = cell.off;
            // One percentile definition for every column: the shared
            // nearest-rank helper, not per-bench latency math.
            LatencySummary lat = fleetLatencySummary(f);
            uint64_t pf_off = prefetchBytes(cell.off);
            uint64_t pf_on = prefetchBytes(cell.on);
            table.row({std::to_string(n),
                       fixed(f.offloadsPerSecond, 2),
                       fixed(lat.p50, 3) + "s",
                       fixed(lat.p95, 3) + "s",
                       fixed(lat.p99, 3) + "s",
                       fixed(f.makespanSeconds, 3) + "s",
                       std::to_string(f.admissionWaits),
                       std::to_string(f.admissionDenials),
                       std::to_string(pf_off),
                       std::to_string(pf_on),
                       ratioOf(pf_off, pf_on),
                       std::to_string(cell.on.cache.hitPages +
                                      cell.on.cache.coalescedPages),
                       fixed(cell.nativeWallSeconds, 2) + "s",
                       speedupOf(cell)});
            cells.push_back(std::move(cell));
        }
        std::printf("%s\n", table.render().c_str());
    }

    // Solo compiled-vs-interpreted wall clock on the compute-heavy
    // workloads (guest instructions dominate the run): the headline
    // payoff of the native backend.
    std::vector<SoloSpeedup> solo;
    if (native) {
        std::printf("solo compiled-vs-interpreted wall clock "
                    "(local baseline, best of 3)\n");
        TextTable table;
        table.header(
            {"Workload", "class", "interp wall", "native wall", "speedup"});
        // Two classes of compute-heavy workload: arithmetic-dense code
        // (long charge runs between memory accesses — the native win is
        // largest) and memory-streaming code (an access every 1–3
        // instructions, so both backends are bounded below by the
        // per-access simulation work: page lookup, fault/dirty
        // accounting, and the per-instruction energy integration).
        struct HeavyId {
            const char *id;
            bool arithDense;
        };
        const std::vector<HeavyId> heavy_ids = {
            {"175.vpr", true},   {"177.mesa", true},
            {"401.bzip2", true}, {"445.gobmk", true},
            {"458.sjeng", true}, {"179.art", false},
            {"188.ammp", false}, {"433.milc", false},
            {"470.lbm", false},
        };
        std::vector<double> speedups, arith_speedups, mem_speedups;
        for (const HeavyId &hid : heavy_ids) {
            std::fprintf(stderr, "  [solo] %s ...\n", hid.id);
            const workloads::WorkloadSpec *heavy =
                workloads::workloadById(hid.id);
            NOL_ASSERT(heavy != nullptr, "unknown workload");
            core::Program heavy_prog = compileWorkload(*heavy);
            // Warm-up run: pays the artifact compile outside the timer.
            timeSoloRun(heavy_prog, *heavy, interp::BackendKind::NativeC, 1);
            SoloSpeedup row;
            row.id = hid.id;
            row.arithDense = hid.arithDense;
            row.interpWallSeconds = timeSoloRun(
                heavy_prog, *heavy, interp::BackendKind::Interpreter, 3);
            row.nativeWallSeconds = timeSoloRun(
                heavy_prog, *heavy, interp::BackendKind::NativeC, 3);
            row.speedup = row.nativeWallSeconds > 0
                              ? row.interpWallSeconds / row.nativeWallSeconds
                              : 0;
            table.row({row.id, hid.arithDense ? "arith" : "mem",
                       fixed(row.interpWallSeconds * 1e3, 1) + "ms",
                       fixed(row.nativeWallSeconds * 1e3, 1) + "ms",
                       fixed(row.speedup, 1) + "x"});
            speedups.push_back(row.speedup);
            (hid.arithDense ? arith_speedups : mem_speedups)
                .push_back(row.speedup);
            solo.push_back(std::move(row));
        }
        std::printf("%s\n", table.render().c_str());
        std::printf("geomean speedup %.1fx over %zu compute-heavy "
                    "workloads\n",
                    geomean(speedups), speedups.size());
        std::printf("  arithmetic-dense: %.1fx over %zu   "
                    "memory-streaming: %.1fx over %zu\n\n",
                    geomean(arith_speedups), arith_speedups.size(),
                    geomean(mem_speedups), mem_speedups.size());
    }

    // Machine-readable results for plotting / regression tracking. The
    // headline scalability numbers come from the cache-off run (the
    // PR 2 baseline); the cache_* keys quantify what the page cache
    // takes off the medium in the same cell. Wall-clock keys are host
    // time: interp_wall_s is 0 where the interpreter rerun was skipped
    // (N beyond kSpeedupMaxClients, or no toolchain).
    FILE *json = std::fopen("BENCH_fleet.json", "w");
    NOL_ASSERT(json != nullptr, "cannot write BENCH_fleet.json");
    std::fprintf(json,
                 "{\n  \"workload\": \"%s\",\n  \"backend\": \"%s\",\n"
                 "  \"cells\": [\n",
                 workload_id.c_str(),
                 interp::backendKindName(cell_backend));
    for (size_t i = 0; i < cells.size(); ++i) {
        const runtime::FleetReport &f = cells[i].off;
        const runtime::FleetReport &g = cells[i].on;
        double speedup =
            cells[i].interpWallSeconds > 0 && cells[i].nativeWallSeconds > 0
                ? cells[i].interpWallSeconds / cells[i].nativeWallSeconds
                : 0.0;
        std::fprintf(
            json,
            "    {\"network\": \"%s\", \"clients\": %zu, "
            "\"offloads_per_second\": %.6f, \"latency_p50_s\": %.6f, "
            "\"latency_p95_s\": %.6f, \"latency_p99_s\": %.6f, "
            "\"makespan_s\": %.6f, "
            "\"total_offloads\": %llu, \"total_local_runs\": %llu, "
            "\"admission_waits\": %llu, \"admission_denials\": %llu, "
            "\"admission_wait_s\": %.6f, \"medium_busy_s\": %.6f, "
            "\"peak_concurrent_flows\": %u, "
            "\"peak_concurrent_sessions\": %u, "
            "\"prefetch_bytes_off\": %llu, \"prefetch_bytes_on\": %llu, "
            "\"medium_bytes_off\": %llu, \"medium_bytes_on\": %llu, "
            "\"cache_hit_pages\": %llu, \"cache_coalesced_pages\": %llu, "
            "\"cache_miss_pages\": %llu, \"cache_waves\": %llu, "
            "\"makespan_on_s\": %.6f, "
            "\"native_wall_s\": %.4f, \"interp_wall_s\": %.4f, "
            "\"speedup\": %.2f}%s\n",
            cells[i].network, cells[i].clients, f.offloadsPerSecond,
            f.latencyP50Seconds, f.latencyP95Seconds,
            fleetLatencySummary(f).p99, f.makespanSeconds,
            static_cast<unsigned long long>(f.totalOffloads),
            static_cast<unsigned long long>(f.totalLocalRuns),
            static_cast<unsigned long long>(f.admissionWaits),
            static_cast<unsigned long long>(f.admissionDenials),
            f.admissionWaitSeconds, f.mediumBusySeconds,
            f.peakConcurrentFlows, f.peakConcurrentSessions,
            static_cast<unsigned long long>(prefetchBytes(cells[i].off)),
            static_cast<unsigned long long>(prefetchBytes(cells[i].on)),
            static_cast<unsigned long long>(f.mediumBytes),
            static_cast<unsigned long long>(g.mediumBytes),
            static_cast<unsigned long long>(g.cache.hitPages),
            static_cast<unsigned long long>(g.cache.coalescedPages),
            static_cast<unsigned long long>(g.cache.missPages),
            static_cast<unsigned long long>(g.cache.prefetchWaves),
            g.makespanSeconds, cells[i].nativeWallSeconds,
            cells[i].interpWallSeconds, speedup,
            i + 1 < cells.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n  \"solo_speedup\": [\n");
    for (size_t i = 0; i < solo.size(); ++i) {
        std::fprintf(json,
                     "    {\"workload\": \"%s\", \"class\": \"%s\", "
                     "\"interp_wall_s\": %.4f, "
                     "\"native_wall_s\": %.4f, \"speedup\": %.2f}%s\n",
                     solo[i].id.c_str(),
                     solo[i].arithDense ? "arith" : "mem",
                     solo[i].interpWallSeconds,
                     solo[i].nativeWallSeconds, solo[i].speedup,
                     i + 1 < solo.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::printf("wrote BENCH_fleet.json\n");
    return 0;
}
