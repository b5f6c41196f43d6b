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
 * points affordable at all. Host time is perfbench's to measure.
 *
 * Expected shape: throughput rises with N until the channel or the
 * admission policy saturates, while client latency degrades smoothly —
 * fair-share airtime and FIFO admission, so nobody starves and nothing
 * deadlocks. Results land in BENCH_fleet.json next to the table.
 */
#include <cstdio>
#include <vector>

#include "bench/benchlib.hpp"
#include "codegen/artifact.hpp"
#include "support/strings.hpp"

using namespace nol;
using namespace nol::bench;

namespace {

struct Cell {
    const char *network = nullptr;
    size_t clients = 0;
    runtime::FleetReport off; ///< page cache disabled
    runtime::FleetReport on;  ///< page cache enabled
};

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
                    "interpreter\n\n");

    const std::string workload_id = "179.art";
    const workloads::WorkloadSpec *spec = workloads::workloadById(workload_id);
    NOL_ASSERT(spec != nullptr, "unknown workload");
    core::Program prog = compileWorkload(*spec);

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
                      "pf bytes off", "pf bytes on", "saved", "hits"});
        for (size_t n : counts) {
            std::fprintf(stderr, "  [fleet] %s N=%zu ...\n", link.name, n);
            Cell cell;
            cell.network = link.name;
            cell.clients = n;
            cell.off =
                runFleetCell(prog, *spec, link.spec, n, false, cell_backend);
            cell.on =
                runFleetCell(prog, *spec, link.spec, n, true, cell_backend);
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
                                      cell.on.cache.coalescedPages)});
            cells.push_back(std::move(cell));
        }
        std::printf("%s\n", table.render().c_str());
    }

    // Machine-readable results for plotting / regression tracking. The
    // headline scalability numbers come from the cache-off run (the
    // PR 2 baseline); the cache_* keys quantify what the page cache
    // takes off the medium in the same cell.
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
            "\"makespan_on_s\": %.6f}%s\n",
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
            g.makespanSeconds, i + 1 < cells.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::printf("wrote BENCH_fleet.json\n");
    return 0;
}
