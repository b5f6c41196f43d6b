/**
 * @file
 * Extension: the layered decision stack under fleet conditions. Two
 * experiments, both reading the provenance the DecisionEngine now
 * attaches to every verdict:
 *
 * A. Fleet-shared priors. N ∈ {2, 4, 8} clients of the same workload
 *    arrive serially (each after the previous one finished). With
 *    priors off every session re-pays the cold-start offloads the
 *    fleet already paid for; with priors on the admission handshake
 *    seeds each new engine from the fleet knowledge base, so later
 *    sessions should decide warm — zero cold-start offloads past the
 *    first client.
 *
 * B. Admission-aware Equation 1. Six clients saturate a single-slot
 *    server on a comm-heavy, barely-profitable workload. Baseline
 *    clients discover contention by queueing into the 5 s admission
 *    timeout (denial, then local fallback — the wait was pure waste).
 *    With the queue-wait term enabled, a predicted E[wait] erases the
 *    borderline gain and those clients go local immediately: the
 *    denial count must strictly drop.
 *
 * Results land in BENCH_decision.json next to the tables.
 */
#include <cstdio>
#include <string>
#include <vector>

#include "bench/benchlib.hpp"
#include "support/strings.hpp"

using namespace nol;
using namespace nol::bench;

namespace {

/**
 * Comm-heavy workload for experiment B (mirrors test_decision): every
 * call rewrites the whole heap, so on a distant LTE cloud the transfer
 * cost is a big slice of each call's gain and a predicted queue wait
 * can erase it.
 */
const char *kWaveSrc = R"(
double* data;
int N;

double wave(int rounds) {
    double acc = 0.0;
    for (int r = 0; r < rounds; r++) {
        for (int i = 0; i < N; i++) {
            data[i] = data[i] * 1.0001 + 0.25;
            acc += data[i];
        }
    }
    return acc;
}

int main() {
    int rounds;
    int calls;
    scanf("%d %d %d", &N, &rounds, &calls);
    data = (double*)malloc(sizeof(double) * N);
    for (int i = 0; i < N; i++) data[i] = (double)i;
    double total = 0.0;
    for (int k = 0; k < calls; k++) {
        total += wave(rounds);
        printf("wave %d done\n", k);
    }
    printf("total=%.3f\n", total);
    return ((int)total) % 89;
}
)";

std::vector<runtime::FleetClient>
staggeredClients(size_t n, const runtime::SystemConfig &cfg,
                 const runtime::RunInput &input, double gap_seconds)
{
    std::vector<runtime::FleetClient> clients;
    for (size_t i = 0; i < n; ++i) {
        runtime::FleetClient client;
        client.name = "client-" + std::to_string(i);
        client.config = cfg;
        client.input = input;
        client.startSeconds = static_cast<double>(i) * gap_seconds;
        clients.push_back(std::move(client));
    }
    return clients;
}

struct PriorsCell {
    size_t clients = 0;
    runtime::FleetReport off;
    runtime::FleetReport on;
    uint64_t lateColdStartsOn = 0; ///< cold starts of sessions 2..N
};

uint64_t
lateColdStarts(const runtime::FleetReport &fleet)
{
    uint64_t total = 0;
    for (size_t i = 1; i < fleet.clients.size(); ++i)
        total += fleet.clients[i].report.coldStartOffloads;
    return total;
}

} // namespace

int
main()
{
    std::printf("=== Extension: layered decision stack — fleet priors "
                "and admission-aware Eq. 1 ===\n\n");

    // ---------------------------------------------------------------
    // Experiment A: cold-start offloads saved by fleet-shared priors.
    // ---------------------------------------------------------------
    const std::string workload_id = "179.art";
    const workloads::WorkloadSpec *spec = workloads::workloadById(workload_id);
    NOL_ASSERT(spec != nullptr, "unknown workload");
    core::Program prog = compileWorkload(*spec);

    runtime::SystemConfig base_cfg;
    base_cfg.network = net::makeWifi80211ac();
    base_cfg.memScale = spec->memScale;

    const runtime::RunInput &input = spec->evalInput;

    std::fprintf(stderr, "  [decision] solo reference run ...\n");
    runtime::RunReport solo = prog.run(base_cfg, input);
    // Serial arrivals: each client starts well after the previous one
    // finished, so the only cross-session channel is the priors table.
    double gap = solo.mobileSeconds * 2.0;

    std::printf("workload %s on %s, serial arrivals (gap %.1fs)\n",
                workload_id.c_str(), base_cfg.network.name.c_str(), gap);
    TextTable priors_table;
    priors_table.header({"Clients", "cold offloads (off)",
                         "cold offloads (on)", "late cold (on)", "saved",
                         "seeded sessions", "seeded targets"});

    std::vector<PriorsCell> priors_cells;
    for (size_t n : {size_t(2), size_t(4), size_t(8)}) {
        std::fprintf(stderr, "  [decision] priors N=%zu ...\n", n);
        PriorsCell cell;
        cell.clients = n;
        for (bool priors_on : {false, true}) {
            runtime::SystemConfig cfg = base_cfg;
            cfg.fleetPriorsEnabled = priors_on;
            runtime::AdmissionConfig policy;
            policy.maxQueueWaitSeconds = 1e9; // serial: never exercised
            runtime::FleetReport fleet =
                prog.runFleet(staggeredClients(n, cfg, input, gap), policy);
            (priors_on ? cell.on : cell.off) = std::move(fleet);
        }
        cell.lateColdStartsOn = lateColdStarts(cell.on);
        priors_table.row(
            {std::to_string(n),
             std::to_string(cell.off.totalColdStartOffloads),
             std::to_string(cell.on.totalColdStartOffloads),
             std::to_string(cell.lateColdStartsOn),
             std::to_string(cell.off.totalColdStartOffloads -
                            cell.on.totalColdStartOffloads),
             std::to_string(cell.on.priorsSeededSessions),
             std::to_string(cell.on.priorsSeededTargets)});
        priors_cells.push_back(std::move(cell));
    }
    std::printf("%s\n", priors_table.render().c_str());

    // ---------------------------------------------------------------
    // Experiment B: denial rate with/without the queue-wait term.
    // ---------------------------------------------------------------
    std::fprintf(stderr, "  [decision] admission-aware sweep ...\n");
    core::CompileRequest wave_req;
    wave_req.name = "wave";
    wave_req.source = kWaveSrc;
    wave_req.profilingInput.stdinText = "6000 1 2";
    core::Program wave = core::Program::compile(wave_req);

    runtime::SystemConfig wave_cfg;
    wave_cfg.network = net::makeLteCloud();
    wave_cfg.memScale = 128.0;
    runtime::RunInput wave_input;
    wave_input.stdinText = "20000 1 5";

    const size_t wave_clients = 6;
    runtime::FleetReport aware_off;
    runtime::FleetReport aware_on;
    for (bool aware : {false, true}) {
        runtime::SystemConfig cfg = wave_cfg;
        cfg.admissionAwareDecision = aware;
        runtime::AdmissionConfig policy;
        policy.maxConcurrentSessions = 1; // saturated slot pool
        runtime::FleetReport fleet = wave.runFleet(
            staggeredClients(wave_clients, cfg, wave_input, 2.0), policy);
        (aware ? aware_on : aware_off) = std::move(fleet);
    }

    auto denial_rate = [](const runtime::FleetReport &fleet) {
        uint64_t attempts = fleet.totalOffloads + fleet.admissionDenials;
        if (attempts == 0)
            return 0.0;
        return static_cast<double>(fleet.admissionDenials) /
               static_cast<double>(attempts);
    };

    std::printf("wave on %s, %zu clients, slot pool 1\n",
                wave_cfg.network.name.c_str(), wave_clients);
    TextTable admission_table;
    admission_table.header({"Queue-wait term", "offloads", "denied",
                            "denial rate", "queue-avoided locals",
                            "p50 latency", "p99 latency", "makespan"});
    for (const runtime::FleetReport *fleet : {&aware_off, &aware_on}) {
        LatencySummary lat = fleetLatencySummary(*fleet);
        admission_table.row(
            {fleet == &aware_off ? "off" : "on",
             std::to_string(fleet->totalOffloads),
             std::to_string(fleet->admissionDenials),
             fixed(denial_rate(*fleet) * 100.0, 1) + "%",
             std::to_string(fleet->totalQueueAvoidedLocals),
             fixed(lat.p50, 3) + "s", fixed(lat.p99, 3) + "s",
             fixed(fleet->makespanSeconds, 3) + "s"});
    }
    std::printf("%s\n", admission_table.render().c_str());

    if (aware_on.admissionDenials < aware_off.admissionDenials)
        std::printf("admission-aware decisions cut denials %llu -> %llu\n",
                    (unsigned long long)aware_off.admissionDenials,
                    (unsigned long long)aware_on.admissionDenials);
    else
        std::printf("WARNING: admission-aware run did not reduce "
                    "denials\n");

    // Machine-readable results for regression tracking.
    FILE *json = std::fopen("BENCH_decision.json", "w");
    NOL_ASSERT(json != nullptr, "cannot write BENCH_decision.json");
    std::fprintf(json, "{\n  \"workload\": \"%s\",\n  \"priors\": [\n",
                 workload_id.c_str());
    for (size_t i = 0; i < priors_cells.size(); ++i) {
        const PriorsCell &cell = priors_cells[i];
        std::fprintf(
            json,
            "    {\"clients\": %zu, \"cold_start_offloads_off\": %llu, "
            "\"cold_start_offloads_on\": %llu, "
            "\"late_session_cold_starts_on\": %llu, "
            "\"cold_starts_saved\": %llu, \"seeded_sessions\": %llu, "
            "\"seeded_targets\": %llu, \"total_offloads_off\": %llu, "
            "\"total_offloads_on\": %llu}%s\n",
            cell.clients,
            (unsigned long long)cell.off.totalColdStartOffloads,
            (unsigned long long)cell.on.totalColdStartOffloads,
            (unsigned long long)cell.lateColdStartsOn,
            (unsigned long long)(cell.off.totalColdStartOffloads -
                                 cell.on.totalColdStartOffloads),
            (unsigned long long)cell.on.priorsSeededSessions,
            (unsigned long long)cell.on.priorsSeededTargets,
            (unsigned long long)cell.off.totalOffloads,
            (unsigned long long)cell.on.totalOffloads,
            i + 1 < priors_cells.size() ? "," : "");
    }
    std::fprintf(
        json,
        "  ],\n  \"admission\": {\"clients\": %zu, \"slot_pool\": 1, "
        "\"denials_off\": %llu, \"denials_on\": %llu, "
        "\"denial_rate_off\": %.6f, \"denial_rate_on\": %.6f, "
        "\"queue_avoided_locals_on\": %llu, \"offloads_off\": %llu, "
        "\"offloads_on\": %llu, \"latency_p99_off_s\": %.6f, "
        "\"latency_p99_on_s\": %.6f, \"makespan_off_s\": %.6f, "
        "\"makespan_on_s\": %.6f}\n}\n",
        wave_clients, (unsigned long long)aware_off.admissionDenials,
        (unsigned long long)aware_on.admissionDenials,
        denial_rate(aware_off), denial_rate(aware_on),
        (unsigned long long)aware_on.totalQueueAvoidedLocals,
        (unsigned long long)aware_off.totalOffloads,
        (unsigned long long)aware_on.totalOffloads,
        fleetLatencySummary(aware_off).p99,
        fleetLatencySummary(aware_on).p99,
        aware_off.makespanSeconds, aware_on.makespanSeconds);
    std::fclose(json);
    std::printf("wrote BENCH_decision.json\n");
    return 0;
}
