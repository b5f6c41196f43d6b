/**
 * @file
 * Demonstrates the runtime's dynamic performance estimation (paper
 * Sec. 4): the same compiled binary is executed while the network
 * degrades from 802.11ac down to a congested trickle. The dynamic
 * estimator re-evaluates Equation 1 at every offload-enabled call and
 * falls back to local execution once the link cannot pay for itself —
 * execution time stays pinned near the local baseline instead of
 * collapsing.
 *
 * Build & run:  cmake --build build && ./build/examples/adaptive_network
 */
#include <cstdio>

#include "core/nativeoffloader.hpp"
#include "support/strings.hpp"
#include "workloads/workloads.hpp"

using namespace nol;

int
main()
{
    std::printf("Dynamic offload decisions under a degrading network\n");
    std::printf("===================================================\n\n");

    // gzip-style compression: lots of traffic per second of compute —
    // the paper's own example of a program the estimator refuses on a
    // slow link (the Fig. 6 '*').
    const workloads::WorkloadSpec *spec =
        workloads::workloadById("164.gzip");

    core::Program program =
        core::Program::compile(workloads::evaluationRequest(*spec));
    const runtime::RunInput &input = spec->evalInput;

    runtime::SystemConfig local_cfg;
    local_cfg.forceLocal = true;
    local_cfg.memScale = spec->memScale;
    runtime::RunReport local = program.run(local_cfg, input);
    std::printf("local baseline: %.1f s\n\n", local.mobileSeconds);

    TextTable table;
    table.header({"Link", "Decision", "Time (s)", "vs local"});
    struct Link {
        const char *name;
        double mbps;
    };
    for (const Link &link : {Link{"802.11ac (844 Mbps)", 844},
                             Link{"802.11n (144 Mbps)", 144},
                             Link{"congested (40 Mbps)", 40},
                             Link{"tethered 3G (8 Mbps)", 8}}) {
        runtime::SystemConfig cfg;
        cfg.network = net::makeWifi80211ac();
        cfg.network.name = link.name;
        cfg.network.bandwidthMbps = link.mbps;
        cfg.memScale = spec->memScale;
        runtime::RunReport report = program.run(cfg, input);
        table.row({link.name,
                   report.offloads > 0 ? "OFFLOAD" : "stay local",
                   fixed(report.mobileSeconds, 1),
                   fixed(report.mobileSeconds / local.mobileSeconds, 2) +
                       "x"});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("Below the crossover the estimator keeps the task on the\n"
                "device — never worse than local, exactly the paper's\n"
                "\"avoid offloading under unfavorable situation\".\n");
    return 0;
}
