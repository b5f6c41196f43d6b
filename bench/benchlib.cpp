#include "bench/benchlib.hpp"

#include <cmath>
#include <cstdio>

namespace nol::bench {

int
WorkloadRuns::primaryInvocations(const runtime::RunReport &report) const
{
    int count = 0;
    for (const runtime::OffloadEvent &event : report.events) {
        if (event.target == spec->expectedTarget && event.offloaded)
            ++count;
    }
    return count;
}

double
WorkloadRuns::primaryTrafficMb(const runtime::RunReport &report) const
{
    double bytes = 0;
    int count = 0;
    for (const runtime::OffloadEvent &event : report.events) {
        if (event.target == spec->expectedTarget && event.offloaded &&
            !event.ideal) {
            bytes += event.rawTrafficBytes;
            ++count;
        }
    }
    if (count == 0)
        return 0;
    return bytes * spec->memScale / (1e6 * count);
}

core::Program
compileWorkload(const workloads::WorkloadSpec &spec, bool fieldSensitive)
{
    core::CompileRequest req = workloads::evaluationRequest(spec);
    req.fieldSensitiveAnalysis = fieldSensitive;
    return core::Program::compile(req);
}

runtime::RunReport
runConfig(const core::Program &program, const workloads::WorkloadSpec &spec,
          const runtime::SystemConfig &config)
{
    return program.run(config, spec.evalInput);
}

runtime::SystemConfig
sweepConfig(const workloads::WorkloadSpec &spec)
{
    runtime::SystemConfig config; // 802.11ac by default
    config.memScale = spec.memScale;
    return config;
}

std::vector<WorkloadRuns>
runSweep()
{
    std::vector<WorkloadRuns> out;
    for (const workloads::WorkloadSpec &spec : workloads::allWorkloads()) {
        std::fprintf(stderr, "  [sweep] %s ...\n", spec.id.c_str());
        WorkloadRuns runs;
        runs.spec = &spec;
        runs.program =
            std::make_shared<core::Program>(compileWorkload(spec));

        runtime::SystemConfig local_cfg = sweepConfig(spec);
        local_cfg.forceLocal = true;
        runs.local = runConfig(*runs.program, spec, local_cfg);

        runtime::SystemConfig slow_cfg = sweepConfig(spec);
        slow_cfg.network = net::makeWifi80211n();
        runs.slow = runConfig(*runs.program, spec, slow_cfg);

        runs.fast = runConfig(*runs.program, spec, sweepConfig(spec));

        runtime::SystemConfig ideal_cfg = sweepConfig(spec);
        ideal_cfg.idealOffload = true;
        runs.ideal = runConfig(*runs.program, spec, ideal_cfg);

        out.push_back(std::move(runs));
    }
    return out;
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0;
    double log_sum = 0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

} // namespace nol::bench
