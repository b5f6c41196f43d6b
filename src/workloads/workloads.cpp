#include "workloads/workloads.hpp"

#include "workloads/wl_internal.hpp"

namespace nol::workloads {

const std::vector<WorkloadSpec> &
allWorkloads()
{
    static const std::vector<WorkloadSpec> kAll = {
        detail::makeGzip(),       detail::makeVpr(),
        detail::makeMesa(),       detail::makeArt(),
        detail::makeEquake(),     detail::makeAmmp(),
        detail::makeTwolf(),      detail::makeBzip2(),
        detail::makeMcf(),        detail::makeMilc(),
        detail::makeGobmk(),      detail::makeHmmer(),
        detail::makeSjeng(),      detail::makeLibquantum(),
        detail::makeH264ref(),    detail::makeLbm(),
        detail::makeSphinx3(),
    };
    return kAll;
}

const WorkloadSpec *
workloadById(const std::string &id)
{
    for (const WorkloadSpec &spec : allWorkloads()) {
        if (spec.id == id)
            return &spec;
    }
    return nullptr;
}

core::CompileRequest
evaluationRequest(const WorkloadSpec &spec)
{
    core::CompileRequest req;
    req.name = spec.id;
    req.source = spec.source;
    req.profilingInput = spec.profilingInput;
    req.staticBandwidthMbps = 844.0 / spec.memScale;
    return req;
}

} // namespace nol::workloads
