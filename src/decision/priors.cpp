#include "decision/priors.hpp"

namespace nol::decision {

void
FleetPriors::recordFailure(const std::string &target)
{
    ++table_[target].totalFailures;
}

const TargetPrior *
FleetPriors::lookup(const std::string &target) const
{
    auto it = table_.find(target);
    return it == table_.end() ? nullptr : &it->second;
}

} // namespace nol::decision
