#include "sim/simmachine.hpp"

namespace nol::sim {

SimMachine::SimMachine(MachineRole role, arch::ArchSpec spec)
    : role_(role),
      spec_(std::move(spec)),
      mem_(/*auto_zero=*/true),
      native_heap_(role == MachineRole::Mobile || spec_.pointerSize == 4
                       ? kNativeHeapBase
                       : kServer64HeapBase,
                   kNativeHeapSize)
{
    priceCharges();
}

void
SimMachine::priceCharges()
{
    double mw = power_.rate(compute_state_);
    for (uint32_t kind = 0; kind < kCostKinds; ++kind) {
        for (uint64_t cost = 1; cost < kCostSlots; ++cost) {
            // advanceCompute's operands, computed as it does.
            Charge &c = charges_[kind * kCostSlots + cost];
            c.units = scaledCost(cost, static_cast<CostKind>(kind), spec_);
            c.ns = static_cast<double>(c.units) * spec_.nsPerCostUnit;
            c.energy = mw * c.ns * 1e-9;
        }
    }
}

void
SimMachine::reset()
{
    mem_.clear();
    native_heap_.reset();
    now_ns_ = 0;
    compute_units_ = 0;
    power_.reset();
    console_.clear();
    input_pos_ = 0;
}

} // namespace nol::sim
