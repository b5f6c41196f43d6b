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
