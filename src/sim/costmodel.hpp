/**
 * @file
 * Abstract instruction cost model. Every IR instruction costs a small
 * number of "cost units"; a machine's ArchSpec converts units to
 * simulated nanoseconds (the mobile spec converts ~5.5x slower than the
 * server spec, matching the paper's Table 1 performance gap). Builtin
 * calls take their base costs from the builtin table
 * (frontend/builtins.hpp) and are charged through the same rule.
 *
 * The charge rule (scaledCost) is defined here once: the interpreter,
 * the native-C backend's charge replay and the C emitter's charge
 * tables all take it from this header, which is what keeps the two
 * backends' simulated time bit-identical.
 */
#ifndef NOL_SIM_COSTMODEL_HPP
#define NOL_SIM_COSTMODEL_HPP

#include <algorithm>
#include <cstdint>

#include "arch/archspec.hpp"
#include "ir/instruction.hpp"

namespace nol::sim {

/** Cost units of one execution of @p op. */
constexpr uint64_t
opcodeCost(ir::Opcode op)
{
    using ir::Opcode;
    switch (op) {
      case Opcode::Load:
      case Opcode::Store:
        return 3;
      case Opcode::SDiv:
      case Opcode::UDiv:
      case Opcode::SRem:
      case Opcode::URem:
        return 12;
      case Opcode::FDiv:
        return 16;
      case Opcode::Mul:
      case Opcode::FMul:
        return 3;
      case Opcode::FAdd:
      case Opcode::FSub:
        return 2;
      case Opcode::Call:
      case Opcode::CallIndirect:
        return 6;
      case Opcode::Alloca:
        return 1;
      default:
        return 1;
    }
}

/**
 * Which ArchSpec scale an instruction's cost is subject to. The values
 * are the `kind` the generated C's charge tables carry.
 */
enum class CostKind : uint32_t {
    Plain = 0, ///< unscaled
    Arith = 1, ///< scaled by ArchSpec::arithCostScale
    Mem = 2,   ///< scaled by ArchSpec::memCostScale
};

/** The scale @p op's cost is subject to. */
constexpr CostKind
costKind(ir::Opcode op)
{
    using ir::Opcode;
    switch (op) {
      case Opcode::Mul:
      case Opcode::SDiv:
      case Opcode::UDiv:
      case Opcode::SRem:
      case Opcode::URem:
      case Opcode::FAdd:
      case Opcode::FSub:
      case Opcode::FMul:
      case Opcode::FDiv:
        return CostKind::Arith;
      case Opcode::Load:
      case Opcode::Store:
        return CostKind::Mem;
      default:
        return CostKind::Plain;
    }
}

/**
 * The charge rule: cost units of one occurrence of an instruction of
 * base @p cost and @p kind on @p spec. A scaled cost rounds down but
 * never below one unit. Both execution backends charge through here,
 * the interpreter once per instruction, so it stays inline.
 */
inline uint64_t
scaledCost(uint64_t cost, CostKind kind, const arch::ArchSpec &spec)
{
    double scale = 1.0;
    if (kind == CostKind::Arith)
        scale = spec.arithCostScale;
    else if (kind == CostKind::Mem)
        scale = spec.memCostScale;
    if (scale != 1.0) {
        cost = std::max<uint64_t>(
            1, static_cast<uint64_t>(static_cast<double>(cost) * scale));
    }
    return cost;
}

} // namespace nol::sim

#endif // NOL_SIM_COSTMODEL_HPP
