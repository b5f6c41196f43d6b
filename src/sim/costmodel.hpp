/**
 * @file
 * Abstract instruction cost model. Every IR instruction costs a small
 * number of "cost units"; a machine's ArchSpec converts units to
 * simulated nanoseconds (the mobile spec converts ~5.5x slower than the
 * server spec, matching the paper's Table 1 performance gap). Builtin
 * calls take their base costs from the builtin table
 * (frontend/builtins.hpp) and are charged through the same rule.
 *
 * The charge rule (scaledCost) is defined here once. Each SimMachine
 * prices it into one table, by chargeSlot(), that the interpreter, the
 * native-C charge replay and the generated C all read, which is what
 * keeps the two backends' simulated time bit-identical.
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

/** The charge table's shape: slot kind * kCostSlots + cost, for each
 *  CostKind and the base costs 1 .. kCostSlots - 1. */
constexpr uint32_t kCostKinds = 3;
constexpr uint32_t kCostSlots = 17;

/** The charge-table slot of one execution of @p op. */
constexpr uint32_t
chargeSlot(ir::Opcode op)
{
    return static_cast<uint32_t>(costKind(op)) * kCostSlots +
           static_cast<uint32_t>(opcodeCost(op));
}

/**
 * The charge rule: cost units of one occurrence of an instruction of
 * base @p cost and @p kind on @p spec. A scaled cost rounds down but
 * never below one unit. SimMachine prices its charge table with it.
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
