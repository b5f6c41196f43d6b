#include "interp/execbackend.hpp"

#include <cstring>

#include "arch/endian.hpp"
#include "frontend/builtins.hpp"
#include "interp/guestops.h"
#include "sim/costmodel.hpp"

namespace nol::interp {

ExecBackend::ExecBackend(sim::SimMachine &machine, const ir::Module &module,
                         const ProgramImage &image, ExecEnv &env)
    : machine_(machine), module_(module), image_(image), env_(env),
      dl_(effectiveLayout(module, machine))
{
}

const char *
backendKindName(BackendKind kind)
{
    switch (kind) {
      case BackendKind::Interpreter: return "interp";
      case BackendKind::NativeC: return "native-c";
    }
    return "?";
}

bool
parseBackendKind(const char *name, BackendKind *out)
{
    std::string s = name == nullptr ? "" : name;
    if (s == "interp" || s == "interpreter") {
        *out = BackendKind::Interpreter;
    } else if (s == "native" || s == "native-c" || s == "nativec") {
        *out = BackendKind::NativeC;
    } else {
        return false;
    }
    return true;
}

void
ExecBackend::chargeExternalCall(const ir::Function &callee)
{
    frontend::BuiltinName found = frontend::lookupBuiltin(callee.name());
    uint64_t cost = kUnlistedCallCost;
    if (found.row != nullptr && found.twin == frontend::Twin::None) {
        cost = sim::scaledCost(found.row->cost,
                               found.row->arith ? sim::CostKind::Arith
                                                : sim::CostKind::Plain,
                               machine_.spec());
    }
    machine_.advanceCompute(cost);
}

void
ExecBackend::raiseTrap(uint32_t kind, const char *fn_name)
{
    switch (kind) {
      case NOL_TRAP_DIV_ZERO:
        fatal("guest division by zero");
      case NOL_TRAP_REM_ZERO:
        fatal("guest remainder by zero");
      case NOL_TRAP_STACK_OVERFLOW:
        fatal("guest stack overflow in %s", fn_name);
      default:
        panic("guest reached 'unreachable' in %s", fn_name);
    }
}

std::string
ExecBackend::readCString(uint64_t addr)
{
    std::string out;
    constexpr uint64_t kLimit = 1 << 20;
    while (out.size() < kLimit) {
        uint8_t c;
        machine_.mem().read(addr + out.size(), 1, &c);
        if (c == 0)
            return out;
        out.push_back(static_cast<char>(c));
    }
    panic("unterminated guest string at 0x%llx",
          static_cast<unsigned long long>(addr));
}

void
ExecBackend::readBytes(uint64_t addr, uint64_t size, uint8_t *out)
{
    machine_.mem().read(addr, size, out);
}

void
ExecBackend::writeBytes(uint64_t addr, uint64_t size, const uint8_t *src)
{
    machine_.mem().write(addr, size, src);
}

} // namespace nol::interp
