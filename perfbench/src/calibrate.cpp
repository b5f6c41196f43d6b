/**
 * @file
 * The calibration loop: a fixed, tiny bytecode interpreter whose host
 * time tracks the host's current speed on dispatch-heavy code such as
 * the program's interpreter and generated C. Timing it between the
 * operations of a pass lets host-speed drift cancel out of pass_norm.
 * It lives in its own translation unit and depends on nothing in the
 * program, so no change to the program can change it.
 */
#include <array>
#include <cstdint>

#include "perfbench.hpp"

namespace perfbench {

namespace {

constexpr size_t kCodeSize = 4096;
constexpr size_t kMemWords = 4096;
constexpr long kSteps = 300000; ///< about 2.5 ms on a 2.1 GHz x86-64 core

struct Bytecode {
    std::array<uint8_t, kCodeSize> ops{};
    Bytecode()
    {
        uint64_t s = 12345;
        for (uint8_t &op : ops) {
            s = s * 6364136223846793005ull + 1;
            op = static_cast<uint8_t>((s >> 33) % 8);
        }
    }
};

volatile uint64_t g_sink;

} // namespace

double
calibrationLoop()
{
    static const Bytecode code;
    static std::array<uint64_t, kMemWords> mem{};
    double t0 = hostNow();
    uint64_t acc = 1, x = 7;
    size_t pc = 0;
    for (long i = 0; i < kSteps; ++i) {
        uint8_t op = code.ops[pc];
        pc = (pc + 1) % kCodeSize;
        switch (op) {
        case 0: acc += x; break;
        case 1: acc ^= x << 3; break;
        case 2: x = mem[acc % kMemWords]; break;
        case 3: mem[x % kMemWords] = acc; break;
        case 4:
            if (acc & 1)
                pc = (pc + 17) % kCodeSize;
            break;
        case 5: acc *= 3; break;
        case 6: x += acc >> 5; break;
        default: acc -= x; break;
        }
    }
    g_sink = acc + x;
    return hostNow() - t0;
}

} // namespace perfbench
