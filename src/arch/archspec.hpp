/**
 * @file
 * Architecture description used by the whole framework. An ArchSpec
 * captures exactly the properties the paper's memory unification cares
 * about — pointer size, endianness and primitive alignment rules — plus
 * the timing parameters the performance model needs (relative speed).
 *
 * Native Offloader compiles one IR module into two "binaries", one per
 * ArchSpec; the interpreter then executes each binary under its spec's
 * memory semantics.
 */
#ifndef NOL_ARCH_ARCHSPEC_HPP
#define NOL_ARCH_ARCHSPEC_HPP

#include <cstdint>
#include <string>

namespace nol::arch {

/** Instruction-set families the framework models. */
enum class Isa {
    Arm32,   ///< 32-bit ARMv7 (the paper's Galaxy S5 mobile side)
    Arm64,   ///< 64-bit ARMv8
    Ia32,    ///< 32-bit x86 (used to exercise layout differences, Fig. 4)
    X86_64,  ///< 64-bit x86 (the paper's Dell XPS 8700 server side)
    Mips32be ///< big-endian 32-bit MIPS (exercises endianness translation)
};

/** Byte order of a machine. */
enum class Endianness {
    Little,
    Big,
};

/** Primitive storage classes with per-architecture alignment. */
enum class ScalarKind {
    I8,
    I16,
    I32,
    I64,
    F32,
    F64,
    Ptr,
};

/** Number of distinct ScalarKind values. */
constexpr int kNumScalarKinds = 7;

/**
 * Complete description of one target machine's ABI-visible properties
 * and coarse performance characteristics.
 */
struct ArchSpec {
    std::string name;                ///< human-readable name, e.g. "armv7"
    Isa isa = Isa::Arm32;            ///< instruction-set family
    Endianness endian = Endianness::Little; ///< byte order
    uint32_t pointerSize = 4;        ///< bytes per pointer (4 or 8)

    /** Alignment in bytes for each ScalarKind, indexed by its enum value. */
    uint32_t align[kNumScalarKinds] = {1, 2, 4, 8, 4, 8, 4};

    /**
     * Nanoseconds of simulated time per abstract instruction cost unit.
     * The paper measures the server to be roughly 5–5.9x faster than the
     * smartphone (Table 1); the factory specs encode that ratio.
     */
    double nsPerCostUnit = 1.0;

    /**
     * Multiplier on the cost of arithmetic-heavy operations (multiply,
     * divide, floating point, math library calls). The i7-class server
     * out-runs the Krait's FPU by much more than the ~5.5x baseline
     * gap, which is why the paper's SPEC fp programs approach ideal
     * speedups above the chess-derived ratio.
     */
    double arithCostScale = 1.0;

    /**
     * Multiplier on memory-access (load/store) costs: the server's
     * desktop memory system outpaces the phone's LPDDR beyond the
     * baseline clock ratio.
     */
    double memCostScale = 1.0;

    /** Alignment of @p kind on this architecture. */
    uint32_t
    alignOf(ScalarKind kind) const
    {
        return align[static_cast<int>(kind)];
    }

    /** Storage size in bytes of @p kind on this architecture. */
    uint32_t sizeOf(ScalarKind kind) const;

    /** True if this machine uses 64-bit pointers. */
    bool is64Bit() const { return pointerSize == 8; }

    /** Maximum representable address (2^32-1 or 2^64-1). */
    uint64_t
    addressMask() const
    {
        return is64Bit() ? ~0ull : 0xffff'ffffull;
    }
};

/** The paper's mobile device: 32-bit little-endian ARMv7 (Galaxy S5). */
ArchSpec makeArm32();

/** The paper's server: 64-bit little-endian x86 (i7-4790). */
ArchSpec makeX86_64();

/** 32-bit x86 with 4-byte double alignment (Fig. 4's IA32 layout). */
ArchSpec makeIa32();

/** 64-bit ARMv8, for alternate server configurations. */
ArchSpec makeArm64();

/** Big-endian 32-bit MIPS, for endianness-translation tests. */
ArchSpec makeMips32be();

} // namespace nol::arch

#endif // NOL_ARCH_ARCHSPEC_HPP
