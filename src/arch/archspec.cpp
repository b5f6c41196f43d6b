#include "arch/archspec.hpp"

#include "support/logging.hpp"

namespace nol::arch {

uint32_t
ArchSpec::sizeOf(ScalarKind kind) const
{
    switch (kind) {
      case ScalarKind::I8: return 1;
      case ScalarKind::I16: return 2;
      case ScalarKind::I32: return 4;
      case ScalarKind::I64: return 8;
      case ScalarKind::F32: return 4;
      case ScalarKind::F64: return 8;
      case ScalarKind::Ptr: return pointerSize;
    }
    panic("unknown scalar kind %d", static_cast<int>(kind));
}

namespace {

void
setAlign(ArchSpec &spec, ScalarKind kind, uint32_t align)
{
    spec.align[static_cast<int>(kind)] = align;
}

} // namespace

ArchSpec
makeArm32()
{
    ArchSpec spec;
    spec.name = "armv7";
    spec.isa = Isa::Arm32;
    spec.endian = Endianness::Little;
    spec.pointerSize = 4;
    // ARM EABI: 64-bit types naturally aligned to 8 bytes.
    setAlign(spec, ScalarKind::I8, 1);
    setAlign(spec, ScalarKind::I16, 2);
    setAlign(spec, ScalarKind::I32, 4);
    setAlign(spec, ScalarKind::I64, 8);
    setAlign(spec, ScalarKind::F32, 4);
    setAlign(spec, ScalarKind::F64, 8);
    setAlign(spec, ScalarKind::Ptr, 4);
    // Calibrated so the paper's R ~= 5.5 performance gap holds against
    // the x86_64 server spec (Table 1).
    spec.nsPerCostUnit = 55000.0;
    return spec;
}

ArchSpec
makeX86_64()
{
    ArchSpec spec;
    spec.name = "x86_64";
    spec.isa = Isa::X86_64;
    spec.endian = Endianness::Little;
    spec.pointerSize = 8;
    // SysV AMD64: everything naturally aligned.
    setAlign(spec, ScalarKind::I8, 1);
    setAlign(spec, ScalarKind::I16, 2);
    setAlign(spec, ScalarKind::I32, 4);
    setAlign(spec, ScalarKind::I64, 8);
    setAlign(spec, ScalarKind::F32, 4);
    setAlign(spec, ScalarKind::F64, 8);
    setAlign(spec, ScalarKind::Ptr, 8);
    spec.nsPerCostUnit = 10000.0;
    spec.arithCostScale = 0.42;
    spec.memCostScale = 0.72;
    return spec;
}

ArchSpec
makeIa32()
{
    ArchSpec spec;
    spec.name = "ia32";
    spec.isa = Isa::Ia32;
    spec.endian = Endianness::Little;
    spec.pointerSize = 4;
    // The i386 SysV psABI aligns 64-bit types to only 4 bytes — the
    // layout mismatch the paper's Fig. 4 illustrates.
    setAlign(spec, ScalarKind::I8, 1);
    setAlign(spec, ScalarKind::I16, 2);
    setAlign(spec, ScalarKind::I32, 4);
    setAlign(spec, ScalarKind::I64, 4);
    setAlign(spec, ScalarKind::F32, 4);
    setAlign(spec, ScalarKind::F64, 4);
    setAlign(spec, ScalarKind::Ptr, 4);
    spec.nsPerCostUnit = 12000.0;
    spec.arithCostScale = 0.8;
    return spec;
}

ArchSpec
makeArm64()
{
    ArchSpec spec;
    spec.name = "arm64";
    spec.isa = Isa::Arm64;
    spec.endian = Endianness::Little;
    spec.pointerSize = 8;
    setAlign(spec, ScalarKind::I8, 1);
    setAlign(spec, ScalarKind::I16, 2);
    setAlign(spec, ScalarKind::I32, 4);
    setAlign(spec, ScalarKind::I64, 8);
    setAlign(spec, ScalarKind::F32, 4);
    setAlign(spec, ScalarKind::F64, 8);
    setAlign(spec, ScalarKind::Ptr, 8);
    spec.nsPerCostUnit = 20000.0;
    spec.arithCostScale = 0.7;
    return spec;
}

ArchSpec
makeMips32be()
{
    ArchSpec spec;
    spec.name = "mips32be";
    spec.isa = Isa::Mips32be;
    spec.endian = Endianness::Big;
    spec.pointerSize = 4;
    setAlign(spec, ScalarKind::I8, 1);
    setAlign(spec, ScalarKind::I16, 2);
    setAlign(spec, ScalarKind::I32, 4);
    setAlign(spec, ScalarKind::I64, 8);
    setAlign(spec, ScalarKind::F32, 4);
    setAlign(spec, ScalarKind::F64, 8);
    setAlign(spec, ScalarKind::Ptr, 4);
    spec.nsPerCostUnit = 30000.0;
    return spec;
}

} // namespace nol::arch
