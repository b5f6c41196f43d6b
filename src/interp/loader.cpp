#include "interp/loader.hpp"

#include <cstring>
#include <vector>

#include "arch/endian.hpp"

namespace nol::interp {

uint64_t
ProgramImage::addressOf(const ir::GlobalVariable *gv) const
{
    auto it = globalAddr.find(gv);
    NOL_ASSERT(it != globalAddr.end(), "global %s not loaded",
               gv->name().c_str());
    return it->second;
}

uint64_t
ProgramImage::addressOf(const ir::Function *fn) const
{
    auto it = fnAddr.find(fn);
    NOL_ASSERT(it != fnAddr.end(), "function %s not loaded",
               fn->name().c_str());
    return it->second;
}

ir::Function *
ProgramImage::functionAt(uint64_t addr) const
{
    auto it = fnByAddr.find(addr);
    return it == fnByAddr.end() ? nullptr : it->second;
}

ir::DataLayout
effectiveLayout(const ir::Module &module, const sim::SimMachine &machine)
{
    if (module.unifiedAbi() != nullptr)
        return ir::DataLayout(*module.unifiedAbi());
    return ir::DataLayout(machine.spec());
}

namespace {

/** Serializes one initializer tree into machine memory. */
class InitWriter
{
  public:
    InitWriter(const ProgramImage &image, sim::SimMachine &machine,
               const ir::DataLayout &dl)
        : image_(image), machine_(machine), dl_(dl)
    {}

    void
    write(const ir::Initializer &init, const ir::Type *type, uint64_t addr)
    {
        using K = ir::Initializer::Kind;
        switch (init.kind) {
          case K::Zero:
            // Pages are zero-filled on materialization; nothing to do.
            return;
          case K::Int:
            writeScalar(addr, scalarSize(type),
                        static_cast<uint64_t>(init.intValue));
            return;
          case K::Float: {
            if (type->isFloat() &&
                static_cast<const ir::FloatType *>(type)->bits() == 32) {
                float narrowed = static_cast<float>(init.floatValue);
                uint32_t bits;
                std::memcpy(&bits, &narrowed, 4);
                writeScalar(addr, 4, bits);
            } else {
                uint64_t bits;
                std::memcpy(&bits, &init.floatValue, 8);
                writeScalar(addr, 8, bits);
            }
            return;
          }
          case K::Bytes:
            machine_.mem().write(
                addr, init.bytes.size(),
                reinterpret_cast<const uint8_t *>(init.bytes.data()));
            return;
          case K::Global:
            writeScalar(addr, dl_.spec().pointerSize,
                        image_.addressOf(init.global) +
                            static_cast<uint64_t>(init.globalOffset));
            return;
          case K::Function:
            writeScalar(addr, dl_.spec().pointerSize,
                        image_.addressOf(init.function));
            return;
          case K::Aggregate:
            writeAggregate(init, type, addr);
            return;
        }
    }

  private:
    uint32_t
    scalarSize(const ir::Type *type) const
    {
        return static_cast<uint32_t>(dl_.sizeOf(type));
    }

    void
    writeScalar(uint64_t addr, uint32_t size, uint64_t value)
    {
        uint8_t buf[8];
        arch::storeScalar(buf, size, dl_.spec().endian, value);
        machine_.mem().write(addr, size, buf);
    }

    void
    writeAggregate(const ir::Initializer &init, const ir::Type *type,
                   uint64_t addr)
    {
        if (type->isArray()) {
            const auto *arr = static_cast<const ir::ArrayType *>(type);
            uint64_t stride = dl_.sizeOf(arr->element());
            NOL_ASSERT(init.elems.size() <= arr->count(),
                       "too many array initializer elements");
            for (size_t i = 0; i < init.elems.size(); ++i)
                write(init.elems[i], arr->element(), addr + i * stride);
            return;
        }
        if (type->isStruct()) {
            const auto *st = static_cast<const ir::StructType *>(type);
            NOL_ASSERT(init.elems.size() <= st->numFields(),
                       "too many struct initializer elements");
            for (size_t i = 0; i < init.elems.size(); ++i) {
                write(init.elems[i], st->field(i).type,
                      addr + dl_.fieldOffset(st, i));
            }
            return;
        }
        panic("aggregate initializer for scalar type %s",
              type->str().c_str());
    }

    const ProgramImage &image_;
    sim::SimMachine &machine_;
    const ir::DataLayout &dl_;
};

} // namespace

uint64_t
packGlobal(uint64_t &cursor, const ir::GlobalVariable &gv,
           const ir::DataLayout &dl)
{
    uint64_t align = std::max<uint64_t>(dl.alignOf(gv.valueType()), 8);
    cursor = ir::alignUp(cursor, align);
    uint64_t addr = cursor;
    cursor += dl.sizeOf(gv.valueType());
    return addr;
}

ProgramImage
loadProgram(const ir::Module &module, sim::SimMachine &machine,
            bool write_uva_content)
{
    ProgramImage image;
    ir::DataLayout dl = effectiveLayout(module, machine);

    // Canonical function addresses by module order (mobile and server
    // clones share order, hence addresses).
    uint64_t code = kCodeBase;
    for (const auto &fn : module.functions()) {
        image.fnAddr[fn.get()] = code;
        image.fnByAddr[code] = fn.get();
        code += kCodeStride;
    }

    // Global placement: UVA region (shared) or machine-local base.
    uint64_t uva_cursor = sim::kUvaGlobalBase;
    uint64_t local_cursor = machine.globalBase();
    for (const auto &gv : module.globals()) {
        image.globalAddr[gv.get()] = packGlobal(
            gv->inUva() ? uva_cursor : local_cursor, *gv, dl);
    }

    // Serialize initializers.
    InitWriter writer(image, machine, dl);
    for (const auto &gv : module.globals()) {
        if (gv->inUva() && !write_uva_content)
            continue;
        writer.write(gv->init(), gv->valueType(),
                     image.globalAddr.at(gv.get()));
    }
    return image;
}

} // namespace nol::interp
