#include "frontend/builtins.hpp"

#include <unordered_map>
#include <vector>

namespace nol::frontend {

const char *const kSizeofIntrinsic = "nol.sizeof";
const char *const kRemoteIoPrefix = "r_";

namespace {

constexpr IoClass kPure = IoClass::None;
constexpr IoClass kOut = IoClass::RemoteOutput;
constexpr IoClass kIn = IoClass::RemoteInput;
constexpr IoClass kUser = IoClass::Interactive;
constexpr IoClass kSys = IoClass::System;
constexpr PtrEffect kOpaque = PtrEffect::None;
constexpr PtrEffect kAlloc = PtrEffect::Allocates;
constexpr PtrEffect kRet0 = PtrEffect::ReturnsArg0;
constexpr PtrEffect kCopy = PtrEffect::CopiesArg1;

// name, signature, cost, arith, I/O class, pointer effect, u_* twin
const Builtin kBuiltins[] = {
    // Allocation
    {"malloc", "pl", 50, false, kPure, kAlloc, "u_malloc"},
    {"calloc", "pll", 60, false, kPure, kAlloc, "u_calloc"},
    {"realloc", "ppl", 60, false, kPure, PtrEffect::Reallocates,
     "u_realloc"},
    {"free", "vp", 30, false, kPure, kOpaque, "u_free"},
    // Formatted and character I/O
    {"printf", "is+", 90, false, kOut, kOpaque, nullptr},
    {"scanf", "is+", 120, false, kUser, kOpaque, nullptr},
    {"puts", "is", 40, false, kOut, kOpaque, nullptr},
    {"putchar", "ii", 10, false, kOut, kOpaque, nullptr},
    {"getchar", "i", 10, false, kUser, kOpaque, nullptr},
    // File streams (FILE* modeled as void*)
    {"fopen", "pss", 200, false, kIn, kOpaque, nullptr},
    {"fclose", "ip", 120, false, kIn, kOpaque, nullptr},
    {"fread", "lpllp", 60, false, kIn, kOpaque, nullptr},
    {"fwrite", "lpllp", 60, false, kOut, kOpaque, nullptr},
    {"fgetc", "ip", 8, false, kIn, kOpaque, nullptr},
    {"fputc", "iip", 8, false, kOut, kOpaque, nullptr},
    {"feof", "ip", 4, false, kIn, kOpaque, nullptr},
    {"fseek", "ipli", 30, false, kIn, kOpaque, nullptr},
    {"ftell", "lp", 6, false, kIn, kOpaque, nullptr},
    // Math library (arith-scaled)
    {"sqrt", "dd", 18, true, kPure, kOpaque, nullptr},
    {"sin", "dd", 30, true, kPure, kOpaque, nullptr},
    {"cos", "dd", 30, true, kPure, kOpaque, nullptr},
    {"tan", "dd", 35, true, kPure, kOpaque, nullptr},
    {"exp", "dd", 30, true, kPure, kOpaque, nullptr},
    {"log", "dd", 30, true, kPure, kOpaque, nullptr},
    {"pow", "ddd", 45, true, kPure, kOpaque, nullptr},
    {"fabs", "dd", 2, true, kPure, kOpaque, nullptr},
    {"floor", "dd", 4, true, kPure, kOpaque, nullptr},
    {"ceil", "dd", 4, true, kPure, kOpaque, nullptr},
    {"fmod", "ddd", 20, true, kPure, kOpaque, nullptr},
    {"abs", "ii", 2, false, kPure, kOpaque, nullptr},
    {"labs", "ll", 2, false, kPure, kOpaque, nullptr},
    // Strings and memory
    {"strlen", "ls", 10, false, kPure, kOpaque, nullptr},
    {"strcpy", "sss", 12, false, kPure, kRet0, nullptr},
    {"strncpy", "sssl", 12, false, kPure, kRet0, nullptr},
    {"strcmp", "iss", 10, false, kPure, kOpaque, nullptr},
    {"strncmp", "issl", 10, false, kPure, kOpaque, nullptr},
    {"strcat", "sss", 14, false, kPure, kRet0, nullptr},
    {"memcpy", "pppl", 16, false, kPure, kCopy, nullptr},
    {"memmove", "pppl", 18, false, kPure, kCopy, nullptr},
    {"memset", "ppil", 12, false, kPure, kRet0, nullptr},
    {"memcmp", "ippl", 12, false, kPure, kOpaque, nullptr},
    {"atoi", "is", 20, false, kPure, kOpaque, nullptr},
    {"atof", "ds", 30, false, kPure, kOpaque, nullptr},
    // Process / misc
    {"exit", "vi", 10, false, kSys, kOpaque, nullptr},
    {"rand", "i", 12, false, kPure, kOpaque, nullptr},
    {"srand", "vi", 4, false, kPure, kOpaque, nullptr},
    // Internal intrinsics
    {"nol.sizeof", "l", 0, false, kPure, kOpaque, nullptr},
    {"__machine_asm", "vs", 1, false, IoClass::Assembly, kOpaque, nullptr},
    {"__syscall", "li+", 150, false, kSys, kOpaque, nullptr},
};

/** Every name the table answers for: builtins and their twins. */
const std::unordered_map<std::string, BuiltinName> &
index()
{
    static const std::unordered_map<std::string, BuiltinName> names = [] {
        std::unordered_map<std::string, BuiltinName> out;
        for (const Builtin &row : kBuiltins) {
            out.emplace(row.name, BuiltinName{&row, Twin::None});
            if (row.uvaTwin != nullptr)
                out.emplace(row.uvaTwin, BuiltinName{&row, Twin::Uva});
            if (row.remoteIo())
                out.emplace(row.remoteTwin(),
                            BuiltinName{&row, Twin::Remote});
        }
        return out;
    }();
    return names;
}

} // namespace

std::string
Builtin::remoteTwin() const
{
    return std::string(kRemoteIoPrefix) + name;
}

BuiltinName
lookupBuiltin(const std::string &name)
{
    auto it = index().find(name);
    return it == index().end() ? BuiltinName{} : it->second;
}

const Builtin *
findBuiltin(const std::string &name)
{
    BuiltinName found = lookupBuiltin(name);
    return found.twin == Twin::None ? found.row : nullptr;
}

ir::Function *
declareBuiltin(ir::Module &module, const std::string &name)
{
    if (ir::Function *existing = module.functionByName(name))
        return existing;

    const Builtin *row = findBuiltin(name);
    NOL_ASSERT(row != nullptr, "unknown builtin %s", name.c_str());

    ir::TypeContext &types = module.types();
    auto decode = [&](char c) -> const ir::Type * {
        switch (c) {
          case 'v': return types.voidTy();
          case 'b': return types.i8();
          case 'h': return types.i16();
          case 'i': return types.i32();
          case 'l': return types.i64();
          case 'f': return types.f32();
          case 'd': return types.f64();
          case 'p': return types.pointerTo(types.i8());
          case 's': return types.pointerTo(types.i8());
          default: panic("bad builtin signature char '%c'", c);
        }
    };

    const char *sig = row->sig;
    const ir::Type *ret = decode(sig[0]);
    std::vector<const ir::Type *> params;
    bool variadic = false;
    for (const char *c = sig + 1; *c != '\0'; ++c) {
        if (*c == '+') {
            variadic = true;
            break;
        }
        params.push_back(decode(*c));
    }
    const ir::FunctionType *fn_type =
        types.functionTy(ret, std::move(params), variadic);
    ir::Function *fn = module.createFunction(name, fn_type, /*external=*/true);
    fn->materializeArgs();
    return fn;
}

ir::Function *
declareTwin(ir::Module &module, const std::string &name,
            const ir::Function *like)
{
    if (ir::Function *existing = module.functionByName(name))
        return existing;
    ir::Function *fn =
        module.createFunction(name, like->functionType(), /*external=*/true);
    fn->materializeArgs();
    return fn;
}

} // namespace nol::frontend
