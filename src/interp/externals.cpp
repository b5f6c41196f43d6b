#include "interp/externals.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "frontend/builtins.hpp"

namespace nol::interp {

namespace {

/** Charge @p bytes of data movement to the machine. */
void
chargeBytes(ExecBackend &interp, uint64_t bytes)
{
    interp.machine().advanceCompute(frontend::perByteCost(bytes));
}

} // namespace

uint64_t
DefaultEnv::guestMalloc(ExecBackend &interp, uint64_t size, bool uva)
{
    sim::HeapAllocator *heap =
        uva ? uva_heap_ : &interp.machine().nativeHeap();
    NOL_ASSERT(heap != nullptr, "u_malloc with no UVA heap configured");
    uint64_t addr = heap->allocate(size);
    if (addr == 0)
        fatal("guest out of memory allocating %llu bytes",
              static_cast<unsigned long long>(size));
    return addr;
}

void
DefaultEnv::guestFree(ExecBackend &interp, uint64_t addr, bool uva)
{
    if (addr == 0)
        return;
    sim::HeapAllocator *heap =
        uva ? uva_heap_ : &interp.machine().nativeHeap();
    NOL_ASSERT(heap != nullptr, "u_free with no UVA heap configured");
    if (!heap->contains(addr) || heap->blockSize(addr) == 0) {
        // A block allocated by the peer machine's UVA sub-heap: leak it
        // (documented limitation of the split UVA allocator).
        return;
    }
    heap->release(addr);
}

std::string
DefaultEnv::formatPrintf(ExecBackend &interp, const std::string &fmt,
                         const std::vector<RtVal> &args, size_t first_arg)
{
    std::string out;
    size_t arg_idx = first_arg;
    auto next_arg = [&]() -> const RtVal & {
        static RtVal zero;
        if (arg_idx >= args.size()) {
            warn("printf: missing argument for format \"%s\"", fmt.c_str());
            return zero;
        }
        return args[arg_idx++];
    };

    for (size_t i = 0; i < fmt.size(); ++i) {
        char c = fmt[i];
        if (c != '%') {
            out.push_back(c);
            continue;
        }
        // Collect the directive: %[flags][width][.prec][length]conv
        std::string spec = "%";
        ++i;
        while (i < fmt.size() &&
               (std::strchr("-+ #0", fmt[i]) != nullptr ||
                std::isdigit(static_cast<unsigned char>(fmt[i])) ||
                fmt[i] == '.')) {
            spec += fmt[i++];
        }
        int longs = 0;
        while (i < fmt.size() && (fmt[i] == 'l' || fmt[i] == 'h')) {
            longs += fmt[i] == 'l';
            ++i;
        }
        if (i >= fmt.size())
            break;
        char conv = fmt[i];
        char buf[256];
        switch (conv) {
          case '%':
            out.push_back('%');
            break;
          case 'd':
          case 'i': {
            spec += "lld";
            std::snprintf(buf, sizeof(buf), spec.c_str(),
                          static_cast<long long>(next_arg().i));
            out += buf;
            break;
          }
          case 'u':
          case 'x':
          case 'X':
          case 'o': {
            spec += "ll";
            spec += conv;
            uint64_t v = static_cast<uint64_t>(next_arg().i);
            if (longs == 0)
                v &= 0xffffffffull;
            std::snprintf(buf, sizeof(buf), spec.c_str(),
                          static_cast<unsigned long long>(v));
            out += buf;
            break;
          }
          case 'c': {
            spec += 'c';
            std::snprintf(buf, sizeof(buf), spec.c_str(),
                          static_cast<int>(next_arg().i));
            out += buf;
            break;
          }
          case 's': {
            std::string s = interp.readCString(next_arg().ptr());
            if (spec == "%") {
                out += s;
            } else {
                spec += 's';
                std::snprintf(buf, sizeof(buf), spec.c_str(), s.c_str());
                out += buf;
            }
            break;
          }
          case 'f':
          case 'e':
          case 'g':
          case 'E':
          case 'G': {
            spec += conv;
            std::snprintf(buf, sizeof(buf), spec.c_str(), next_arg().f);
            out += buf;
            break;
          }
          case 'p': {
            std::snprintf(buf, sizeof(buf), "0x%llx",
                          static_cast<unsigned long long>(next_arg().ptr()));
            out += buf;
            break;
          }
          default:
            warn("printf: unsupported conversion %%%c", conv);
            out += spec;
            out += conv;
            break;
        }
    }
    return out;
}

int64_t
DefaultEnv::runScanf(ExecBackend &interp, const std::string &fmt,
                     const std::vector<RtVal> &args, size_t first_arg,
                     const std::string &input, size_t &pos)
{
    size_t arg_idx = first_arg;
    int64_t converted = 0;

    auto skip_ws = [&]() {
        while (pos < input.size() &&
               std::isspace(static_cast<unsigned char>(input[pos]))) {
            ++pos;
        }
    };

    for (size_t i = 0; i < fmt.size(); ++i) {
        char c = fmt[i];
        if (std::isspace(static_cast<unsigned char>(c))) {
            skip_ws();
            continue;
        }
        if (c != '%') {
            skip_ws();
            if (pos < input.size() && input[pos] == c)
                ++pos;
            continue;
        }
        ++i;
        int longs = 0;
        while (i < fmt.size() && (fmt[i] == 'l' || fmt[i] == 'h')) {
            longs += fmt[i] == 'l';
            ++i;
        }
        if (i >= fmt.size() || arg_idx >= args.size())
            break;
        char conv = fmt[i];
        uint64_t dest = args[arg_idx].ptr();

        if (conv == 'd' || conv == 'i' || conv == 'u') {
            skip_ws();
            size_t start = pos;
            if (pos < input.size() &&
                (input[pos] == '-' || input[pos] == '+')) {
                ++pos;
            }
            while (pos < input.size() &&
                   std::isdigit(static_cast<unsigned char>(input[pos]))) {
                ++pos;
            }
            if (pos == start)
                break;
            int64_t v = std::strtoll(input.substr(start, pos - start).c_str(),
                                     nullptr, 10);
            interp.storeScalarAt(dest, longs > 0 ? 8 : 4,
                                 static_cast<uint64_t>(v));
            ++converted;
            ++arg_idx;
        } else if (conv == 'f' || conv == 'g' || conv == 'e') {
            skip_ws();
            size_t start = pos;
            while (pos < input.size() &&
                   (std::isdigit(static_cast<unsigned char>(input[pos])) ||
                    std::strchr("+-.eE", input[pos]) != nullptr)) {
                ++pos;
            }
            if (pos == start)
                break;
            double v =
                std::strtod(input.substr(start, pos - start).c_str(),
                            nullptr);
            if (longs > 0) {
                uint64_t bits;
                std::memcpy(&bits, &v, 8);
                interp.storeScalarAt(dest, 8, bits);
            } else {
                float narrow = static_cast<float>(v);
                uint32_t bits;
                std::memcpy(&bits, &narrow, 4);
                interp.storeScalarAt(dest, 4, bits);
            }
            ++converted;
            ++arg_idx;
        } else if (conv == 's') {
            skip_ws();
            size_t start = pos;
            while (pos < input.size() &&
                   !std::isspace(static_cast<unsigned char>(input[pos]))) {
                ++pos;
            }
            if (pos == start)
                break;
            std::string word = input.substr(start, pos - start);
            interp.writeBytes(dest, word.size(),
                              reinterpret_cast<const uint8_t *>(word.data()));
            uint8_t nul = 0;
            interp.writeBytes(dest + word.size(), 1, &nul);
            ++converted;
            ++arg_idx;
        } else if (conv == 'c') {
            if (pos >= input.size())
                break;
            uint8_t ch = static_cast<uint8_t>(input[pos++]);
            interp.writeBytes(dest, 1, &ch);
            ++converted;
            ++arg_idx;
        } else {
            warn("scanf: unsupported conversion %%%c", conv);
            break;
        }
    }
    return converted;
}

RtVal
DefaultEnv::callExternal(ExecBackend &interp, const ir::Function &callee,
                         const ir::Instruction &call,
                         std::vector<RtVal> &args)
{
    const std::string &name = callee.name();
    sim::SimMachine &m = interp.machine();

    // --- Intrinsics ------------------------------------------------------
    if (name == frontend::kSizeofIntrinsic) {
        return RtVal::ofInt(static_cast<int64_t>(
            interp.layout().sizeOf(call.accessType())));
    }
    if (name == "__machine_asm")
        return RtVal::ofInt(0);
    if (name == "__syscall")
        return RtVal::ofInt(0);

    // --- Allocation ---------------------------------------------------------
    if (name == "malloc")
        return RtVal::ofPtr(
            guestMalloc(interp, args[0].ptr(), /*uva=*/false));
    if (name == "u_malloc")
        return RtVal::ofPtr(guestMalloc(interp, args[0].ptr(), /*uva=*/true));
    if (name == "calloc" || name == "u_calloc") {
        uint64_t total = args[0].ptr() * args[1].ptr();
        uint64_t addr = guestMalloc(interp, total, name[0] == 'u');
        std::vector<uint8_t> zeros(total, 0);
        if (total > 0)
            interp.writeBytes(addr, total, zeros.data());
        chargeBytes(interp, total);
        return RtVal::ofPtr(addr);
    }
    if (name == "realloc" || name == "u_realloc") {
        bool uva = name[0] == 'u';
        uint64_t old_addr = args[0].ptr();
        uint64_t new_size = args[1].ptr();
        uint64_t new_addr = guestMalloc(interp, new_size, uva);
        if (old_addr != 0) {
            sim::HeapAllocator &heap =
                uva ? *uva_heap_ : m.nativeHeap();
            uint64_t old_size = heap.blockSize(old_addr);
            uint64_t copy = std::min(old_size, new_size);
            std::vector<uint8_t> buf(copy);
            if (copy > 0) {
                interp.readBytes(old_addr, copy, buf.data());
                interp.writeBytes(new_addr, copy, buf.data());
            }
            chargeBytes(interp, copy);
            guestFree(interp, old_addr, uva);
        }
        return RtVal::ofPtr(new_addr);
    }
    if (name == "free") {
        guestFree(interp, args[0].ptr(), /*uva=*/false);
        return {};
    }
    if (name == "u_free") {
        guestFree(interp, args[0].ptr(), /*uva=*/true);
        return {};
    }

    // --- Formatted I/O ---------------------------------------------------
    if (name == "printf") {
        std::string fmt = interp.readCString(args[0].ptr());
        std::string out = formatPrintf(interp, fmt, args, 1);
        m.console() += out;
        m.advanceCompute(out.size() / 2);
        return RtVal::ofInt(static_cast<int64_t>(out.size()));
    }
    if (name == "puts") {
        std::string s = interp.readCString(args[0].ptr());
        m.console() += s;
        m.console() += '\n';
        m.advanceCompute(s.size() / 2);
        return RtVal::ofInt(0);
    }
    if (name == "putchar") {
        m.console() += static_cast<char>(args[0].i);
        return RtVal::ofInt(args[0].i);
    }
    if (name == "getchar") {
        if (m.inputPos() >= m.input().size())
            return RtVal::ofInt(-1);
        return RtVal::ofInt(
            static_cast<unsigned char>(m.input()[m.inputPos()++]));
    }
    if (name == "scanf") {
        std::string fmt = interp.readCString(args[0].ptr());
        size_t pos = m.inputPos();
        int64_t n = runScanf(interp, fmt, args, 1, m.input(), pos);
        m.inputPos() = pos;
        return RtVal::ofInt(n);
    }

    // --- File streams -----------------------------------------------------
    if (name == "fopen") {
        std::string path = interp.readCString(args[0].ptr());
        std::string mode = interp.readCString(args[1].ptr());
        return RtVal::ofPtr(m.fs().open(path, mode));
    }
    if (name == "fclose")
        return RtVal::ofInt(m.fs().close(args[0].ptr()) ? 0 : -1);
    if (name == "fread") {
        uint64_t total = args[1].ptr() * args[2].ptr();
        std::vector<uint8_t> buf(total);
        uint64_t got = m.fs().read(args[3].ptr(), buf.data(), total);
        if (got > 0)
            interp.writeBytes(args[0].ptr(), got, buf.data());
        chargeBytes(interp, got);
        uint64_t item = args[1].ptr() == 0 ? 1 : args[1].ptr();
        return RtVal::ofInt(static_cast<int64_t>(got / item));
    }
    if (name == "fwrite") {
        uint64_t total = args[1].ptr() * args[2].ptr();
        std::vector<uint8_t> buf(total);
        if (total > 0)
            interp.readBytes(args[0].ptr(), total, buf.data());
        uint64_t put = m.fs().write(args[3].ptr(), buf.data(), total);
        chargeBytes(interp, put);
        uint64_t item = args[1].ptr() == 0 ? 1 : args[1].ptr();
        return RtVal::ofInt(static_cast<int64_t>(put / item));
    }
    if (name == "fgetc")
        return RtVal::ofInt(m.fs().getc(args[0].ptr()));
    if (name == "fputc")
        return RtVal::ofInt(
            m.fs().putc(args[1].ptr(), static_cast<int>(args[0].i)));
    if (name == "feof")
        return RtVal::ofInt(m.fs().eof(args[0].ptr()) ? 1 : 0);
    if (name == "fseek")
        return RtVal::ofInt(m.fs().seek(args[0].ptr(), args[1].i,
                                        static_cast<int>(args[2].i)));
    if (name == "ftell")
        return RtVal::ofInt(m.fs().tell(args[0].ptr()));

    // --- Math ----------------------------------------------------------------
    if (name == "sqrt") return RtVal::ofFloat(std::sqrt(args[0].f));
    if (name == "sin") return RtVal::ofFloat(std::sin(args[0].f));
    if (name == "cos") return RtVal::ofFloat(std::cos(args[0].f));
    if (name == "tan") return RtVal::ofFloat(std::tan(args[0].f));
    if (name == "exp") return RtVal::ofFloat(std::exp(args[0].f));
    if (name == "log") return RtVal::ofFloat(std::log(args[0].f));
    if (name == "pow") return RtVal::ofFloat(std::pow(args[0].f, args[1].f));
    if (name == "fabs") return RtVal::ofFloat(std::fabs(args[0].f));
    if (name == "floor") return RtVal::ofFloat(std::floor(args[0].f));
    if (name == "ceil") return RtVal::ofFloat(std::ceil(args[0].f));
    if (name == "fmod") return RtVal::ofFloat(std::fmod(args[0].f, args[1].f));
    if (name == "abs")
        return RtVal::ofInt(args[0].i < 0 ? -args[0].i : args[0].i);
    if (name == "labs")
        return RtVal::ofInt(args[0].i < 0 ? -args[0].i : args[0].i);

    // --- Strings and memory ---------------------------------------------
    if (name == "strlen") {
        std::string s = interp.readCString(args[0].ptr());
        chargeBytes(interp, s.size());
        return RtVal::ofInt(static_cast<int64_t>(s.size()));
    }
    if (name == "strcpy" || name == "strncpy") {
        std::string s = interp.readCString(args[1].ptr());
        if (name == "strncpy" && s.size() > args[2].ptr())
            s.resize(args[2].ptr());
        interp.writeBytes(args[0].ptr(), s.size(),
                          reinterpret_cast<const uint8_t *>(s.data()));
        uint8_t nul = 0;
        interp.writeBytes(args[0].ptr() + s.size(), 1, &nul);
        chargeBytes(interp, s.size());
        return args[0];
    }
    if (name == "strcat") {
        std::string dst = interp.readCString(args[0].ptr());
        std::string src = interp.readCString(args[1].ptr());
        interp.writeBytes(args[0].ptr() + dst.size(), src.size(),
                          reinterpret_cast<const uint8_t *>(src.data()));
        uint8_t nul = 0;
        interp.writeBytes(args[0].ptr() + dst.size() + src.size(), 1, &nul);
        chargeBytes(interp, src.size());
        return args[0];
    }
    if (name == "strcmp" || name == "strncmp") {
        std::string a = interp.readCString(args[0].ptr());
        std::string b = interp.readCString(args[1].ptr());
        if (name == "strncmp") {
            uint64_t n = args[2].ptr();
            if (a.size() > n)
                a.resize(n);
            if (b.size() > n)
                b.resize(n);
        }
        chargeBytes(interp, std::min(a.size(), b.size()));
        int r = a.compare(b);
        return RtVal::ofInt(r < 0 ? -1 : (r > 0 ? 1 : 0));
    }
    if (name == "memcpy" || name == "memmove") {
        uint64_t n = args[2].ptr();
        std::vector<uint8_t> buf(n);
        if (n > 0) {
            interp.readBytes(args[1].ptr(), n, buf.data());
            interp.writeBytes(args[0].ptr(), n, buf.data());
        }
        chargeBytes(interp, n);
        return args[0];
    }
    if (name == "memset") {
        uint64_t n = args[2].ptr();
        std::vector<uint8_t> buf(n, static_cast<uint8_t>(args[1].i));
        if (n > 0)
            interp.writeBytes(args[0].ptr(), n, buf.data());
        chargeBytes(interp, n);
        return args[0];
    }
    if (name == "memcmp") {
        uint64_t n = args[2].ptr();
        std::vector<uint8_t> a(n), b(n);
        if (n > 0) {
            interp.readBytes(args[0].ptr(), n, a.data());
            interp.readBytes(args[1].ptr(), n, b.data());
        }
        chargeBytes(interp, n);
        int r = std::memcmp(a.data(), b.data(), n);
        return RtVal::ofInt(r < 0 ? -1 : (r > 0 ? 1 : 0));
    }
    if (name == "atoi") {
        std::string s = interp.readCString(args[0].ptr());
        return RtVal::ofInt(std::strtoll(s.c_str(), nullptr, 10));
    }
    if (name == "atof") {
        std::string s = interp.readCString(args[0].ptr());
        return RtVal::ofFloat(std::strtod(s.c_str(), nullptr));
    }

    // --- Process / misc ------------------------------------------------------
    if (name == "exit")
        throw GuestExit{args.empty() ? 0 : args[0].i};
    if (name == "rand") {
        rng_state_ = rng_state_ * 6364136223846793005ull + 1442695040888963407ull;
        return RtVal::ofInt(static_cast<int64_t>((rng_state_ >> 33) &
                                                 0x7fffffff));
    }
    if (name == "srand") {
        rng_state_ = static_cast<uint64_t>(args[0].i) | 1;
        return {};
    }

    panic("unimplemented external function @%s", name.c_str());
}

} // namespace nol::interp
