/**
 * @file
 * Cross-architecture offloading tests beyond the paper's ARM→x86 pair:
 * the memory unification must also hold for a big-endian mobile device
 * (endianness translation), a 32-bit server (no address-size
 * conversion), and a 64-bit ARM server — "to support various
 * combinations of architectures" (paper Sec. 2) — on both execution
 * backends.
 */
#include <gtest/gtest.h>

#include "codegen/artifact.hpp"
#include "core/nativeoffloader.hpp"

using namespace nol;
using namespace nol::core;

namespace {

/** Exercises structs, pointers, fn pointers and byte access. */
const char *kStressSource = R"(
typedef struct { char tag; double weight; int count; short kind; } Item;
typedef long (*RANK)(Item*);

long rankByWeight(Item* it) { return (long)(it->weight * 100.0); }
long rankByCount(Item* it) { return (long)it->count * 7; }
RANK ranks[2] = { rankByWeight, rankByCount };

Item* items;
int n;

long heavy() {
    long total = 0;
    for (int round = 0; round < 60; round++) {
        for (int i = 0; i < n; i++) {
            RANK r = ranks[i % 2];
            total += r(&items[i]);
            items[i].weight = items[i].weight * 1.001 + 0.01;
            items[i].count += (int)(total % 3);
        }
    }
    unsigned char* raw = (unsigned char*)items;
    long bytesum = 0;
    for (int b = 0; b < 64; b++) bytesum += raw[b];
    printf("total=%ld bytesum=%ld\n", total, bytesum);
    return total;
}

int main() {
    scanf("%d", &n);
    items = (Item*)malloc(sizeof(Item) * n);
    for (int i = 0; i < n; i++) {
        items[i].tag = (char)i;
        items[i].weight = (double)i * 0.5;
        items[i].count = i * 3;
        items[i].kind = (short)(i % 5);
    }
    return (int)(heavy() % 89);
}
)";

struct ArchPair {
    const char *name;
    arch::ArchSpec mobile;
    arch::ArchSpec server;
};

class CrossArch : public ::testing::TestWithParam<int>
{
  public:
    static std::vector<ArchPair> pairs()
    {
        return {
            {"arm32_to_x86_64", arch::makeArm32(), arch::makeX86_64()},
            {"arm32_to_ia32", arch::makeArm32(), arch::makeIa32()},
            {"arm32_to_arm64", arch::makeArm32(), arch::makeArm64()},
            {"mips32be_to_x86_64", arch::makeMips32be(),
             arch::makeX86_64()},
            {"ia32_to_x86_64", arch::makeIa32(), arch::makeX86_64()},
        };
    }
};

} // namespace

TEST_P(CrossArch, OffloadedMatchesLocal)
{
    ArchPair pair = CrossArch::pairs()[static_cast<size_t>(GetParam())];

    CompileRequest req;
    req.name = std::string("stress.") + pair.name;
    req.source = kStressSource;
    req.profilingInput.stdinText = "64";
    req.mobileSpec = pair.mobile;
    req.serverSpec = pair.server;
    Program prog = Program::compile(req);
    ASSERT_TRUE(prog.hasTargets()) << pair.name;

    // The unified ABI must be the mobile device's.
    const ir::Module &mobile = *prog.compiled().partition.mobileModule;
    ASSERT_NE(mobile.unifiedAbi(), nullptr);
    EXPECT_EQ(mobile.unifiedAbi()->pointerSize, pair.mobile.pointerSize)
        << pair.name;
    EXPECT_EQ(mobile.unifiedAbi()->endian, pair.mobile.endian)
        << pair.name;

    runtime::RunInput input;
    input.stdinText = "100";
    runtime::RunReport local = prog.runLocal(input);
    runtime::RunReport off = prog.run(runtime::SystemConfig{}, input);

    EXPECT_GT(off.offloads, 0u) << pair.name;
    EXPECT_EQ(off.exitValue, local.exitValue) << pair.name;
    EXPECT_EQ(off.console, local.console) << pair.name;

    // The native-C backend must match the interpreter bit for bit on
    // every layout: a big-endian mobile keeps its guest memory in
    // big-endian byte order, which the generated code must not read
    // as little-endian.
    ASSERT_TRUE(codegen::toolchainAvailable());
    for (const char *mode : {"local", "802.11ac", "ideal"}) {
        SCOPED_TRACE(std::string(pair.name) + " " + mode);
        runtime::SystemConfig cfg;
        cfg.network = net::makeWifi80211ac();
        cfg.forceLocal = std::string(mode) == "local";
        cfg.idealOffload = std::string(mode) == "ideal";
        runtime::RunReport interp_report = prog.run(cfg, input);
        cfg.backend = interp::BackendKind::NativeC;
        runtime::RunReport native_report = prog.run(cfg, input);
        std::string why;
        EXPECT_TRUE(runtime::reportsBitIdentical(interp_report,
                                                 native_report, &why))
            << "first divergent field: " << why;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, CrossArch, ::testing::Range(0, 5),
    [](const ::testing::TestParamInfo<int> &info) {
        return CrossArch::pairs()[static_cast<size_t>(info.param)].name;
    });

TEST(CrossArchUnify, EndiannessTranslationFlagSet)
{
    CompileRequest req;
    req.name = "endian";
    req.source = kStressSource;
    req.profilingInput.stdinText = "64";
    req.mobileSpec = arch::makeMips32be();
    req.serverSpec = arch::makeX86_64();
    Program prog = Program::compile(req);
    EXPECT_TRUE(prog.compiled().unifyStats.endiannessTranslation);
    EXPECT_TRUE(prog.compiled().unifyStats.addressSizeConversion);
}

TEST(CrossArchUnify, SameWidthNeedsNoAddressConversion)
{
    CompileRequest req;
    req.name = "same-width";
    req.source = kStressSource;
    req.profilingInput.stdinText = "64";
    req.mobileSpec = arch::makeArm32();
    req.serverSpec = arch::makeIa32();
    Program prog = Program::compile(req);
    // 32-bit to 32-bit, both little-endian: layout realignment only
    // (ARM aligns doubles to 8, IA32 to 4 — Fig. 4's case).
    EXPECT_FALSE(prog.compiled().unifyStats.addressSizeConversion);
    EXPECT_FALSE(prog.compiled().unifyStats.endiannessTranslation);
    EXPECT_GT(prog.compiled().unifyStats.structsRealigned, 0u);
}
