/**
 * @file
 * Interpreter tests: run real MiniC programs end-to-end on a simulated
 * machine and check results, console output, memory semantics across
 * architectures (pointer width, endianness, struct layout), timing and
 * the cost model.
 */
#include <gtest/gtest.h>

#include "frontend/codegen.hpp"
#include "interp/externals.hpp"
#include "interp/interp.hpp"
#include "interp/loader.hpp"
#include "ir/irbuilder.hpp"
#include "sim/simmachine.hpp"

using namespace nol;
using namespace nol::interp;

namespace {

/** Compile + load + run main() on a machine; returns exit value. */
struct RunResult {
    int64_t ret = 0;
    std::string console;
    double seconds = 0;
    uint64_t steps = 0;
};

RunResult
run(const char *src, arch::ArchSpec spec = arch::makeArm32(),
    const std::string &input = "",
    sim::MachineRole role = sim::MachineRole::Mobile)
{
    auto mod = frontend::compileSource(src, "test.c");
    sim::SimMachine machine(role, std::move(spec));
    machine.setInput(input);
    ProgramImage image = loadProgram(*mod, machine);
    DefaultEnv env;
    Interp interp(machine, *mod, image, env);
    ir::Function *main_fn = mod->functionByName("main");
    EXPECT_NE(main_fn, nullptr);
    RunResult out;
    out.ret = interp.call(main_fn, {}).i;
    out.console = machine.console();
    out.seconds = machine.nowNs() * 1e-9;
    out.steps = interp.steps();
    return out;
}

} // namespace

TEST(Interp, ReturnsConstant)
{
    EXPECT_EQ(run("int main() { return 42; }").ret, 42);
}

TEST(Interp, Arithmetic)
{
    EXPECT_EQ(run("int main() { return (7 * 6 - 2) / 4 % 8; }").ret,
              (7 * 6 - 2) / 4 % 8);
    EXPECT_EQ(run("int main() { return 7 & 12 | 16 ^ 5; }").ret,
              ((7 & 12) | (16 ^ 5)));
    EXPECT_EQ(run("int main() { return (1 << 10) >> 3; }").ret, 128);
    EXPECT_EQ(run("int main() { return -13 / 4; }").ret, -3);
    EXPECT_EQ(run("int main() { return -13 % 4; }").ret, -1);
}

TEST(Interp, UnsignedSemantics)
{
    EXPECT_EQ(run("int main() { unsigned int x = 0; x = x - 1; "
                  "return x > 100 ? 1 : 0; }").ret, 1);
    EXPECT_EQ(run("int main() { unsigned char c = 200; c += 100; "
                  "return c; }").ret, 44); // wraps at 256
    EXPECT_EQ(run("int main() { int x = -1; unsigned int u = x; "
                  "return (u >> 28) == 15; }").ret, 1);
}

TEST(Interp, FloatingPoint)
{
    EXPECT_EQ(run("int main() { double d = 1.5 * 4.0; return (int)d; }").ret,
              6);
    EXPECT_EQ(run("int main() { float f = 0.1f; double d = f; "
                  "return d > 0.099 && d < 0.101; }").ret, 1);
    EXPECT_EQ(run("int main() { return (int)sqrt(144.0); }").ret, 12);
}

TEST(Interp, Fibonacci)
{
    RunResult r = run(R"(
        int fib(int n) { return n < 2 ? n : fib(n - 1) + fib(n - 2); }
        int main() { return fib(15); }
    )");
    EXPECT_EQ(r.ret, 610);
}

TEST(Interp, LoopsAndArrays)
{
    RunResult r = run(R"(
        int main() {
            int a[10];
            for (int i = 0; i < 10; i++) a[i] = i * i;
            int s = 0;
            for (int i = 0; i < 10; i++) s += a[i];
            return s;
        }
    )");
    EXPECT_EQ(r.ret, 285);
}

TEST(Interp, TwoDimensionalArrays)
{
    RunResult r = run(R"(
        int board[4][4];
        int main() {
            for (int i = 0; i < 4; i++)
                for (int j = 0; j < 4; j++)
                    board[i][j] = i * 10 + j;
            return board[2][3] + board[3][1];
        }
    )");
    EXPECT_EQ(r.ret, 23 + 31);
}

TEST(Interp, StructsAndPointers)
{
    RunResult r = run(R"(
        typedef struct { char from; char to; double score; } Move;
        void boost(Move* m) { m->score = m->score * 2.0; }
        int main() {
            Move m;
            m.from = 3; m.to = 9; m.score = 10.5;
            boost(&m);
            return (int)m.score + m.from + m.to;
        }
    )");
    EXPECT_EQ(r.ret, 21 + 3 + 9);
}

TEST(Interp, MallocAndLinkedList)
{
    RunResult r = run(R"(
        typedef struct Node { int value; struct Node* next; } Node;
        int main() {
            Node* head = 0;
            for (int i = 1; i <= 5; i++) {
                Node* n = (Node*)malloc(sizeof(Node));
                n->value = i;
                n->next = head;
                head = n;
            }
            int s = 0;
            while (head) { s += head->value; Node* d = head; head = head->next; free(d); }
            return s;
        }
    )");
    EXPECT_EQ(r.ret, 15);
}

TEST(Interp, FunctionPointers)
{
    RunResult r = run(R"(
        typedef int (*OP)(int, int);
        int add(int a, int b) { return a + b; }
        int mul(int a, int b) { return a * b; }
        OP ops[2] = { add, mul };
        int main() {
            int s = 0;
            for (int i = 0; i < 2; i++) { OP f = ops[i]; s += f(3, 4); }
            return s + (*ops[1])(2, 5);
        }
    )");
    EXPECT_EQ(r.ret, 7 + 12 + 10);
}

TEST(Interp, PrintfFormatting)
{
    RunResult r = run(R"(
        int main() {
            printf("int=%d hex=%x str=%s char=%c f=%.2f\n",
                   42, 255, "ok", 'Z', 3.14159);
            printf("%5d|%-5d|\n", 1, 2);
            return 0;
        }
    )");
    EXPECT_EQ(r.console, "int=42 hex=ff str=ok char=Z f=3.14\n"
                         "    1|2    |\n");
}

TEST(Interp, ScanfReadsInput)
{
    RunResult r = run(R"(
        int main() {
            int a; int b;
            scanf("%d %d", &a, &b);
            return a * 100 + b;
        }
    )", arch::makeArm32(), "12 34");
    EXPECT_EQ(r.ret, 1234);
}

TEST(Interp, StringBuiltins)
{
    RunResult r = run(R"(
        int main() {
            char buf[32];
            strcpy(buf, "hello");
            strcat(buf, " world");
            if (strcmp(buf, "hello world") != 0) return 1;
            return (int)strlen(buf);
        }
    )");
    EXPECT_EQ(r.ret, 11);
}

TEST(Interp, FileIo)
{
    auto mod = frontend::compileSource(R"(
        int main() {
            void* f = fopen("data.bin", "r");
            if (!f) return -1;
            int sum = 0;
            int c;
            while ((c = fgetc(f)) >= 0) sum += c;
            fclose(f);
            return sum;
        }
    )", "test.c");
    sim::SimMachine machine(sim::MachineRole::Mobile, arch::makeArm32());
    machine.fs().putFile("data.bin", std::string("\x01\x02\x03\x04", 4));
    ProgramImage image = loadProgram(*mod, machine);
    DefaultEnv env;
    Interp interp(machine, *mod, image, env);
    EXPECT_EQ(interp.call(mod->functionByName("main"), {}).i, 10);
}

TEST(Interp, GuestExitUnwinds)
{
    RunResult r = run(R"(
        void deep(int n) { if (n == 0) exit(77); deep(n - 1); }
        int main() { deep(10); return 0; }
    )");
    EXPECT_EQ(r.ret, 77);
}

TEST(Interp, SwitchDispatch)
{
    const char *src = R"(
        int classify(int x) {
            switch (x) {
              case 1: return 10;
              case 2:
              case 3: return 20;
              default: return 30;
            }
        }
        int main() { return classify(%d); }
    )";
    char buf[512];
    std::snprintf(buf, sizeof(buf), src, 1);
    EXPECT_EQ(run(buf).ret, 10);
    std::snprintf(buf, sizeof(buf), src, 3);
    EXPECT_EQ(run(buf).ret, 20);
    std::snprintf(buf, sizeof(buf), src, 9);
    EXPECT_EQ(run(buf).ret, 30);
}

TEST(Interp, SwitchFallThrough)
{
    RunResult r = run(R"(
        int main() {
            int s = 0;
            switch (2) {
              case 1: s += 1;
              case 2: s += 2;
              case 3: s += 4;
              default: s += 8;
            }
            return s;
        }
    )");
    EXPECT_EQ(r.ret, 2 + 4 + 8);
}

TEST(Interp, SameResultAcrossArchitectures)
{
    const char *src = R"(
        typedef struct { char tag; double weight; int count; } Item;
        int main() {
            Item items[8];
            double total = 0.0;
            for (int i = 0; i < 8; i++) {
                items[i].tag = (char)i;
                items[i].weight = i * 1.25;
                items[i].count = i * 3;
            }
            int csum = 0;
            for (int i = 0; i < 8; i++) {
                total += items[i].weight;
                csum += items[i].count + items[i].tag;
            }
            return (int)total + csum;
        }
    )";
    int64_t arm = run(src, arch::makeArm32()).ret;
    int64_t x86 = run(src, arch::makeX86_64(),
                      "", sim::MachineRole::Server).ret;
    int64_t ia32 = run(src, arch::makeIa32()).ret;
    int64_t mips = run(src, arch::makeMips32be()).ret;
    EXPECT_EQ(arm, x86);
    EXPECT_EQ(arm, ia32);
    EXPECT_EQ(arm, mips); // big-endian machine agrees with itself
}

TEST(Interp, BigEndianMemoryIsByteSwapped)
{
    // Store an int, read its first byte through a char*: little-endian
    // sees the low byte, big-endian sees the high byte — the hazard the
    // endianness-translation pass exists for.
    const char *src = R"(
        int main() {
            int x = 0x11223344;
            char* p = (char*)&x;
            return p[0];
        }
    )";
    EXPECT_EQ(run(src, arch::makeArm32()).ret, 0x44);
    EXPECT_EQ(run(src, arch::makeMips32be()).ret, 0x11);
}

TEST(Interp, PointerWidthVisibleInSizeof)
{
    const char *src = "int main() { return (int)sizeof(int*); }";
    EXPECT_EQ(run(src, arch::makeArm32()).ret, 4);
    EXPECT_EQ(run(src, arch::makeX86_64(), "",
                  sim::MachineRole::Server).ret, 8);
}

TEST(Interp, StructLayoutVisibleInSizeof)
{
    const char *src = R"(
        typedef struct { char c; double d; } T;
        int main() { return (int)sizeof(T); }
    )";
    EXPECT_EQ(run(src, arch::makeArm32()).ret, 16);
    EXPECT_EQ(run(src, arch::makeIa32()).ret, 12); // 4-byte double align
}

TEST(Interp, ExpressionTypesFollowTheirLowering)
{
    // sizeof and ?: type an operand without lowering it. The lowering
    // promotes unary - and ~ to int, and gives a literal outside the
    // int range type long.
    RunResult r = run(R"(
        int main() {
            char c = 1;
            int t = 1;
            long big = t ? 5000000000 : 1;
            printf("%d %d %d %ld\n", (int)sizeof(-c), (int)sizeof(~c),
                   (int)sizeof(5000000000), big);
            return 0;
        }
    )");
    EXPECT_EQ(r.console, "4 4 8 5000000000\n");
}

TEST(Interp, SizeofTypesItsOperandBeforeLvalueConversion)
{
    // An array object and a string literal keep their array type, as in
    // C; a struct object, through a name or a pointer, its struct type.
    const char *src = R"(
        typedef struct { char c; double d; int i; } S;
        int main() {
            int a[3];
            S s;
            S *p = &s;
            printf("%d %d %d %d %d %d\n", (int)sizeof a, (int)sizeof "abc",
                   (int)sizeof s, (int)sizeof *p, (int)sizeof(S),
                   (int)sizeof a[0]);
            return 0;
        }
    )";
    EXPECT_EQ(run(src, arch::makeArm32()).console, "12 4 24 24 24 4\n");
    EXPECT_EQ(run(src, arch::makeX86_64()).console, "12 4 24 24 24 4\n");
    EXPECT_EQ(run(src, arch::makeIa32()).console, "12 4 16 16 16 4\n");
}

TEST(Interp, ConditionalTakesItsArmsCommonType)
{
    RunResult r = run(R"(
        int main() {
            int a = 1;
            int b = 0;
            int arr[2];
            arr[1] = 7;
            int nested = a ? (b ? 10 : 20) : 30;
            int logical = b ? 1 : (a && b ? 2 : 3);
            int both = (a || b) ? (a && 1) : 5;
            long wide = a ? 'c' : 5000000000;
            double mixed = b ? 1 : 2.5;
            int *left = a ? arr : 0;
            int *right = a ? 0 : arr;
            printf("%d %d %d %ld %.1f %d %d\n", nested, logical, both, wide,
                   mixed, left[1], right == 0);
            return 0;
        }
    )");
    EXPECT_EQ(r.console, "20 3 1 99 2.5 7 1\n");
}

TEST(Interp, StructAssignmentThroughPointersAndElements)
{
    RunResult r = run(R"(
        typedef struct { int x; double y; } P;
        P as[2];
        P bs[2];
        int main() {
            P *p = &as[0];
            P *q = &bs[1];
            bs[1].x = 5;
            bs[1].y = 2.5;
            *p = *q;
            int i = 1;
            int j = 1;
            bs[1].x = 6;
            as[i] = bs[j];
            printf("%d %.1f %d %.1f\n", as[0].x, as[0].y, as[1].x, as[1].y);
            return 0;
        }
    )");
    EXPECT_EQ(r.console, "5 2.5 6 2.5\n");
}

TEST(Interp, MobileSlowerThanServerOnSameProgram)
{
    const char *src = R"(
        int main() {
            int s = 0;
            for (int i = 0; i < 20000; i++) s += i % 7;
            return s & 0xff;
        }
    )";
    RunResult mobile = run(src, arch::makeArm32());
    RunResult server =
        run(src, arch::makeX86_64(), "", sim::MachineRole::Server);
    EXPECT_EQ(mobile.ret, server.ret);
    // At least the 5.5x clock ratio; arithmetic-heavy instruction mixes
    // widen the gap further (the server's arith/mem cost scales).
    double ratio = mobile.seconds / server.seconds;
    EXPECT_GT(ratio, 5.4);
    EXPECT_LT(ratio, 10.0);
}

TEST(Interp, EnergyAccumulates)
{
    auto mod = frontend::compileSource(
        "int main() { int s = 0; for (int i = 0; i < 1000; i++) s += i; "
        "return s & 1; }",
        "test.c");
    sim::SimMachine machine(sim::MachineRole::Mobile, arch::makeArm32());
    ProgramImage image = loadProgram(*mod, machine);
    DefaultEnv env;
    Interp interp(machine, *mod, image, env);
    interp.call(mod->functionByName("main"), {});
    EXPECT_GT(machine.power().energyMillijoules(), 0.0);
    // Energy == compute power × elapsed time for a pure-compute run.
    double expect = machine.power().rate(sim::PowerState::Compute) *
                    machine.nowNs() * 1e-9;
    EXPECT_NEAR(machine.power().energyMillijoules(), expect, expect * 1e-9);
}

TEST(Interp, StackOverflowIsGuestError)
{
    EXPECT_THROW(run(R"(
        int burn(int n) {
            /* 32 KiB per guest frame: trips the 16 MiB guest stack
               guard within ~512 frames, long before the recursive host
               interpreter (2 host frames per guest frame, larger still
               under ASan) can exhaust its own stack. */
            int pad[8192];
            pad[0] = n;
            return burn(n + 1) + pad[0];
        }
        int main() { return burn(0); }
    )"), FatalError);
}

TEST(Interp, BlockScopedArrayInLoopReusesItsSlot)
{
    // 4 KiB per iteration: 100 000 fresh slots would need ~400 MiB of
    // the 16 MiB guest stack. An alloca takes its slot once per frame
    // and every later pass of the loop reuses it.
    RunResult r = run(R"(
        int main() {
            int s = 0;
            for (int i = 0; i < 100000; i++) {
                int buf[1024];
                buf[i % 1024] = i;
                s += buf[i % 1024] & 1;
            }
            return s;
        }
    )");
    EXPECT_EQ(r.ret, 50000);
}

TEST(Interp, UseOfValueFromSkippedBlockIsCaught)
{
    // entry branches around "skipped", and "join" returns the value
    // "skipped" would have defined.
    ir::Module m("m");
    const ir::FunctionType *ft = m.types().functionTy(m.types().i32(), {});
    ir::Function *fn = m.createFunction("main", ft);
    fn->materializeArgs();
    ir::BasicBlock *entry = fn->createBlock("entry");
    ir::BasicBlock *skipped = fn->createBlock("skipped");
    ir::BasicBlock *join = fn->createBlock("join");
    ir::IRBuilder b(m);
    b.setInsertPoint(entry);
    b.condBr(m.constBool(false), skipped, join);
    b.setInsertPoint(skipped);
    ir::Instruction *x =
        b.binary(ir::Opcode::Add, m.constI32(1), m.constI32(2), "x");
    b.br(join);
    b.setInsertPoint(join);
    b.ret(x);

    sim::SimMachine machine(sim::MachineRole::Mobile, arch::makeArm32());
    ProgramImage image = loadProgram(m, machine);
    DefaultEnv env;
    Interp interp(machine, m, image, env);
    try {
        interp.call(fn, {});
        FAIL() << "the undefined use ran";
    } catch (const PanicError &e) {
        EXPECT_NE(std::string(e.what()).find("use of undefined value 'x'"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Interp, DivisionByZeroIsGuestError)
{
    EXPECT_THROW(run("int main() { int z = 0; return 5 / z; }"),
                 FatalError);
}

TEST(Interp, Int64MinByMinusOneWraps)
{
    // The host's own INT64_MIN / -1 traps; the guest's wraps, as its
    // add/sub/mul do.
    RunResult r = run(R"(
        int main() {
            long a; long b;
            scanf("%ld %ld", &a, &b);
            printf("%ld %ld\n", a / b, a % b);
            return 0;
        }
    )", arch::makeArm32(), "-9223372036854775808 -1");
    EXPECT_EQ(r.console, "-9223372036854775808 0\n");
}

TEST(Interp, GlobalInitializersLoaded)
{
    RunResult r = run(R"(
        int table[5] = { 2, 4, 6, 8, 10 };
        char msg[6] = "abcde";
        double factor = 2.5;
        int main() {
            int s = 0;
            for (int i = 0; i < 5; i++) s += table[i];
            s += msg[4];
            return s + (int)(factor * 4.0);
        }
    )");
    EXPECT_EQ(r.ret, 30 + 'e' + 10);
}
