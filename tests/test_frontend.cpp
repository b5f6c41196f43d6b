/**
 * @file
 * MiniC front-end tests: lexing, parsing, type resolution, lowering of
 * every statement/expression form, loop metadata, and error handling.
 */
#include <gtest/gtest.h>

#include "frontend/codegen.hpp"
#include "frontend/lexer.hpp"
#include "frontend/parser.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"
#include "support/logging.hpp"

using namespace nol;
using namespace nol::frontend;

namespace {

std::unique_ptr<ir::Module>
compile(const std::string &src)
{
    return compileSource(src, "test.c");
}

/** @p text written @p n times. */
std::string
repeat(const std::string &text, int n)
{
    std::string out;
    for (int i = 0; i < n; ++i)
        out += text;
    return out;
}

} // namespace

TEST(Lexer, TokenizesOperatorsAndLiterals)
{
    auto toks = lex("a += 0x1f; b <<= 2; s = \"hi\\n\"; c = 'x';", "t");
    ASSERT_GE(toks.size(), 16u);
    EXPECT_EQ(toks[0].kind, Tok::Identifier);
    EXPECT_EQ(toks[1].kind, Tok::PlusAssign);
    EXPECT_EQ(toks[2].kind, Tok::IntLiteral);
    EXPECT_EQ(toks[2].intValue, 0x1f);
}

TEST(Lexer, SkipsComments)
{
    auto toks = lex("// line\nint /* block */ x;", "t");
    EXPECT_EQ(toks[0].kind, Tok::KwInt);
    EXPECT_EQ(toks[1].kind, Tok::Identifier);
}

TEST(Lexer, StringEscapes)
{
    auto toks = lex("\"a\\tb\\0c\"", "t");
    EXPECT_EQ(toks[0].strValue, std::string("a\tb\0c", 5));
}

TEST(Lexer, RejectsUnterminatedString)
{
    EXPECT_THROW(lex("\"abc", "t"), FatalError);
}

TEST(Parser, ParsesFunctionsAndGlobals)
{
    auto tu = parse("int g = 3; int main() { return g; }", "t");
    ASSERT_EQ(tu->decls.size(), 2u);
    EXPECT_EQ(tu->decls[0]->kind, DeclKind::GlobalVar);
    EXPECT_EQ(tu->decls[1]->kind, DeclKind::Function);
}

TEST(Parser, ParsesStructTypedef)
{
    auto tu = parse("typedef struct { char a; double b; } Foo;"
                    "Foo* make();",
                    "t");
    ASSERT_EQ(tu->decls.size(), 2u);
    EXPECT_EQ(tu->decls[0]->kind, DeclKind::Struct);
    EXPECT_EQ(tu->decls[0]->fields.size(), 2u);
}

TEST(Parser, ParsesFunctionPointerTypedef)
{
    auto tu = parse("typedef double (*EVALFUNC)(int);"
                    "EVALFUNC table[7];",
                    "t");
    EXPECT_EQ(tu->decls[0]->kind, DeclKind::Typedef);
    EXPECT_EQ(tu->decls[1]->kind, DeclKind::GlobalVar);
}

TEST(Parser, RejectsGarbage)
{
    EXPECT_THROW(parse("int main() { return @; }", "t"), FatalError);
    EXPECT_THROW(parse("int 3x;", "t"), FatalError);
}

TEST(Parser, DeepNestingEndsInADiagnostic)
{
    // Each of these overflowed the host stack before the parser bounded
    // the nesting; the diagnostic names the line it stops on.
    const int kDeep = 20000;
    const struct {
        const char *what;
        std::string source;
        const char *where;
    } inputs[] = {
        {"parentheses",
         "int main() { return " + repeat("(", kDeep) + "1" +
             repeat(")", kDeep) + "; }",
         "test.c:1:"},
        {"braces",
         "int main() " + repeat("{", kDeep) + " return 0; " +
             repeat("}", kDeep),
         "test.c:1:"},
        {"unary chain",
         "int main() { return " + repeat("- ", kDeep) + "1; }", "test.c:1:"},
        {"nested calls",
         "int f(int x) { return x; }\nint main() { return " +
             repeat("f(", kDeep) + "1" + repeat(")", kDeep) + "; }",
         "test.c:2:"},
        {"nested initializers",
         "int a[1] = " + repeat("{", kDeep) + "1" + repeat("}", kDeep) +
             ";\nint main() { return a[0]; }",
         "test.c:1:"},
        {"operator chain",
         "int main() {\n  return 1" + repeat(" + 1", kDeep) + "; }",
         "test.c:2:"},
        {"pointer declarator",
         "int " + repeat("*", kDeep) + "p;\nint main() { return 0; }",
         "test.c:1:"},
    };
    for (const auto &input : inputs) {
        SCOPED_TRACE(input.what);
        try {
            compile(input.source);
            ADD_FAILURE() << "compiled";
        } catch (const FatalError &e) {
            std::string msg = e.what();
            EXPECT_EQ(msg.rfind(input.where, 0), 0u) << msg;
            EXPECT_NE(msg.find("nesting deeper than 256 levels"),
                      std::string::npos)
                << msg;
        }
    }
}

TEST(Parser, NestingAtTheLimitCompiles)
{
    // main's body holds kMaxNesting blocks, one inside the other.
    EXPECT_NO_THROW(compile("int main() {" + repeat("{", kMaxNesting) +
                            repeat("}", kMaxNesting) + " return 0; }"));
    EXPECT_THROW(compile("int main() {" + repeat("{", kMaxNesting + 1) +
                         repeat("}", kMaxNesting + 1) + " return 0; }"),
                 FatalError);
    // Well past C11's 63 levels of parentheses.
    EXPECT_NO_THROW(compile("int main() { return " + repeat("(", 200) +
                            "1" + repeat(")", 200) + "; }"));
}

TEST(CodeGen, EmitsVerifiedModule)
{
    auto mod = compile(R"(
        int add(int a, int b) { return a + b; }
        int main() { return add(1, 2); }
    )");
    EXPECT_TRUE(ir::verifyModule(*mod).empty());
    EXPECT_NE(mod->functionByName("add"), nullptr);
    EXPECT_NE(mod->functionByName("main"), nullptr);
}

TEST(CodeGen, RecordsLoopMetadata)
{
    auto mod = compile(R"(
        int main() {
            int s = 0;
            for (int i = 0; i < 10; i++) {
                for (int j = 0; j < 10; j++) { s += j; }
            }
            while (s > 0) { s--; }
            return s;
        }
    )");
    ir::Function *main_fn = mod->functionByName("main");
    ASSERT_NE(main_fn, nullptr);
    ASSERT_EQ(main_fn->loops().size(), 3u);
    EXPECT_NE(main_fn->loopByName("main_for.cond"), nullptr);
    EXPECT_NE(main_fn->loopByName("main_while.cond"), nullptr);
    // Inner for loop got a line-suffixed unique name.
    int for_loops = 0;
    for (const auto &loop : main_fn->loops())
        for_loops += loop.name.find("for.cond") != std::string::npos;
    EXPECT_EQ(for_loops, 2);
}

TEST(CodeGen, InnerLoopBlocksAreSubsetOfOuter)
{
    auto mod = compile(R"(
        int main() {
            int s = 0;
            for (int i = 0; i < 4; i++) {
                for (int j = 0; j < 4; j++) { s += j; }
            }
            return s;
        }
    )");
    ir::Function *main_fn = mod->functionByName("main");
    const ir::LoopMeta *outer = main_fn->loopByName("main_for.cond");
    ASSERT_NE(outer, nullptr);
    ASSERT_EQ(main_fn->loops().size(), 2u);
    const ir::LoopMeta *inner = nullptr;
    for (const auto &loop : main_fn->loops()) {
        if (loop.name != outer->name)
            inner = &loop;
    }
    ASSERT_NE(inner, nullptr);
    for (ir::BasicBlock *bb : inner->blocks)
        EXPECT_TRUE(outer->contains(bb)) << bb->name();
    EXPECT_TRUE(outer->contains(inner->preheader));
    EXPECT_TRUE(outer->contains(inner->exit));
}

TEST(CodeGen, StructFieldAccess)
{
    auto mod = compile(R"(
        typedef struct { char from; char to; double score; } Move;
        double get(Move* m) { return m->score; }
        void set(Move* m, double v) { m->score = v; }
    )");
    EXPECT_TRUE(ir::verifyModule(*mod).empty());
    ir::StructType *move_ty = mod->types().structByName("Move");
    ASSERT_NE(move_ty, nullptr);
    EXPECT_EQ(move_ty->numFields(), 3u);
}

TEST(CodeGen, SelfReferentialStruct)
{
    auto mod = compile(R"(
        typedef struct Node { int value; struct Node* next; } Node;
        int sum(Node* head) {
            int s = 0;
            while (head) { s += head->value; head = head->next; }
            return s;
        }
    )");
    EXPECT_TRUE(ir::verifyModule(*mod).empty());
}

TEST(CodeGen, FunctionPointerTable)
{
    auto mod = compile(R"(
        typedef int (*OP)(int);
        int twice(int x) { return x * 2; }
        int thrice(int x) { return x * 3; }
        OP ops[2] = { twice, thrice };
        int apply(int which, int x) {
            OP f = ops[which];
            return f(x);
        }
    )");
    EXPECT_TRUE(ir::verifyModule(*mod).empty());
    ir::GlobalVariable *ops = mod->globalByName("ops");
    ASSERT_NE(ops, nullptr);
    ASSERT_EQ(ops->init().elems.size(), 2u);
    EXPECT_EQ(ops->init().elems[0].kind, ir::Initializer::Kind::Function);
}

TEST(CodeGen, SwitchLowering)
{
    auto mod = compile(R"(
        int classify(int x) {
            switch (x) {
              case 0: return 10;
              case 1:
              case 2: return 20;
              default: return 30;
            }
        }
    )");
    EXPECT_TRUE(ir::verifyModule(*mod).empty());
}

TEST(CodeGen, StringLiteralsInterned)
{
    auto mod = compile(R"(
        int f() { printf("abc"); printf("abc"); printf("xyz"); return 0; }
    )");
    int strs = 0;
    for (const auto &gv : mod->globals())
        strs += gv->name().rfind(".str", 0) == 0;
    EXPECT_EQ(strs, 2);
}

TEST(CodeGen, MachineAsmLowering)
{
    auto mod = compile(R"(
        void spin() { __machine_asm("wfi"); }
    )");
    ir::Function *fn = mod->functionByName("spin");
    bool found = false;
    for (const auto &bb : fn->blocks()) {
        for (const auto &inst : bb->insts())
            found |= inst->op() == ir::Opcode::MachineAsm;
    }
    EXPECT_TRUE(found);
}

TEST(CodeGen, RejectsBadPrograms)
{
    EXPECT_THROW(compile("int f() { return g; }"), FatalError);
    EXPECT_THROW(compile("int f() { unknown(); return 0; }"), FatalError);
    EXPECT_THROW(compile("void f() { break; }"), FatalError);
    EXPECT_THROW(compile("int f(int x) { int x; return x; }"), FatalError);
    EXPECT_THROW(compile("typedef struct {int a;} S; S g() {}"), FatalError);
}

TEST(CodeGen, SizeofLowersToIntrinsic)
{
    auto mod = compile(R"(
        typedef struct { char a; double d; } T;
        long size() { return sizeof(T); }
    )");
    EXPECT_NE(mod->functionByName("nol.sizeof"), nullptr);
}

TEST(CodeGen, GlobalInitializers)
{
    auto mod = compile(R"(
        int scalar = 42;
        double pi = 3.5;
        int arr[4] = { 1, 2, 3, 4 };
        char msg[8] = "hi";
        char* str = "hello";
        typedef struct { int a; double b; } P;
        P point = { 7, 2.5 };
    )");
    auto *scalar = mod->globalByName("scalar");
    EXPECT_EQ(scalar->init().intValue, 42);
    auto *arr = mod->globalByName("arr");
    ASSERT_EQ(arr->init().elems.size(), 4u);
    EXPECT_EQ(arr->init().elems[3].intValue, 4);
    auto *msg = mod->globalByName("msg");
    EXPECT_EQ(msg->init().kind, ir::Initializer::Kind::Bytes);
    auto *str = mod->globalByName("str");
    EXPECT_EQ(str->init().kind, ir::Initializer::Kind::Global);
}

TEST(CodeGen, PointerArithmeticForms)
{
    auto mod = compile(R"(
        long span(int* a, int* b) { return b - a; }
        int* shift(int* p, int n) { return p + n; }
        int deref(int* p) { return *(p + 3); }
        int idx(int* p) { return p[2]; }
    )");
    EXPECT_TRUE(ir::verifyModule(*mod).empty());
}

TEST(CodeGen, TwoDimensionalArrays)
{
    auto mod = compile(R"(
        int board[8][8];
        int get(int r, int c) { return board[r][c]; }
        void set(int r, int c, int v) { board[r][c] = v; }
    )");
    EXPECT_TRUE(ir::verifyModule(*mod).empty());
}

TEST(CodeGen, LogicalShortCircuitAndTernary)
{
    auto mod = compile(R"(
        int f(int a, int b) {
            int c = a && b;
            int d = a || b;
            return c ? a : (d ? b : 0);
        }
    )");
    EXPECT_TRUE(ir::verifyModule(*mod).empty());
}

TEST(CodeGen, DoWhileAndContinue)
{
    auto mod = compile(R"(
        int f(int n) {
            int s = 0;
            do {
                n--;
                if (n == 2) continue;
                s += n;
            } while (n > 0);
            return s;
        }
    )");
    ir::Function *fn = mod->functionByName("f");
    ASSERT_EQ(fn->loops().size(), 1u);
    EXPECT_NE(fn->loopByName("f_do.cond"), nullptr);
}

TEST(CodeGen, EnumConstants)
{
    auto mod = compile(R"(
        enum { PAWN, KNIGHT = 5, BISHOP };
        int f() { return PAWN + KNIGHT + BISHOP; }
    )");
    EXPECT_TRUE(ir::verifyModule(*mod).empty());
}

TEST(CodeGen, StructCopyViaMemcpy)
{
    auto mod = compile(R"(
        typedef struct { int a; double b; } P;
        void copy(P* dst, P* src) { *dst = *src; }
    )");
    EXPECT_NE(mod->functionByName("memcpy"), nullptr);
}

TEST(CodeGen, VariadicPromotions)
{
    auto mod = compile(R"(
        int f() {
            char c = 3;
            float g = 1.5;
            printf("%d %f", c, g);
            return 0;
        }
    )");
    ir::Function *fn = mod->functionByName("f");
    // Find the printf call and check promoted operand types.
    for (const auto &bb : fn->blocks()) {
        for (const auto &inst : bb->insts()) {
            if (inst->op() == ir::Opcode::Call &&
                inst->callee()->name() == "printf") {
                EXPECT_EQ(inst->operand(1)->type()->str(), "i32");
                EXPECT_EQ(inst->operand(2)->type()->str(), "double");
            }
        }
    }
}
