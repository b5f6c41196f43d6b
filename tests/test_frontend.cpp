/**
 * @file
 * MiniC front-end tests: lexing, parsing, type resolution, lowering of
 * every statement/expression form, loop metadata, and error handling.
 */
#include <gtest/gtest.h>

#include "frontend/builtins.hpp"
#include "frontend/codegen.hpp"
#include "frontend/lexer.hpp"
#include "frontend/parser.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"
#include "support/logging.hpp"
#include "support/rng.hpp"
#include "workloads/workloads.hpp"

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

/** @p source cut at the start of each token; a piece keeps the
 *  whitespace and comments that follow its token. */
std::vector<std::string>
tokenPieces(const std::string &source)
{
    std::vector<size_t> line_start{0};
    for (size_t i = 0; i < source.size(); ++i) {
        if (source[i] == '\n')
            line_start.push_back(i + 1);
    }
    std::vector<size_t> starts;
    for (const Token &tok : lex(source, "t")) {
        if (tok.kind != Tok::Eof)
            starts.push_back(line_start[tok.line - 1] + tok.col - 1);
    }
    starts.push_back(source.size());
    std::vector<std::string> pieces;
    for (size_t i = 0; i + 1 < starts.size(); ++i)
        pieces.push_back(source.substr(starts[i], starts[i + 1] - starts[i]));
    return pieces;
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

TEST(CodeGen, ConstantsFoldWithTheGuestsArithmetic)
{
    // Each fold wraps as the guest's 64-bit arithmetic does; the host's
    // operators trapped (INT64_MIN / -1) or overflowed on these.
    auto mod = compile(R"(
        long quot = (-9223372036854775807 - 1) / -1;
        long shl = 1 << 70;
        long sum = 9223372036854775807 + 1;
        long neg = -(-9223372036854775807 - 1);
        int pick(long x) {
            switch (x) {
              case (-9223372036854775807 - 1) / -1: return 1;
              default: return 0;
            }
        }
    )");
    const int64_t kMin = INT64_MIN;
    EXPECT_EQ(mod->globalByName("quot")->init().intValue, kMin);
    EXPECT_EQ(mod->globalByName("shl")->init().intValue, 64); // 70 mod 64
    EXPECT_EQ(mod->globalByName("sum")->init().intValue, kMin);
    EXPECT_EQ(mod->globalByName("neg")->init().intValue, kMin);
    const ir::Instruction *sw = nullptr;
    for (const auto &bb : mod->functionByName("pick")->blocks()) {
        for (const auto &inst : bb->insts()) {
            if (inst->op() == ir::Opcode::Switch)
                sw = inst.get();
        }
    }
    ASSERT_NE(sw, nullptr);
    EXPECT_EQ(sw->caseValues(), std::vector<int64_t>{kMin});

    // An array size that wraps negative is rejected; a zero divisor is
    // not constant.
    EXPECT_THROW(compile("int a[9223372036854775807 * 2];"), FatalError);
    EXPECT_THROW(compile("long z = 1 / 0;"), FatalError);
    EXPECT_THROW(compile("int f(int x) { switch (x) { case 1 / 0: "
                         "return 1; } return 0; }"),
                 FatalError);
}

TEST(CodeGen, ConstantExpressionDimensionsAndEnumerators)
{
    auto mod = compile(R"(
        enum { N = 4, M = N * 2 + 1 };
        enum { A = 1 << 3, B, C = -B / 4 };
        int a[N * 2 + 1][M - N];
        int b = B;
        int c = C;
    )");
    const ir::Type *a = mod->globalByName("a")->valueType();
    EXPECT_EQ(a->str(), "[9 x [5 x i32]]");
    EXPECT_EQ(mod->globalByName("b")->init().intValue, 9);
    EXPECT_EQ(mod->globalByName("c")->init().intValue, -2);

    // Each diagnostic names the line of the offending expression.
    const struct {
        const char *source;
        const char *message;
    } bad[] = {
        {"int x;\nint a[x];", "test.c:2: array size must be an integer "
                               "constant"},
        {"int a[2 - 2];", "test.c:1: array size must be positive"},
        {"int f(int n) {\n  int a[n]; return 0; }",
         "test.c:2: array size must be an integer constant"},
        {"int x;\nenum { A = x };",
         "test.c:2: enumerator value must be an integer constant"},
        {"enum {\n  A = 1 / 0 };",
         "test.c:2: enumerator value must be an integer constant"},
        {"int f(int x) { switch (x) {\n  case x: return 1; } return 0; }",
         "test.c:2: case value must be an integer constant"},
    };
    for (const auto &input : bad) {
        SCOPED_TRACE(input.source);
        try {
            compile(input.source);
            ADD_FAILURE() << "compiled";
        } catch (const FatalError &e) {
            EXPECT_STREQ(e.what(), input.message);
        }
    }
}

TEST(CodeGen, MisuseEndsInADiagnosticNamingTheLine)
{
    // Each of these panicked or crashed: the lowering emitted IR the
    // builder or the verifier rejects, or created a second global of
    // one name.
    const struct {
        const char *source;
        const char *message;
    } bad[] = {
        {"int f(double d) {\n  return ~d; }",
         "test.c:2: operand of '~' is not an integer"},
        {"int head;\nint head;", "test.c:2: redefinition of global 'head'"},
        {"int f(void *vp) {\n  return *vp; }",
         "test.c:2: cannot read a value of type void"},
        {"typedef struct { int x; } S;\nint f(S *s) { *s += 1; return 0; }",
         "test.c:2: compound assignment to an array or struct"},
        {"int f() { int a[3];\n  a++; return 0; }",
         "test.c:2: ++/-- on unsupported type"},
        {"typedef struct { int x; } S; S arr[2];\n"
         "int f() { return arr[0][1]; }",
         "test.c:2: struct rvalues are not supported; take a pointer "
         "instead"},
        {"int f(int x) { switch (x) {\n  x = 1; case 1: return 0; } "
         "return 1; }",
         "test.c:2: statement before the first case label"},
        {"int f(int c) { if (c) int y;\n  y = 1; return y; }",
         "test.c:2: unknown variable 'y'"},
        {"int f(int c) { while (c) int y;\n  y = 1; return y; }",
         "test.c:2: unknown variable 'y'"},
        // An enumerator must fit in int (C 6.7.2.2), given or implied;
        // each compiled to a non-canonical i32 constant.
        {"enum {\n  A = 5000000000 };",
         "test.c:2: enumerator 'A' is outside the range of int"},
        {"enum { A = 2147483647,\n  B };",
         "test.c:2: enumerator 'B' is outside the range of int"},
        {"enum {\n  BIG = 9223372036854775807, WRAPPED };",
         "test.c:2: enumerator 'BIG' is outside the range of int"},
    };
    for (const auto &input : bad) {
        SCOPED_TRACE(input.source);
        try {
            compile(input.source);
            ADD_FAILURE() << "compiled";
        } catch (const FatalError &e) {
            EXPECT_STREQ(e.what(), input.message);
        }
    }
}

TEST(CodeGen, SwitchBodyDeclarationsReachEveryLaterLabel)
{
    // A label jumps into the scope of a declaration before it, live or
    // dead; the slot sits before the switch, which dominates each label.
    // The verifier rejected the first and the second read freed memory.
    for (const char *body : {"case 1: int y = x + 1; return y; "
                             "case 2: y = 2; return y;",
                             "case 1: return 0; int y; "
                             "case 2: y = 2; return y;"}) {
        SCOPED_TRACE(body);
        auto mod = compile(std::string("int f(int x) { switch (x) { ") +
                           body + " } return 0; }");
        const ir::BasicBlock *entry = mod->functionByName("f")->entry();
        bool slot_in_entry = false;
        for (const auto &inst : entry->insts())
            slot_in_entry |= inst->op() == ir::Opcode::Alloca &&
                             inst->name() == "y";
        EXPECT_TRUE(slot_in_entry);
    }
}

TEST(CodeGen, SizeofEvaluatesNothingAndLeavesNoTrace)
{
    // sizeof lowers its operand only for the type, inside a loop here:
    // no instruction, block, loop block, string or builtin declaration
    // of it may reach the module, which must print exactly as the one
    // that names the type, sized type included.
    const char *program = R"(
        int f() { return 1; }
        long g(int t) {
            int i = 0;
            int a = 1;
            long s = 0;
            for (int k = 0; k < 3; k++)
                s += sizeof(%s);
            return s + i + a;
        }
    )";
    auto text = [&](const std::string &operand) {
        std::string source(program);
        source.replace(source.find("%s"), 2, operand);
        return ir::printModule(*compile(source));
    };
    const struct {
        const char *operand;
        const char *type;
    } cases[] = {
        {"i++", "int"},
        {"f()", "int"},
        {"a && f()", "int"},
        {"t ? f() : 2", "int"},
        {"\"abc\"", "char[4]"},
        {"strlen(\"xyz\")", "long"},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.operand);
        EXPECT_EQ(text(c.operand), text(c.type));
    }
}

TEST(SourceMutation, EveryMutantCompilesOrEndsInAFatalError)
{
    // Each mutant makes 1-3 token edits to one of the 18 programs:
    // delete, duplicate, swap, or replace with or insert a token from
    // kTokens. Whatever the input, the frontend must return a module or
    // throw FatalError; a PanicError, a signal or a sanitizer report is
    // a frontend bug. The edits are printed so a failure reproduces.
    static const char *const kTokens[] = {
        ";", ",", "(", ")", "{", "}", "[", "]", "*", "&", "-", "~", "!",
        "=", "+=", "++", "?", ":", ".", "->", "0", "1", "1.5", "\"s\"",
        "'c'", "9223372036854775807", "int", "char", "double", "void",
        "struct", "typedef", "enum", "if", "while", "return", "break",
        "sizeof", "switch", "case", "default", "x",
    };
    const int kMutantsPerProgram = 50;
    std::vector<workloads::WorkloadSpec> programs = workloads::allWorkloads();
    programs.push_back(workloads::makeChess(3));
    Rng rng(1);
    for (const auto &spec : programs) {
        const std::vector<std::string> pieces = tokenPieces(spec.source);
        for (int m = 0; m < kMutantsPerProgram; ++m) {
            std::vector<std::string> mutant = pieces;
            std::string edits;
            for (int64_t e = rng.range(1, 3); e > 0; --e) {
                size_t at = rng.below(mutant.size());
                size_t other = rng.below(mutant.size());
                std::string tok =
                    std::string(kTokens[rng.below(std::size(kTokens))]) + " ";
                std::string where = " " + std::to_string(at);
                switch (rng.below(5)) {
                  case 0:
                    edits += " delete" + where;
                    mutant.erase(mutant.begin() + at);
                    break;
                  case 1:
                    edits += " duplicate" + where;
                    mutant.insert(mutant.begin() + at, mutant[at]);
                    break;
                  case 2:
                    edits += " swap" + where + " " + std::to_string(other);
                    std::swap(mutant[at], mutant[other]);
                    break;
                  case 3:
                    edits += " replace" + where + " " + tok;
                    mutant[at] = tok;
                    break;
                  default:
                    edits += " insert" + where + " " + tok;
                    mutant.insert(mutant.begin() + at, tok);
                    break;
                }
            }
            std::string source;
            for (const std::string &piece : mutant)
                source += piece;
            try {
                compileSource(source, spec.id + ".c");
            } catch (const FatalError &) {
            } catch (const std::exception &e) {
                ADD_FAILURE() << spec.id << " mutant " << m << ":" << edits
                              << ": " << e.what();
            }
        }
    }
}
