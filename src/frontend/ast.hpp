/**
 * @file
 * Abstract syntax tree for MiniC. The parser builds this tree; codegen
 * resolves types and lowers it to IR in a single pass. Nodes are owned
 * by unique_ptr links from their parents.
 */
#ifndef NOL_FRONTEND_AST_HPP
#define NOL_FRONTEND_AST_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "frontend/token.hpp"

namespace nol::frontend {

struct Expr;

// ---------------------------------------------------------------------------
// Declared types (syntax only; resolved to ir::Type by codegen)
// ---------------------------------------------------------------------------

/** Syntactic type expression. */
struct TypeExpr {
    enum class Kind { Base, Named, Pointer, Array, Function };

    /** Builtin base types. */
    enum class Base {
        Void, Bool, Char, Short, Int, Long, Float, Double,
    };

    Kind kind = Kind::Base;
    Base base = Base::Int;
    bool isUnsigned = false;
    std::string name;                  ///< struct/typedef name (Named)
    bool isStructTag = false;          ///< Named came from "struct X"
    std::unique_ptr<TypeExpr> inner;   ///< pointee / element / return type
    std::shared_ptr<const Expr> arraySize; ///< Array; folded by codegen
    std::vector<std::unique_ptr<TypeExpr>> params; ///< Function
    bool variadic = false;             ///< Function

    std::unique_ptr<TypeExpr> clone() const;
};

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

/** Expression node kinds. */
enum class ExprKind {
    IntLit,
    FloatLit,
    StringLit,
    Ident,
    Unary,       // - ! ~ * & ++pre --pre
    Binary,      // arithmetic / relational / logical / bitwise
    Assign,      // = and compound assignments
    Conditional, // ?:
    Call,
    Index,       // a[i]
    Member,      // a.f / a->f
    Cast,
    SizeofType,
    SizeofExpr,
    PostIncDec,  // a++ / a--
};

/** An expression tree node ("fat node" across all kinds). */
struct Expr {
    ExprKind kind;
    int line = 0;

    // Literals
    int64_t intValue = 0;
    double floatValue = 0.0;
    std::string strValue;
    bool charLike = false; ///< IntLit came from a char literal

    // Ident / Member field name
    std::string name;

    // Operators: token of the operator ("+", "<=", "+=", "++", ...)
    Tok op = Tok::Eof;
    bool isArrow = false;   ///< Member: -> vs .
    bool isIncrement = false; ///< PostIncDec / pre inc-dec

    std::unique_ptr<Expr> lhs; ///< also: unary operand, call callee, cast arg
    std::unique_ptr<Expr> rhs;
    std::unique_ptr<Expr> third; ///< conditional's false branch
    std::vector<std::unique_ptr<Expr>> args; ///< call arguments
    std::unique_ptr<TypeExpr> typeArg;       ///< cast / sizeof(type)

    explicit Expr(ExprKind k) : kind(k) {}
};

// ---------------------------------------------------------------------------
// Initializers
// ---------------------------------------------------------------------------

/** A scalar initializer expression or a brace-enclosed list. */
struct Init {
    std::unique_ptr<Expr> expr;              ///< scalar form
    std::vector<std::unique_ptr<Init>> list; ///< brace list form
    bool isList = false;
    int line = 0;
};

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

/** Statement node kinds. */
enum class StmtKind {
    Block,
    If,
    While,
    DoWhile,
    For,
    Switch,
    Case,     // only inside Switch bodies
    Default,  // only inside Switch bodies
    Break,
    Continue,
    Return,
    ExprStmt,
    VarDecl,
    Empty,
};

struct Stmt;

/** One declarator of a local VarDecl ("int x = 3, *p;"). */
struct VarDeclarator {
    std::string name;
    std::unique_ptr<TypeExpr> type;
    std::unique_ptr<Init> init; ///< may be null
    int line = 0;
};

/** A statement tree node. */
struct Stmt {
    StmtKind kind;
    int line = 0;

    std::vector<std::unique_ptr<Stmt>> body; ///< Block / Switch contents
    std::unique_ptr<Expr> cond;              ///< If/While/DoWhile/For/Switch/Case
    std::unique_ptr<Stmt> then;              ///< If then / loop body
    std::unique_ptr<Stmt> otherwise;         ///< If else
    std::unique_ptr<Stmt> forInit;           ///< For clause 1 (stmt)
    std::unique_ptr<Expr> forStep;           ///< For clause 3
    std::unique_ptr<Expr> expr;              ///< ExprStmt / Return value
    std::vector<VarDeclarator> decls;        ///< VarDecl

    explicit Stmt(StmtKind k) : kind(k) {}
};

// ---------------------------------------------------------------------------
// Top-level declarations
// ---------------------------------------------------------------------------

/** One field of a struct declaration. */
struct FieldDecl {
    std::string name;
    std::unique_ptr<TypeExpr> type;
    int line = 0;
};

/** One enumerator; a null value is the previous one plus 1. */
struct EnumeratorDecl {
    std::string name;
    std::unique_ptr<Expr> value;
    int line = 0;
};

/** One function parameter. */
struct ParamDecl {
    std::string name;
    std::unique_ptr<TypeExpr> type;
    int line = 0;
};

/** Top-level declaration kinds. */
enum class DeclKind {
    Struct,
    Typedef,
    Enum,
    GlobalVar,
    Function,
};

/** A top-level declaration. */
struct Decl {
    DeclKind kind;
    int line = 0;
    std::string name;

    // Struct
    std::vector<FieldDecl> fields;
    std::string structTag; ///< "struct Tag" name if distinct from name

    // Typedef
    std::unique_ptr<TypeExpr> aliased;

    // Enum: values are folded by codegen
    std::vector<EnumeratorDecl> enumerators;

    // GlobalVar
    std::unique_ptr<TypeExpr> type;
    std::unique_ptr<Init> init;
    bool isConst = false;

    // Function
    std::vector<ParamDecl> params;
    bool variadic = false;
    std::unique_ptr<TypeExpr> returnType;
    std::unique_ptr<Stmt> funcBody; ///< null for extern declarations

    explicit Decl(DeclKind k) : kind(k) {}
};

/** A parsed translation unit. */
struct TranslationUnit {
    std::string name;
    std::vector<std::unique_ptr<Decl>> decls;
};

} // namespace nol::frontend

#endif // NOL_FRONTEND_AST_HPP
