#include "frontend/parser.hpp"

#include <set>

#include "frontend/lexer.hpp"
#include "support/logging.hpp"

namespace nol::frontend {

std::unique_ptr<TypeExpr>
TypeExpr::clone() const
{
    auto out = std::make_unique<TypeExpr>();
    out->kind = kind;
    out->base = base;
    out->isUnsigned = isUnsigned;
    out->name = name;
    out->isStructTag = isStructTag;
    out->arraySize = arraySize;
    out->variadic = variadic;
    if (inner)
        out->inner = inner->clone();
    for (const auto &p : params)
        out->params.push_back(p->clone());
    return out;
}

namespace {

/** The recursive-descent parser proper. */
class Parser
{
  public:
    Parser(std::vector<Token> tokens, std::string unit_name)
        : toks_(std::move(tokens)), unit_(std::move(unit_name))
    {}

    std::unique_ptr<TranslationUnit>
    run()
    {
        auto tu = std::make_unique<TranslationUnit>();
        tu->name = unit_;
        while (!check(Tok::Eof))
            parseTopLevel(*tu);
        return tu;
    }

  private:
    // --- Token helpers ----------------------------------------------------
    const Token &peek(size_t ahead = 0) const
    {
        size_t idx = std::min(pos_ + ahead, toks_.size() - 1);
        return toks_[idx];
    }

    bool check(Tok kind) const { return peek().kind == kind; }

    const Token &
    advance()
    {
        const Token &tok = toks_[pos_];
        if (pos_ + 1 < toks_.size())
            ++pos_;
        return tok;
    }

    bool
    match(Tok kind)
    {
        if (check(kind)) {
            advance();
            return true;
        }
        return false;
    }

    const Token &
    expect(Tok kind, const char *context)
    {
        if (!check(kind)) {
            fatal("%s:%d:%d: expected '%s' %s, found '%s'", unit_.c_str(),
                  peek().line, peek().col, tokName(kind), context,
                  tokName(peek().kind));
        }
        return advance();
    }

    [[noreturn]] void
    error(const std::string &what)
    {
        fatal("%s:%d:%d: %s", unit_.c_str(), peek().line, peek().col,
              what.c_str());
    }

    /** Nesting levels taken while one construct is parsed; see
     *  kMaxNesting. */
    class Nest
    {
      public:
        /** Take one level now if @p enter, else only on deeper(). */
        explicit Nest(Parser &p, bool enter = true) : p_(p)
        {
            if (enter)
                deeper();
        }
        ~Nest() { p_.depth_ -= levels_; }
        Nest(const Nest &) = delete;
        Nest &operator=(const Nest &) = delete;

        void
        deeper()
        {
            ++levels_;
            if (++p_.depth_ > kMaxNesting) {
                p_.error("nesting deeper than " +
                         std::to_string(kMaxNesting) + " levels");
            }
        }

      private:
        Parser &p_;
        int levels_ = 0;
    };

    // --- Type recognition ----------------------------------------------------
    bool
    startsType(const Token &tok) const
    {
        switch (tok.kind) {
          case Tok::KwVoid:
          case Tok::KwBool:
          case Tok::KwChar:
          case Tok::KwShort:
          case Tok::KwInt:
          case Tok::KwLong:
          case Tok::KwFloat:
          case Tok::KwDouble:
          case Tok::KwUnsigned:
          case Tok::KwSigned:
          case Tok::KwConst:
          case Tok::KwStruct:
            return true;
          case Tok::Identifier:
            return typedefs_.count(tok.text) != 0;
          default:
            return false;
        }
    }

    /** Parse decl-specifiers: [const] [unsigned|signed] base. */
    std::unique_ptr<TypeExpr>
    parseTypeSpec(bool *is_const = nullptr)
    {
        bool konst = false;
        while (match(Tok::KwConst))
            konst = true;

        auto te = std::make_unique<TypeExpr>();
        bool has_sign = false;
        if (match(Tok::KwUnsigned)) {
            te->isUnsigned = true;
            has_sign = true;
        } else if (match(Tok::KwSigned)) {
            has_sign = true;
        }

        if (match(Tok::KwVoid)) {
            te->base = TypeExpr::Base::Void;
        } else if (match(Tok::KwBool)) {
            te->base = TypeExpr::Base::Bool;
        } else if (match(Tok::KwChar)) {
            te->base = TypeExpr::Base::Char;
        } else if (match(Tok::KwShort)) {
            te->base = TypeExpr::Base::Short;
            match(Tok::KwInt);
        } else if (match(Tok::KwInt)) {
            te->base = TypeExpr::Base::Int;
        } else if (match(Tok::KwLong)) {
            te->base = TypeExpr::Base::Long;
            match(Tok::KwLong); // "long long" == long
            match(Tok::KwInt);
        } else if (match(Tok::KwFloat)) {
            te->base = TypeExpr::Base::Float;
        } else if (match(Tok::KwDouble)) {
            te->base = TypeExpr::Base::Double;
        } else if (check(Tok::KwStruct)) {
            advance();
            const Token &name = expect(Tok::Identifier, "after 'struct'");
            te->kind = TypeExpr::Kind::Named;
            te->name = name.text;
            te->isStructTag = true;
        } else if (check(Tok::Identifier) && typedefs_.count(peek().text)) {
            te->kind = TypeExpr::Kind::Named;
            te->name = advance().text;
        } else if (has_sign) {
            te->base = TypeExpr::Base::Int; // bare "unsigned"
        } else {
            error("expected a type");
        }

        while (match(Tok::KwConst))
            konst = true;
        if (is_const != nullptr)
            *is_const = konst;
        return te;
    }

    /** Wrap @p base in @p depth pointer levels. */
    static std::unique_ptr<TypeExpr>
    wrapPointers(std::unique_ptr<TypeExpr> base, int depth)
    {
        for (int i = 0; i < depth; ++i) {
            auto ptr = std::make_unique<TypeExpr>();
            ptr->kind = TypeExpr::Kind::Pointer;
            ptr->inner = std::move(base);
            base = std::move(ptr);
        }
        return base;
    }

    /**
     * Parse a declarator after the type specifier. Supports
     *   *... name [N]...            plain (possibly array) declarators
     *   *... (*name)(params)        pointer-to-function declarators
     * If @p name_out is null the declarator must be abstract.
     */
    std::unique_ptr<TypeExpr>
    parseDeclarator(std::unique_ptr<TypeExpr> base, std::string *name_out)
    {
        Nest nest(*this, false);
        int stars = 0;
        while (match(Tok::Star)) {
            nest.deeper();
            ++stars;
        }
        base = wrapPointers(std::move(base), stars);

        // Pointer-to-function: (*name)(params)
        if (check(Tok::LParen) && peek(1).kind == Tok::Star) {
            nest.deeper();
            advance(); // (
            advance(); // *
            if (name_out != nullptr && check(Tok::Identifier))
                *name_out = advance().text;
            expect(Tok::RParen, "after function-pointer declarator");
            expect(Tok::LParen, "to begin function-pointer parameters");
            auto fn = std::make_unique<TypeExpr>();
            fn->kind = TypeExpr::Kind::Function;
            fn->inner = std::move(base);
            if (!check(Tok::RParen)) {
                do {
                    if (match(Tok::Ellipsis)) {
                        fn->variadic = true;
                        break;
                    }
                    auto pt = parseTypeSpec();
                    pt = parseDeclarator(std::move(pt), nullptr);
                    // "void" alone means an empty parameter list.
                    if (pt->kind == TypeExpr::Kind::Base &&
                        pt->base == TypeExpr::Base::Void) {
                        break;
                    }
                    fn->params.push_back(std::move(pt));
                } while (match(Tok::Comma));
            }
            expect(Tok::RParen, "after function-pointer parameters");
            auto ptr = std::make_unique<TypeExpr>();
            ptr->kind = TypeExpr::Kind::Pointer;
            ptr->inner = std::move(fn);
            base = std::move(ptr);
            // Arrays of function pointers: (*name[N])(...) unsupported;
            // use a typedef instead.
            return base;
        }

        if (name_out != nullptr && check(Tok::Identifier))
            *name_out = advance().text;

        // Array suffixes, innermost dimension last.
        std::vector<std::unique_ptr<Expr>> dims;
        while (match(Tok::LBracket)) {
            nest.deeper();
            dims.push_back(parseConditional());
            expect(Tok::RBracket, "after array size");
        }
        for (size_t i = dims.size(); i > 0; --i) {
            auto arr = std::make_unique<TypeExpr>();
            arr->kind = TypeExpr::Kind::Array;
            arr->arraySize = std::move(dims[i - 1]);
            arr->inner = std::move(base);
            base = std::move(arr);
        }
        return base;
    }

    // --- Top level ----------------------------------------------------------
    void
    parseTopLevel(TranslationUnit &tu)
    {
        while (match(Tok::KwExtern) || match(Tok::KwStatic)) {
        }

        if (check(Tok::KwTypedef)) {
            parseTypedef(tu);
            return;
        }
        if (check(Tok::KwStruct) && peek(2).kind == Tok::LBrace) {
            parseStructDef(tu, /*is_typedef=*/false);
            return;
        }
        if (check(Tok::KwEnum)) {
            parseEnum(tu);
            return;
        }

        bool is_const = false;
        auto base = parseTypeSpec(&is_const);
        std::string name;
        auto type = parseDeclarator(base->clone(), &name);
        if (name.empty())
            error("expected a declarator name");

        if (check(Tok::LParen)) {
            parseFunction(tu, std::move(type), name);
            return;
        }

        // Global variable(s).
        while (true) {
            auto decl = std::make_unique<Decl>(DeclKind::GlobalVar);
            decl->line = peek().line;
            decl->name = name;
            decl->type = std::move(type);
            decl->isConst = is_const;
            if (match(Tok::Assign))
                decl->init = parseInit();
            tu.decls.push_back(std::move(decl));
            if (!match(Tok::Comma))
                break;
            name.clear();
            type = parseDeclarator(base->clone(), &name);
            if (name.empty())
                error("expected a declarator name");
        }
        expect(Tok::Semicolon, "after global variable");
    }

    void
    parseTypedef(TranslationUnit &tu)
    {
        expect(Tok::KwTypedef, "to begin typedef");
        if (check(Tok::KwStruct) &&
            (peek(1).kind == Tok::LBrace || peek(2).kind == Tok::LBrace)) {
            parseStructDef(tu, /*is_typedef=*/true);
            return;
        }
        auto base = parseTypeSpec();
        std::string name;
        auto type = parseDeclarator(std::move(base), &name);
        if (name.empty())
            error("typedef requires a name");
        expect(Tok::Semicolon, "after typedef");

        auto decl = std::make_unique<Decl>(DeclKind::Typedef);
        decl->name = name;
        decl->aliased = std::move(type);
        typedefs_.insert(name);
        tu.decls.push_back(std::move(decl));
    }

    /** struct Tag { ... }; or typedef struct [Tag] { ... } Name; */
    void
    parseStructDef(TranslationUnit &tu, bool is_typedef)
    {
        expect(Tok::KwStruct, "to begin struct");
        std::string tag;
        if (check(Tok::Identifier))
            tag = advance().text;
        expect(Tok::LBrace, "to begin struct body");

        auto decl = std::make_unique<Decl>(DeclKind::Struct);
        decl->line = peek().line;
        while (!check(Tok::RBrace)) {
            auto base = parseTypeSpec();
            while (true) {
                FieldDecl field;
                field.line = peek().line;
                field.type = parseDeclarator(base->clone(), &field.name);
                if (field.name.empty())
                    error("struct field requires a name");
                decl->fields.push_back(std::move(field));
                if (!match(Tok::Comma))
                    break;
            }
            expect(Tok::Semicolon, "after struct field");
        }
        expect(Tok::RBrace, "to end struct body");

        std::string typedef_name;
        if (is_typedef) {
            typedef_name = expect(Tok::Identifier, "typedef name").text;
            typedefs_.insert(typedef_name);
        }
        expect(Tok::Semicolon, "after struct definition");

        decl->name = !typedef_name.empty() ? typedef_name : tag;
        if (decl->name.empty())
            error("anonymous struct without typedef name");
        if (!tag.empty() && tag != decl->name)
            decl->structTag = tag;
        tu.decls.push_back(std::move(decl));
    }

    void
    parseEnum(TranslationUnit &tu)
    {
        expect(Tok::KwEnum, "to begin enum");
        if (check(Tok::Identifier))
            advance(); // optional tag, unused
        expect(Tok::LBrace, "to begin enum body");

        auto decl = std::make_unique<Decl>(DeclKind::Enum);
        decl->line = peek().line;
        while (!check(Tok::RBrace)) {
            const Token &name = expect(Tok::Identifier, "enumerator");
            EnumeratorDecl e{name.text, nullptr, name.line};
            if (match(Tok::Assign))
                e.value = parseConditional();
            decl->enumerators.push_back(std::move(e));
            if (!match(Tok::Comma))
                break;
        }
        expect(Tok::RBrace, "to end enum body");
        expect(Tok::Semicolon, "after enum");
        tu.decls.push_back(std::move(decl));
    }

    void
    parseFunction(TranslationUnit &tu, std::unique_ptr<TypeExpr> ret,
                  const std::string &name)
    {
        auto decl = std::make_unique<Decl>(DeclKind::Function);
        decl->line = peek().line;
        decl->name = name;
        decl->returnType = std::move(ret);

        expect(Tok::LParen, "to begin parameter list");
        if (!check(Tok::RParen)) {
            do {
                if (match(Tok::Ellipsis)) {
                    decl->variadic = true;
                    break;
                }
                ParamDecl param;
                param.line = peek().line;
                auto base = parseTypeSpec();
                param.type = parseDeclarator(std::move(base), &param.name);
                if (param.type->kind == TypeExpr::Kind::Base &&
                    param.type->base == TypeExpr::Base::Void &&
                    param.name.empty()) {
                    break; // (void)
                }
                decl->params.push_back(std::move(param));
            } while (match(Tok::Comma));
        }
        expect(Tok::RParen, "to end parameter list");

        if (match(Tok::Semicolon)) {
            tu.decls.push_back(std::move(decl)); // extern declaration
            return;
        }
        decl->funcBody = parseBlock();
        tu.decls.push_back(std::move(decl));
    }

    // --- Initializers -----------------------------------------------------
    std::unique_ptr<Init>
    parseInit()
    {
        Nest nest(*this);
        auto init = std::make_unique<Init>();
        init->line = peek().line;
        if (match(Tok::LBrace)) {
            init->isList = true;
            if (!check(Tok::RBrace)) {
                do {
                    if (check(Tok::RBrace))
                        break; // trailing comma
                    init->list.push_back(parseInit());
                } while (match(Tok::Comma));
            }
            expect(Tok::RBrace, "to end initializer list");
        } else {
            init->expr = parseAssignExpr();
        }
        return init;
    }

    // --- Statements ----------------------------------------------------------
    std::unique_ptr<Stmt>
    parseBlock()
    {
        expect(Tok::LBrace, "to begin block");
        auto block = std::make_unique<Stmt>(StmtKind::Block);
        block->line = peek().line;
        while (!check(Tok::RBrace) && !check(Tok::Eof))
            block->body.push_back(parseStmt());
        expect(Tok::RBrace, "to end block");
        return block;
    }

    std::unique_ptr<Stmt>
    parseStmt()
    {
        Nest nest(*this);
        int line = peek().line;
        switch (peek().kind) {
          case Tok::LBrace:
            return parseBlock();
          case Tok::KwIf: {
            advance();
            auto stmt = std::make_unique<Stmt>(StmtKind::If);
            stmt->line = line;
            expect(Tok::LParen, "after 'if'");
            stmt->cond = parseExpr();
            expect(Tok::RParen, "after if condition");
            stmt->then = parseStmt();
            if (match(Tok::KwElse))
                stmt->otherwise = parseStmt();
            return stmt;
          }
          case Tok::KwWhile: {
            advance();
            auto stmt = std::make_unique<Stmt>(StmtKind::While);
            stmt->line = line;
            expect(Tok::LParen, "after 'while'");
            stmt->cond = parseExpr();
            expect(Tok::RParen, "after while condition");
            stmt->then = parseStmt();
            return stmt;
          }
          case Tok::KwDo: {
            advance();
            auto stmt = std::make_unique<Stmt>(StmtKind::DoWhile);
            stmt->line = line;
            stmt->then = parseStmt();
            expect(Tok::KwWhile, "after do body");
            expect(Tok::LParen, "after 'while'");
            stmt->cond = parseExpr();
            expect(Tok::RParen, "after do-while condition");
            expect(Tok::Semicolon, "after do-while");
            return stmt;
          }
          case Tok::KwFor: {
            advance();
            auto stmt = std::make_unique<Stmt>(StmtKind::For);
            stmt->line = line;
            expect(Tok::LParen, "after 'for'");
            if (!check(Tok::Semicolon)) {
                if (startsType(peek()))
                    stmt->forInit = parseVarDecl();
                else {
                    auto init = std::make_unique<Stmt>(StmtKind::ExprStmt);
                    init->line = peek().line;
                    init->expr = parseExpr();
                    stmt->forInit = std::move(init);
                    expect(Tok::Semicolon, "after for initializer");
                }
            } else {
                advance();
            }
            if (!check(Tok::Semicolon))
                stmt->cond = parseExpr();
            expect(Tok::Semicolon, "after for condition");
            if (!check(Tok::RParen))
                stmt->forStep = parseExpr();
            expect(Tok::RParen, "after for clauses");
            stmt->then = parseStmt();
            return stmt;
          }
          case Tok::KwSwitch: {
            advance();
            auto stmt = std::make_unique<Stmt>(StmtKind::Switch);
            stmt->line = line;
            expect(Tok::LParen, "after 'switch'");
            stmt->cond = parseExpr();
            expect(Tok::RParen, "after switch value");
            expect(Tok::LBrace, "to begin switch body");
            while (!check(Tok::RBrace) && !check(Tok::Eof)) {
                if (check(Tok::KwCase)) {
                    advance();
                    auto c = std::make_unique<Stmt>(StmtKind::Case);
                    c->line = peek().line;
                    c->cond = parseExpr(); // folded by codegen
                    expect(Tok::Colon, "after case value");
                    stmt->body.push_back(std::move(c));
                } else if (check(Tok::KwDefault)) {
                    advance();
                    expect(Tok::Colon, "after 'default'");
                    stmt->body.push_back(
                        std::make_unique<Stmt>(StmtKind::Default));
                } else {
                    stmt->body.push_back(parseStmt());
                }
            }
            expect(Tok::RBrace, "to end switch body");
            return stmt;
          }
          case Tok::KwBreak: {
            advance();
            expect(Tok::Semicolon, "after 'break'");
            auto stmt = std::make_unique<Stmt>(StmtKind::Break);
            stmt->line = line;
            return stmt;
          }
          case Tok::KwContinue: {
            advance();
            expect(Tok::Semicolon, "after 'continue'");
            auto stmt = std::make_unique<Stmt>(StmtKind::Continue);
            stmt->line = line;
            return stmt;
          }
          case Tok::KwReturn: {
            advance();
            auto stmt = std::make_unique<Stmt>(StmtKind::Return);
            stmt->line = line;
            if (!check(Tok::Semicolon))
                stmt->expr = parseExpr();
            expect(Tok::Semicolon, "after return");
            return stmt;
          }
          case Tok::Semicolon: {
            advance();
            auto stmt = std::make_unique<Stmt>(StmtKind::Empty);
            stmt->line = line;
            return stmt;
          }
          default:
            if (startsType(peek()))
                return parseVarDecl();
            auto stmt = std::make_unique<Stmt>(StmtKind::ExprStmt);
            stmt->line = line;
            stmt->expr = parseExpr();
            expect(Tok::Semicolon, "after expression");
            return stmt;
        }
    }

    std::unique_ptr<Stmt>
    parseVarDecl()
    {
        auto stmt = std::make_unique<Stmt>(StmtKind::VarDecl);
        stmt->line = peek().line;
        auto base = parseTypeSpec();
        while (true) {
            VarDeclarator var;
            var.line = peek().line;
            var.type = parseDeclarator(base->clone(), &var.name);
            if (var.name.empty())
                error("expected a variable name");
            if (match(Tok::Assign))
                var.init = parseInit();
            stmt->decls.push_back(std::move(var));
            if (!match(Tok::Comma))
                break;
        }
        expect(Tok::Semicolon, "after variable declaration");
        return stmt;
    }

    // --- Expressions -----------------------------------------------------
    std::unique_ptr<Expr>
    parseExpr()
    {
        // Comma operator is not supported; parseExpr == assignment expr.
        return parseAssignExpr();
    }

    std::unique_ptr<Expr>
    parseAssignExpr()
    {
        auto lhs = parseConditional();
        switch (peek().kind) {
          case Tok::Assign:
          case Tok::PlusAssign:
          case Tok::MinusAssign:
          case Tok::StarAssign:
          case Tok::SlashAssign:
          case Tok::PercentAssign:
          case Tok::AmpAssign:
          case Tok::PipeAssign:
          case Tok::CaretAssign:
          case Tok::ShlAssign:
          case Tok::ShrAssign: {
            Nest nest(*this);
            auto expr = std::make_unique<Expr>(ExprKind::Assign);
            expr->line = peek().line;
            expr->op = advance().kind;
            expr->lhs = std::move(lhs);
            expr->rhs = parseAssignExpr();
            return expr;
          }
          default:
            return lhs;
        }
    }

    std::unique_ptr<Expr>
    parseConditional()
    {
        auto cond = parseBinary(0);
        if (!match(Tok::Question))
            return cond;
        Nest nest(*this);
        auto expr = std::make_unique<Expr>(ExprKind::Conditional);
        expr->line = peek().line;
        expr->lhs = std::move(cond);
        expr->rhs = parseAssignExpr();
        expect(Tok::Colon, "in conditional expression");
        expr->third = parseAssignExpr();
        return expr;
    }

    /** Binary-operator precedence, lowest first. */
    static int
    precedence(Tok op)
    {
        switch (op) {
          case Tok::PipePipe: return 1;
          case Tok::AmpAmp: return 2;
          case Tok::Pipe: return 3;
          case Tok::Caret: return 4;
          case Tok::Amp: return 5;
          case Tok::Eq:
          case Tok::Ne: return 6;
          case Tok::Lt:
          case Tok::Gt:
          case Tok::Le:
          case Tok::Ge: return 7;
          case Tok::Shl:
          case Tok::Shr: return 8;
          case Tok::Plus:
          case Tok::Minus: return 9;
          case Tok::Star:
          case Tok::Slash:
          case Tok::Percent: return 10;
          default: return -1;
        }
    }

    std::unique_ptr<Expr>
    parseBinary(int min_prec)
    {
        auto lhs = parseUnary();
        Nest chain(*this, false);
        while (true) {
            int prec = precedence(peek().kind);
            if (prec < 0 || prec < min_prec)
                return lhs;
            chain.deeper();
            Tok op = advance().kind;
            auto rhs = parseBinary(prec + 1);
            auto expr = std::make_unique<Expr>(ExprKind::Binary);
            expr->line = peek().line;
            expr->op = op;
            expr->lhs = std::move(lhs);
            expr->rhs = std::move(rhs);
            lhs = std::move(expr);
        }
    }

    std::unique_ptr<Expr>
    parseUnary()
    {
        Nest nest(*this);
        int line = peek().line;
        switch (peek().kind) {
          case Tok::Minus:
          case Tok::Bang:
          case Tok::Tilde:
          case Tok::Star:
          case Tok::Amp: {
            Tok op = advance().kind;
            auto expr = std::make_unique<Expr>(ExprKind::Unary);
            expr->line = line;
            expr->op = op;
            expr->lhs = parseUnary();
            return expr;
          }
          case Tok::Plus:
            advance();
            return parseUnary();
          case Tok::PlusPlus:
          case Tok::MinusMinus: {
            bool inc = advance().kind == Tok::PlusPlus;
            auto expr = std::make_unique<Expr>(ExprKind::Unary);
            expr->line = line;
            expr->op = inc ? Tok::PlusPlus : Tok::MinusMinus;
            expr->isIncrement = inc;
            expr->lhs = parseUnary();
            return expr;
          }
          case Tok::KwSizeof: {
            advance();
            if (check(Tok::LParen) && startsType(peek(1))) {
                advance();
                auto expr = std::make_unique<Expr>(ExprKind::SizeofType);
                expr->line = line;
                auto base = parseTypeSpec();
                expr->typeArg = parseDeclarator(std::move(base), nullptr);
                expect(Tok::RParen, "after sizeof type");
                return expr;
            }
            auto expr = std::make_unique<Expr>(ExprKind::SizeofExpr);
            expr->line = line;
            expr->lhs = parseUnary();
            return expr;
          }
          case Tok::LParen:
            if (startsType(peek(1))) {
                advance();
                auto expr = std::make_unique<Expr>(ExprKind::Cast);
                expr->line = line;
                auto base = parseTypeSpec();
                expr->typeArg = parseDeclarator(std::move(base), nullptr);
                expect(Tok::RParen, "after cast type");
                expr->lhs = parseUnary();
                return expr;
            }
            return parsePostfix();
          default:
            return parsePostfix();
        }
    }

    std::unique_ptr<Expr>
    parsePostfix()
    {
        auto expr = parsePrimary();
        Nest chain(*this, false);
        while (true) {
            int line = peek().line;
            if (match(Tok::LParen)) {
                auto call = std::make_unique<Expr>(ExprKind::Call);
                call->line = line;
                call->lhs = std::move(expr);
                if (!check(Tok::RParen)) {
                    do {
                        call->args.push_back(parseAssignExpr());
                    } while (match(Tok::Comma));
                }
                expect(Tok::RParen, "after call arguments");
                expr = std::move(call);
            } else if (match(Tok::LBracket)) {
                auto idx = std::make_unique<Expr>(ExprKind::Index);
                idx->line = line;
                idx->lhs = std::move(expr);
                idx->rhs = parseExpr();
                expect(Tok::RBracket, "after array index");
                expr = std::move(idx);
            } else if (match(Tok::Dot)) {
                auto mem = std::make_unique<Expr>(ExprKind::Member);
                mem->line = line;
                mem->lhs = std::move(expr);
                mem->name = expect(Tok::Identifier, "after '.'").text;
                expr = std::move(mem);
            } else if (match(Tok::Arrow)) {
                auto mem = std::make_unique<Expr>(ExprKind::Member);
                mem->line = line;
                mem->lhs = std::move(expr);
                mem->isArrow = true;
                mem->name = expect(Tok::Identifier, "after '->'").text;
                expr = std::move(mem);
            } else if (check(Tok::PlusPlus) || check(Tok::MinusMinus)) {
                bool inc = advance().kind == Tok::PlusPlus;
                auto post = std::make_unique<Expr>(ExprKind::PostIncDec);
                post->line = line;
                post->isIncrement = inc;
                post->lhs = std::move(expr);
                expr = std::move(post);
            } else {
                return expr;
            }
            chain.deeper();
        }
    }

    std::unique_ptr<Expr>
    parsePrimary()
    {
        int line = peek().line;
        if (check(Tok::IntLiteral) || check(Tok::CharLiteral)) {
            auto expr = std::make_unique<Expr>(ExprKind::IntLit);
            expr->line = line;
            expr->charLike = check(Tok::CharLiteral);
            expr->intValue = advance().intValue;
            return expr;
        }
        if (check(Tok::FloatLiteral)) {
            auto expr = std::make_unique<Expr>(ExprKind::FloatLit);
            expr->line = line;
            expr->floatValue = advance().floatValue;
            return expr;
        }
        if (check(Tok::StringLiteral)) {
            auto expr = std::make_unique<Expr>(ExprKind::StringLit);
            expr->line = line;
            expr->strValue = advance().strValue;
            // Adjacent string literals concatenate.
            while (check(Tok::StringLiteral))
                expr->strValue += advance().strValue;
            return expr;
        }
        if (check(Tok::Identifier)) {
            auto expr = std::make_unique<Expr>(ExprKind::Ident);
            expr->line = line;
            expr->name = advance().text;
            return expr;
        }
        if (match(Tok::LParen)) {
            auto expr = parseExpr();
            expect(Tok::RParen, "after parenthesized expression");
            return expr;
        }
        error(std::string("unexpected token '") + tokName(peek().kind) +
              "' in expression");
    }

    std::vector<Token> toks_;
    std::string unit_;
    size_t pos_ = 0;
    int depth_ = 0; ///< nesting levels taken; see Nest
    std::set<std::string> typedefs_;
};

} // namespace

std::unique_ptr<TranslationUnit>
parse(std::string_view source, const std::string &unit_name)
{
    return Parser(lex(source, unit_name), unit_name).run();
}

} // namespace nol::frontend
