#include "frontend/codegen.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <optional>
#include <vector>

#include "frontend/builtins.hpp"
#include "frontend/parser.hpp"
#include "interp/guestops.h"
#include "ir/cfgutils.hpp"
#include "ir/irbuilder.hpp"
#include "ir/verifier.hpp"
#include "support/logging.hpp"

namespace nol::frontend {

namespace {

using ir::Opcode;

/** An IR type plus C-level signedness. */
struct QualType {
    const ir::Type *ty = nullptr;
    bool isUnsigned = false;
};

/** A computed value (rvalue). */
struct RV {
    ir::Value *v = nullptr;
    QualType qt;
};

/** An addressable location; addr has type pointer-to qt.ty. */
struct LV {
    ir::Value *addr = nullptr;
    QualType qt;
};

/** One named variable visible in a scope. */
struct VarInfo {
    ir::Value *addr = nullptr; ///< alloca or global (pointer-typed)
    QualType qt;               ///< the stored value type
};

/** break/continue targets of the innermost breakable construct. */
struct FlowCtx {
    ir::BasicBlock *breakTarget = nullptr;
    ir::BasicBlock *continueTarget = nullptr; ///< null inside switch
};

class CodeGen
{
  public:
    explicit CodeGen(const TranslationUnit &tu)
        : tu_(tu), module_(std::make_unique<ir::Module>(tu.name)),
          b_(*module_)
    {}

    std::unique_ptr<ir::Module>
    run()
    {
        // Pass 1: structs, typedefs, enums (in order), function decls.
        for (const auto &decl : tu_.decls) {
            switch (decl->kind) {
              case DeclKind::Struct: declareStruct(*decl); break;
              case DeclKind::Typedef: declareTypedef(*decl); break;
              case DeclKind::Enum: declareEnum(*decl); break;
              case DeclKind::Function: declareFunction(*decl); break;
              case DeclKind::GlobalVar: break;
            }
        }
        // Pass 2: globals (after all types are known).
        for (const auto &decl : tu_.decls) {
            if (decl->kind == DeclKind::GlobalVar)
                declareGlobal(*decl);
        }
        // Pass 3: function bodies.
        for (const auto &decl : tu_.decls) {
            if (decl->kind == DeclKind::Function && decl->funcBody)
                lowerFunctionBody(*decl);
        }
        ir::verifyModuleOrDie(*module_);
        return std::move(module_);
    }

  private:
    [[noreturn]] void
    err(int line, const std::string &what)
    {
        fatal("%s:%d: %s", tu_.name.c_str(), line, what.c_str());
    }

    ir::TypeContext &types() { return module_->types(); }

    // ====================================================================
    // Type resolution
    // ====================================================================

    QualType
    resolveType(const TypeExpr &te, int line)
    {
        switch (te.kind) {
          case TypeExpr::Kind::Base:
            switch (te.base) {
              case TypeExpr::Base::Void: return {types().voidTy(), false};
              case TypeExpr::Base::Bool: return {types().i8(), true};
              case TypeExpr::Base::Char: return {types().i8(), te.isUnsigned};
              case TypeExpr::Base::Short:
                return {types().i16(), te.isUnsigned};
              case TypeExpr::Base::Int: return {types().i32(), te.isUnsigned};
              case TypeExpr::Base::Long: return {types().i64(), te.isUnsigned};
              case TypeExpr::Base::Float: return {types().f32(), false};
              case TypeExpr::Base::Double: return {types().f64(), false};
            }
            break;
          case TypeExpr::Kind::Named: {
            if (!te.isStructTag) {
                auto it = typedefs_.find(te.name);
                if (it != typedefs_.end())
                    return it->second;
            }
            if (ir::StructType *st = types().structByName(te.name))
                return {st, false};
            // Struct tags may alias a typedef-named struct
            // ("typedef struct NodeT {...} Node" referenced as
            // "struct NodeT" inside its own fields).
            if (te.isStructTag) {
                auto alias = struct_tags_.find(te.name);
                if (alias != struct_tags_.end())
                    return {alias->second, false};
            }
            err(line, "unknown type '" + te.name + "'");
          }
          case TypeExpr::Kind::Pointer: {
            // The isUnsigned flag of a pointer/array QualType carries
            // the *element* signedness so loads through it convert
            // correctly (e.g. unsigned char buffers).
            QualType inner = resolveType(*te.inner, line);
            return {types().pointerTo(inner.ty), inner.isUnsigned};
          }
          case TypeExpr::Kind::Array: {
            QualType inner = resolveType(*te.inner, line);
            int64_t size = foldConstant(*te.arraySize, "array size");
            if (size <= 0)
                err(te.arraySize->line, "array size must be positive");
            return {types().arrayOf(inner.ty, static_cast<uint64_t>(size)),
                    inner.isUnsigned};
          }
          case TypeExpr::Kind::Function: {
            QualType ret = resolveType(*te.inner, line);
            std::vector<const ir::Type *> params;
            for (const auto &p : te.params)
                params.push_back(resolveType(*p, line).ty);
            return {types().functionTy(ret.ty, std::move(params),
                                       te.variadic),
                    false};
          }
        }
        panic("unhandled TypeExpr");
    }

    // ====================================================================
    // Top-level declarations
    // ====================================================================

    void
    declareStruct(const Decl &decl)
    {
        // Create first (empty) so self-referential pointers resolve.
        ir::StructType *st = types().structByName(decl.name);
        if (st == nullptr)
            st = types().createStruct(decl.name, {});
        if (!decl.structTag.empty())
            struct_tags_[decl.structTag] = st;
        std::vector<ir::StructType::Field> fields;
        for (const auto &field : decl.fields) {
            QualType qt = resolveType(*field.type, field.line);
            field_unsigned_[st].push_back(qt.isUnsigned);
            fields.push_back({field.name, qt.ty});
        }
        st->setFields(std::move(fields));
    }

    void
    declareTypedef(const Decl &decl)
    {
        typedefs_[decl.name] = resolveType(*decl.aliased, decl.line);
    }

    void
    declareEnum(const Decl &decl)
    {
        int64_t next = 0;
        for (const EnumeratorDecl &e : decl.enumerators) {
            if (e.value != nullptr)
                next = foldConstant(*e.value, "enumerator value");
            if (next != static_cast<int32_t>(next)) // C 6.7.2.2
                err(e.line, "enumerator '" + e.name +
                                "' is outside the range of int");
            enum_consts_[e.name] = next++;
        }
    }

    void
    declareFunction(const Decl &decl)
    {
        QualType ret = resolveType(*decl.returnType, decl.line);
        if (ret.ty->isStruct() || ret.ty->isArray())
            err(decl.line, "functions may not return aggregates by value; "
                           "use an out-pointer");
        std::vector<const ir::Type *> params;
        std::vector<std::string> names;
        for (const auto &param : decl.params) {
            QualType qt = resolveType(*param.type, param.line);
            if (qt.ty->isStruct())
                err(param.line, "struct parameters must be passed by "
                                "pointer in MiniC");
            if (qt.ty->isArray()) // arrays decay in parameter lists
                qt.ty = types().pointerTo(
                    static_cast<const ir::ArrayType *>(qt.ty)->element());
            params.push_back(qt.ty);
            names.push_back(param.name);
        }
        const ir::FunctionType *fn_type =
            types().functionTy(ret.ty, std::move(params), decl.variadic);

        ir::Function *existing = module_->functionByName(decl.name);
        if (existing != nullptr) {
            if (existing->functionType() != fn_type)
                err(decl.line, "conflicting declaration of '" + decl.name +
                               "'");
            return;
        }
        ir::Function *fn = module_->createFunction(
            decl.name, fn_type, /*external=*/decl.funcBody == nullptr);
        fn->materializeArgs(names);
    }

    void
    declareGlobal(const Decl &decl)
    {
        if (globals_.count(decl.name) != 0)
            err(decl.line, "redefinition of global '" + decl.name + "'");
        QualType qt = resolveType(*decl.type, decl.line);
        ir::Initializer init = ir::Initializer::zero();
        if (decl.init != nullptr)
            init = lowerConstInit(*decl.init, qt);
        ir::GlobalVariable *gv =
            module_->createGlobal(decl.name, qt.ty, std::move(init),
                                  decl.isConst);
        globals_[decl.name] = {gv, qt};
    }

    // --- Constant initializers -------------------------------------------

    /**
     * The value of the integer constant expression @p expr, or nullopt
     * if it is not one. This is the frontend's one integer constant
     * evaluator: array sizes, enumerators, case labels and global
     * initializers all fold here. It computes with the guest's 64-bit
     * arithmetic (guestops.h), so an overflow wraps as it would at run
     * time; a zero divisor is not constant.
     */
    std::optional<int64_t>
    foldInt(const Expr &expr)
    {
        switch (expr.kind) {
          case ExprKind::IntLit:
            return expr.intValue;
          case ExprKind::Ident: {
            auto it = enum_consts_.find(expr.name);
            if (it != enum_consts_.end())
                return it->second;
            return std::nullopt;
          }
          case ExprKind::Unary: {
            auto v = foldInt(*expr.lhs);
            if (!v)
                return std::nullopt;
            if (expr.op == Tok::Minus)
                return nol_sub(0, *v, 64);
            if (expr.op == Tok::Tilde)
                return nol_xor(*v, -1, 64);
            return std::nullopt;
          }
          case ExprKind::Binary: {
            auto l = foldInt(*expr.lhs);
            auto r = foldInt(*expr.rhs);
            if (!l || !r)
                return std::nullopt;
            int64_t out = 0;
            switch (expr.op) {
              case Tok::Plus: return nol_add(*l, *r, 64);
              case Tok::Minus: return nol_sub(*l, *r, 64);
              case Tok::Star: return nol_mul(*l, *r, 64);
              case Tok::Slash:
                if (nol_sdiv(*l, *r, 64, &out) != NOL_TRAP_NONE)
                    return std::nullopt;
                return out;
              case Tok::Shl: return nol_shl(*l, *r, 64);
              case Tok::Shr: return nol_ashr(*l, *r, 64);
              case Tok::Pipe: return nol_or(*l, *r, 64);
              case Tok::Amp: return nol_and(*l, *r, 64);
              case Tok::Caret: return nol_xor(*l, *r, 64);
              default: return std::nullopt;
            }
          }
          default:
            return std::nullopt;
        }
    }

    /** foldInt(@p expr), which @p what requires to be constant. */
    int64_t
    foldConstant(const Expr &expr, const char *what)
    {
        auto v = foldInt(expr);
        if (!v)
            err(expr.line, std::string(what) + " must be an integer constant");
        return *v;
    }

    std::optional<double>
    foldFloat(const Expr &expr)
    {
        if (expr.kind == ExprKind::FloatLit)
            return expr.floatValue;
        if (expr.kind == ExprKind::Unary && expr.op == Tok::Minus) {
            auto v = foldFloat(*expr.lhs);
            return v ? std::optional<double>(-*v) : std::nullopt;
        }
        if (auto i = foldInt(expr))
            return static_cast<double>(*i);
        return std::nullopt;
    }

    ir::Initializer
    lowerConstInit(const Init &init, QualType target)
    {
        if (!init.isList) {
            const Expr &e = *init.expr;
            if (target.ty->isInt()) {
                auto v = foldInt(e);
                if (!v)
                    err(init.line, "global initializer is not constant");
                return ir::Initializer::ofInt(*v);
            }
            if (target.ty->isFloat()) {
                auto v = foldFloat(e);
                if (!v)
                    err(init.line, "global initializer is not constant");
                return ir::Initializer::ofFloat(*v);
            }
            if (target.ty->isPointer()) {
                if (e.kind == ExprKind::StringLit) {
                    ir::GlobalVariable *str = internString(e.strValue);
                    return ir::Initializer::ofGlobal(str);
                }
                if (e.kind == ExprKind::Ident) {
                    if (ir::Function *fn = module_->functionByName(e.name))
                        return ir::Initializer::ofFunction(fn);
                    if (ir::GlobalVariable *gv =
                            module_->globalByName(e.name))
                        return ir::Initializer::ofGlobal(gv);
                }
                if (e.kind == ExprKind::Unary && e.op == Tok::Amp &&
                    e.lhs->kind == ExprKind::Ident) {
                    if (ir::GlobalVariable *gv =
                            module_->globalByName(e.lhs->name))
                        return ir::Initializer::ofGlobal(gv);
                }
                auto v = foldInt(e);
                if (v && *v == 0)
                    return ir::Initializer::zero();
                err(init.line, "unsupported constant pointer initializer");
            }
            if (target.ty->isArray()) {
                const auto *arr =
                    static_cast<const ir::ArrayType *>(target.ty);
                if (e.kind == ExprKind::StringLit && arr->element()->isInt()) {
                    std::string bytes = e.strValue;
                    bytes.push_back('\0');
                    if (bytes.size() > arr->count())
                        err(init.line, "string too long for array");
                    return ir::Initializer::ofBytes(std::move(bytes));
                }
            }
            err(init.line, "unsupported global initializer form");
        }

        // Brace list: array or struct.
        if (target.ty->isArray()) {
            const auto *arr = static_cast<const ir::ArrayType *>(target.ty);
            if (init.list.size() > arr->count())
                err(init.line, "too many array initializers");
            std::vector<ir::Initializer> elems;
            for (const auto &item : init.list)
                elems.push_back(
                    lowerConstInit(*item, {arr->element(), false}));
            return ir::Initializer::aggregate(std::move(elems));
        }
        if (target.ty->isStruct()) {
            const auto *st = static_cast<const ir::StructType *>(target.ty);
            if (init.list.size() > st->numFields())
                err(init.line, "too many struct initializers");
            std::vector<ir::Initializer> elems;
            for (size_t i = 0; i < init.list.size(); ++i)
                elems.push_back(lowerConstInit(*init.list[i],
                                               {st->field(i).type, false}));
            return ir::Initializer::aggregate(std::move(elems));
        }
        err(init.line, "brace initializer for scalar");
    }

    ir::GlobalVariable *
    internString(const std::string &text)
    {
        auto it = strings_.find(text);
        if (it != strings_.end())
            return it->second;
        std::string bytes = text;
        bytes.push_back('\0');
        const ir::Type *arr_ty = types().arrayOf(types().i8(), bytes.size());
        ir::GlobalVariable *gv = module_->createGlobal(
            ".str" + std::to_string(strings_.size()), arr_ty,
            ir::Initializer::ofBytes(std::move(bytes)), /*is_const=*/true);
        strings_[text] = gv;
        return gv;
    }

    // ====================================================================
    // Function bodies
    // ====================================================================

    void
    lowerFunctionBody(const Decl &decl)
    {
        cur_fn_ = module_->functionByName(decl.name);
        NOL_ASSERT(cur_fn_ != nullptr, "function %s not declared",
                   decl.name.c_str());
        cur_ret_ = {cur_fn_->functionType()->returnType(), false};
        loop_name_used_.clear();

        ir::BasicBlock *entry = cur_fn_->createBlock("entry");
        b_.setInsertPoint(entry);
        pushScope();

        // Spill parameters into allocas so they are mutable lvalues.
        for (size_t i = 0; i < cur_fn_->numArgs(); ++i) {
            ir::Argument *arg = cur_fn_->arg(i);
            ir::Instruction *slot = b_.alloca_(arg->type(), arg->name());
            b_.store(arg, slot);
            bool is_unsigned = false;
            if (i < decl.params.size())
                is_unsigned = resolveType(*decl.params[i].type,
                                          decl.params[i].line)
                                  .isUnsigned;
            declareVar(decl.params[i].name, slot, {arg->type(), is_unsigned},
                       decl.params[i].line);
        }

        // The body block shares the parameter scope (C semantics: a
        // local redeclaring a parameter is an error).
        lowerStmtList(decl.funcBody->body);

        // Fall-off-the-end: synthesize a return.
        if (!b_.insertBlock()->isTerminated())
            emitDefaultReturn();

        popScope();
        ir::removeUnreachableBlocks(*cur_fn_);
        cur_fn_ = nullptr;
    }

    void
    emitDefaultReturn()
    {
        const ir::Type *ret = cur_ret_.ty;
        if (ret->isVoid()) {
            b_.ret();
        } else if (ret->isInt()) {
            b_.ret(module_->constInt(static_cast<const ir::IntType *>(ret), 0));
        } else if (ret->isFloat()) {
            b_.ret(module_->constFloat(
                static_cast<const ir::FloatType *>(ret), 0.0));
        } else if (ret->isPointer()) {
            b_.ret(module_->constNull(
                static_cast<const ir::PointerType *>(ret)));
        } else {
            b_.unreachable();
        }
    }

    // --- Scopes -----------------------------------------------------------

    void pushScope() { scopes_.emplace_back(); }
    void popScope() { scopes_.pop_back(); }

    void
    declareVar(const std::string &name, ir::Value *addr, QualType qt,
               int line)
    {
        if (name.empty())
            err(line, "parameter requires a name");
        auto &scope = scopes_.back();
        if (scope.count(name) != 0)
            err(line, "redefinition of '" + name + "'");
        scope[name] = {addr, qt};
    }

    const VarInfo *
    lookupVar(const std::string &name) const
    {
        for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
            auto found = it->find(name);
            if (found != it->end())
                return &found->second;
        }
        auto g = globals_.find(name);
        if (g != globals_.end())
            return &g->second;
        return nullptr;
    }

    // --- Loop bookkeeping --------------------------------------------------

    /** Create a block, registering it with every active loop. */
    ir::BasicBlock *
    newBlock(const std::string &name)
    {
        ir::BasicBlock *bb = cur_fn_->createBlock(name);
        for (ir::LoopMeta *loop : active_loops_)
            loop->blocks.push_back(bb);
        return bb;
    }

    std::string
    loopName(const char *kind, int line)
    {
        std::string base = cur_fn_->name() + "_" + kind + ".cond";
        if (loop_name_used_.insert(base).second)
            return base;
        std::string numbered = base + std::to_string(line);
        while (!loop_name_used_.insert(numbered).second)
            numbered += "_";
        return numbered;
    }

    // ====================================================================
    // Statements
    // ====================================================================

    void
    lowerStmtList(const std::vector<std::unique_ptr<Stmt>> &stmts)
    {
        for (size_t i = 0; i < stmts.size(); ++i) {
            lowerStmt(*stmts[i]);
            if (b_.insertBlock()->isTerminated() && i + 1 < stmts.size()) {
                // Dead code after break/continue/return still needs a
                // block to land in (pruned after lowering).
                b_.setInsertPoint(newBlock("dead"));
            }
        }
    }

    void
    lowerStmt(const Stmt &stmt)
    {
        switch (stmt.kind) {
          case StmtKind::Block:
            pushScope();
            lowerStmtList(stmt.body);
            popScope();
            break;
          case StmtKind::Empty:
            break;
          case StmtKind::ExprStmt:
            lowerExpr(*stmt.expr);
            break;
          case StmtKind::VarDecl:
            for (const auto &var : stmt.decls)
                lowerLocalVar(var);
            break;
          case StmtKind::Return:
            lowerReturn(stmt);
            break;
          case StmtKind::If:
            lowerIf(stmt);
            break;
          case StmtKind::While:
            lowerWhile(stmt);
            break;
          case StmtKind::DoWhile:
            lowerDoWhile(stmt);
            break;
          case StmtKind::For:
            lowerFor(stmt);
            break;
          case StmtKind::Switch:
            lowerSwitch(stmt);
            break;
          case StmtKind::Break: {
            if (flow_.empty())
                err(stmt.line, "'break' outside loop or switch");
            b_.br(flow_.back().breakTarget);
            b_.setInsertPoint(newBlock("after.break"));
            break;
          }
          case StmtKind::Continue: {
            ir::BasicBlock *target = nullptr;
            for (auto it = flow_.rbegin(); it != flow_.rend(); ++it) {
                if (it->continueTarget != nullptr) {
                    target = it->continueTarget;
                    break;
                }
            }
            if (target == nullptr)
                err(stmt.line, "'continue' outside loop");
            b_.br(target);
            b_.setInsertPoint(newBlock("after.continue"));
            break;
          }
          case StmtKind::Case:
          case StmtKind::Default:
            err(stmt.line, "case label outside switch");
        }
    }

    /** Lower the body of an if, else, while, do or for, which C scopes
     *  as a block even without braces (C11 6.8.4, 6.8.5). */
    void
    lowerBody(const Stmt &stmt)
    {
        pushScope();
        lowerStmt(stmt);
        popScope();
    }

    /** Lower local @p var. Its slot goes at the insert point, or before
     *  the terminator of @p slot_bb if given. */
    void
    lowerLocalVar(const VarDeclarator &var,
                  ir::BasicBlock *slot_bb = nullptr)
    {
        QualType qt = resolveType(*var.type, var.line);
        if (qt.ty->isVoid())
            err(var.line, "variable of void type");
        ir::BasicBlock *resume = b_.insertBlock();
        if (slot_bb != nullptr)
            b_.setInsertPoint(slot_bb, slot_bb->size() - 1);
        ir::Instruction *slot = b_.alloca_(qt.ty, var.name);
        b_.setInsertPoint(resume);
        declareVar(var.name, slot, qt, var.line);
        if (var.init == nullptr)
            return;
        if (!var.init->isList) {
            if (qt.ty->isStruct()) {
                err(var.line, "struct locals cannot be brace-initialized; "
                              "assign fields individually");
            }
            if (qt.ty->isArray()) {
                const auto *arr = static_cast<const ir::ArrayType *>(qt.ty);
                const Expr &e = *var.init->expr;
                if (e.kind == ExprKind::StringLit &&
                    arr->element() == types().i8()) {
                    lowerLocalStringInit(slot, arr, e, var.line);
                    return;
                }
                err(var.line, "array initializer must be a brace list");
            }
            RV value = lowerExpr(*var.init->expr);
            b_.store(convert(value, qt, var.line).v, slot);
            return;
        }
        // Brace list for a local array of scalars.
        if (!qt.ty->isArray())
            err(var.line, "brace initializer on non-array local");
        const auto *arr = static_cast<const ir::ArrayType *>(qt.ty);
        if (var.init->list.size() > arr->count())
            err(var.line, "too many initializers");
        QualType elem_qt{arr->element(), qt.isUnsigned};
        ir::Value *base = decayArray({slot, qt}).v;
        for (size_t i = 0; i < var.init->list.size(); ++i) {
            const Init &item = *var.init->list[i];
            if (item.isList)
                err(var.line, "nested brace initializers on locals are not "
                              "supported");
            RV value = lowerExpr(*item.expr);
            ir::Value *addr = b_.indexAddr(
                base, module_->constI64(static_cast<int64_t>(i)));
            b_.store(convert(value, elem_qt, var.line).v, addr);
        }
    }

    void
    lowerLocalStringInit(ir::Value *slot, const ir::ArrayType *arr,
                         const Expr &e, int line)
    {
        std::string bytes = e.strValue;
        bytes.push_back('\0');
        if (bytes.size() > arr->count())
            err(line, "string too long for array");
        ir::Value *base = decayArray({slot, {arr, false}}).v;
        for (size_t i = 0; i < bytes.size(); ++i) {
            ir::Value *addr = b_.indexAddr(
                base, module_->constI64(static_cast<int64_t>(i)));
            b_.store(module_->constInt(types().i8(), bytes[i]), addr);
        }
    }

    void
    lowerReturn(const Stmt &stmt)
    {
        if (cur_ret_.ty->isVoid()) {
            if (stmt.expr != nullptr)
                err(stmt.line, "return with value in void function");
            b_.ret();
        } else {
            if (stmt.expr == nullptr)
                err(stmt.line, "return without value");
            RV value = lowerExpr(*stmt.expr);
            b_.ret(convert(value, cur_ret_, stmt.line).v);
        }
        b_.setInsertPoint(newBlock("after.ret"));
    }

    void
    lowerIf(const Stmt &stmt)
    {
        ir::Value *cond = toBool(lowerExpr(*stmt.cond), stmt.line);
        ir::BasicBlock *then_bb = newBlock("if.then");
        ir::BasicBlock *merge_bb = newBlock("if.end");
        ir::BasicBlock *else_bb =
            stmt.otherwise != nullptr ? newBlock("if.else") : merge_bb;
        b_.condBr(cond, then_bb, else_bb);

        b_.setInsertPoint(then_bb);
        lowerBody(*stmt.then);
        if (!b_.insertBlock()->isTerminated())
            b_.br(merge_bb);

        if (stmt.otherwise != nullptr) {
            b_.setInsertPoint(else_bb);
            lowerBody(*stmt.otherwise);
            if (!b_.insertBlock()->isTerminated())
                b_.br(merge_bb);
        }
        b_.setInsertPoint(merge_bb);
    }

    void
    lowerWhile(const Stmt &stmt)
    {
        ir::BasicBlock *preheader = b_.insertBlock();
        ir::BasicBlock *exit_bb = newBlock("while.end");

        ir::LoopMeta meta;
        meta.name = loopName("while", stmt.line);
        meta.preheader = preheader;
        meta.exit = exit_bb;
        active_loops_.push_back(&meta);

        ir::BasicBlock *cond_bb = newBlock("while.cond");
        ir::BasicBlock *body_bb = newBlock("while.body");
        meta.header = cond_bb;

        b_.br(cond_bb);
        b_.setInsertPoint(cond_bb);
        ir::Value *cond = toBool(lowerExpr(*stmt.cond), stmt.line);
        b_.condBr(cond, body_bb, exit_bb);

        b_.setInsertPoint(body_bb);
        flow_.push_back({exit_bb, cond_bb});
        lowerBody(*stmt.then);
        flow_.pop_back();
        if (!b_.insertBlock()->isTerminated())
            b_.br(cond_bb);

        active_loops_.pop_back();
        cur_fn_->addLoop(std::move(meta));
        b_.setInsertPoint(exit_bb);
    }

    void
    lowerDoWhile(const Stmt &stmt)
    {
        ir::BasicBlock *preheader = b_.insertBlock();
        ir::BasicBlock *exit_bb = newBlock("do.end");

        ir::LoopMeta meta;
        meta.name = loopName("do", stmt.line);
        meta.preheader = preheader;
        meta.exit = exit_bb;
        active_loops_.push_back(&meta);

        ir::BasicBlock *body_bb = newBlock("do.body");
        ir::BasicBlock *cond_bb = newBlock("do.cond");
        meta.header = body_bb;

        b_.br(body_bb);
        b_.setInsertPoint(body_bb);
        flow_.push_back({exit_bb, cond_bb});
        lowerBody(*stmt.then);
        flow_.pop_back();
        if (!b_.insertBlock()->isTerminated())
            b_.br(cond_bb);

        b_.setInsertPoint(cond_bb);
        ir::Value *cond = toBool(lowerExpr(*stmt.cond), stmt.line);
        b_.condBr(cond, body_bb, exit_bb);

        active_loops_.pop_back();
        cur_fn_->addLoop(std::move(meta));
        b_.setInsertPoint(exit_bb);
    }

    void
    lowerFor(const Stmt &stmt)
    {
        pushScope();
        if (stmt.forInit != nullptr)
            lowerStmt(*stmt.forInit);

        ir::BasicBlock *preheader = b_.insertBlock();
        ir::BasicBlock *exit_bb = newBlock("for.end");

        ir::LoopMeta meta;
        meta.name = loopName("for", stmt.line);
        meta.preheader = preheader;
        meta.exit = exit_bb;
        active_loops_.push_back(&meta);

        ir::BasicBlock *cond_bb = newBlock("for.cond");
        ir::BasicBlock *body_bb = newBlock("for.body");
        ir::BasicBlock *step_bb = newBlock("for.step");
        meta.header = cond_bb;

        b_.br(cond_bb);
        b_.setInsertPoint(cond_bb);
        if (stmt.cond != nullptr) {
            ir::Value *cond = toBool(lowerExpr(*stmt.cond), stmt.line);
            b_.condBr(cond, body_bb, exit_bb);
        } else {
            b_.br(body_bb);
        }

        b_.setInsertPoint(body_bb);
        flow_.push_back({exit_bb, step_bb});
        lowerBody(*stmt.then);
        flow_.pop_back();
        if (!b_.insertBlock()->isTerminated())
            b_.br(step_bb);

        b_.setInsertPoint(step_bb);
        if (stmt.forStep != nullptr)
            lowerExpr(*stmt.forStep);
        b_.br(cond_bb);

        active_loops_.pop_back();
        cur_fn_->addLoop(std::move(meta));
        b_.setInsertPoint(exit_bb);
        popScope();
    }

    void
    lowerSwitch(const Stmt &stmt)
    {
        RV value = lowerExpr(*stmt.cond);
        if (!value.qt.ty->isInt())
            err(stmt.line, "switch value must be an integer");

        ir::BasicBlock *exit_bb = newBlock("switch.end");
        ir::Instruction *sw = b_.switch_(value.v, exit_bb);

        // Lower the body linearly; case labels start new blocks with
        // fall-through from the previous statement.
        flow_.push_back({exit_bb, nullptr});
        bool has_default = false;
        std::vector<int64_t> seen_cases;
        pushScope();
        for (const auto &child : stmt.body) {
            if (child->kind == StmtKind::Case ||
                child->kind == StmtKind::Default) {
                ir::BasicBlock *label_bb = newBlock("switch.case");
                if (!b_.insertBlock()->isTerminated())
                    b_.br(label_bb); // fall through
                b_.setInsertPoint(label_bb);
                if (child->kind == StmtKind::Case) {
                    int64_t value = foldConstant(*child->cond, "case value");
                    for (int64_t seen : seen_cases) {
                        if (seen == value)
                            err(child->line, "duplicate case value");
                    }
                    seen_cases.push_back(value);
                    sw->addCase(value);
                    sw->addSuccessor(label_bb);
                } else {
                    if (has_default)
                        err(child->line, "duplicate default label");
                    has_default = true;
                    sw->setSuccessor(0, label_bb);
                }
            } else {
                // Only the switch itself ends a block here.
                if (b_.insertBlock()->isTerminated())
                    err(child->line, "statement before the first case label");
                if (child->kind != StmtKind::VarDecl) {
                    lowerStmt(*child);
                    continue;
                }
                // Each later label jumps into the declaration's scope,
                // so its slot goes before the switch, which dominates
                // every label.
                for (const auto &var : child->decls)
                    lowerLocalVar(var, sw->parent());
            }
        }
        popScope();
        flow_.pop_back();
        if (!b_.insertBlock()->isTerminated())
            b_.br(exit_bb);
        b_.setInsertPoint(exit_bb);
    }

    // ====================================================================
    // Expressions
    // ====================================================================

    /** sizeof(T) lowered as the layout-dependent intrinsic. */
    ir::Value *
    emitSizeof(const ir::Type *ty)
    {
        ir::Function *intrinsic = declareBuiltin(*module_, kSizeofIntrinsic);
        ir::Instruction *call = b_.call(intrinsic, {});
        call->setAccessType(ty);
        return call;
    }

    ir::Value *
    toBool(RV value, int line)
    {
        const ir::Type *ty = value.qt.ty;
        if (ty->isInt()) {
            if (static_cast<const ir::IntType *>(ty)->bits() == 1)
                return value.v;
            return b_.cmp(Opcode::ICmpNe, value.v,
                          module_->constInt(
                              static_cast<const ir::IntType *>(ty), 0));
        }
        if (ty->isFloat()) {
            return b_.cmp(Opcode::FCmpNe, value.v,
                          module_->constFloat(
                              static_cast<const ir::FloatType *>(ty), 0.0));
        }
        if (ty->isPointer()) {
            ir::Value *as_int =
                b_.cast(Opcode::PtrToInt, value.v, types().i64());
            return b_.cmp(Opcode::ICmpNe, as_int, module_->constI64(0));
        }
        err(line, "value is not convertible to a boolean");
    }

    /** Implicit conversion of @p value to @p target. */
    RV
    convert(RV value, QualType target, int line)
    {
        const ir::Type *from = value.qt.ty;
        const ir::Type *to = target.ty;
        if (from == to)
            return {value.v, target};

        if (from->isInt() && to->isInt()) {
            uint32_t fb = static_cast<const ir::IntType *>(from)->bits();
            uint32_t tb = static_cast<const ir::IntType *>(to)->bits();
            if (fb == tb)
                return {value.v, target};
            Opcode op = fb > tb
                            ? Opcode::Trunc
                            : (value.qt.isUnsigned || fb == 1 ? Opcode::ZExt
                                                              : Opcode::SExt);
            return {b_.cast(op, value.v, to), target};
        }
        if (from->isInt() && to->isFloat()) {
            // i1 first widens to i32 so the SIToFP semantics are simple.
            ir::Value *v = value.v;
            if (static_cast<const ir::IntType *>(from)->bits() == 1)
                v = b_.cast(Opcode::ZExt, v, types().i32());
            return {b_.cast(Opcode::SIToFP, v, to), target};
        }
        if (from->isFloat() && to->isInt())
            return {b_.cast(Opcode::FPToSI, value.v, to), target};
        if (from->isFloat() && to->isFloat()) {
            uint32_t fb = static_cast<const ir::FloatType *>(from)->bits();
            uint32_t tb = static_cast<const ir::FloatType *>(to)->bits();
            Opcode op = fb > tb ? Opcode::FPTrunc : Opcode::FPExt;
            return {b_.cast(op, value.v, to), target};
        }
        if (from->isPointer() && to->isPointer())
            return {b_.cast(Opcode::Bitcast, value.v, to), target};
        if (from->isInt() && to->isPointer()) {
            ir::Value *wide = value.v;
            if (static_cast<const ir::IntType *>(from)->bits() != 64)
                wide = b_.cast(value.qt.isUnsigned ? Opcode::ZExt
                                                   : Opcode::SExt,
                               value.v, types().i64());
            return {b_.cast(Opcode::IntToPtr, wide, to), target};
        }
        if (from->isPointer() && to->isInt()) {
            ir::Value *as_int =
                b_.cast(Opcode::PtrToInt, value.v, types().i64());
            if (static_cast<const ir::IntType *>(to)->bits() != 64)
                as_int = b_.cast(Opcode::Trunc, as_int, to);
            return {as_int, target};
        }
        err(line, "cannot convert " + from->str() + " to " + to->str());
    }

    /** Usual arithmetic conversions for a binary operator. */
    QualType
    commonType(QualType a, QualType b, int line)
    {
        const ir::Type *ta = a.ty;
        const ir::Type *tb = b.ty;
        if (ta->isFloat() || tb->isFloat()) {
            uint32_t bits = 32;
            if (ta->isFloat())
                bits = std::max(
                    bits, static_cast<const ir::FloatType *>(ta)->bits());
            if (tb->isFloat())
                bits = std::max(
                    bits, static_cast<const ir::FloatType *>(tb)->bits());
            // Mixed int/float promotes to double per C's usual rules
            // when the int side is wider than the float mantissa; MiniC
            // simply promotes int+float to the float's width.
            return {bits == 64 ? static_cast<const ir::Type *>(types().f64())
                               : types().f32(),
                    false};
        }
        if (!ta->isInt() || !tb->isInt())
            err(line, "invalid operands to arithmetic operator");
        uint32_t wa = static_cast<const ir::IntType *>(ta)->bits();
        uint32_t wb = static_cast<const ir::IntType *>(tb)->bits();
        uint32_t width = std::max({wa, wb, 32u}); // integer promotion
        bool is_unsigned = false;
        if (wa == width && a.isUnsigned)
            is_unsigned = true;
        if (wb == width && b.isUnsigned)
            is_unsigned = true;
        return {types().intTy(width), is_unsigned};
    }

    // --- lvalues -------------------------------------------------------

    LV
    lowerLValue(const Expr &expr)
    {
        switch (expr.kind) {
          case ExprKind::StringLit: {
            ir::GlobalVariable *str = internString(expr.strValue);
            return {str, {str->valueType(), false}};
          }
          case ExprKind::Ident: {
            const VarInfo *var = lookupVar(expr.name);
            if (var == nullptr)
                err(expr.line, "unknown variable '" + expr.name + "'");
            return {var->addr, var->qt};
          }
          case ExprKind::Unary:
            if (expr.op == Tok::Star) {
                RV ptr = lowerExpr(*expr.lhs);
                if (!ptr.qt.ty->isPointer())
                    err(expr.line, "dereference of non-pointer");
                const ir::Type *pointee =
                    static_cast<const ir::PointerType *>(ptr.qt.ty)
                        ->pointee();
                return {ptr.v, {pointee, ptr.qt.isUnsigned}};
            }
            err(expr.line, "expression is not assignable");
          case ExprKind::Index: {
            RV base = lowerExpr(*expr.lhs);
            if (!base.qt.ty->isPointer())
                err(expr.line, "indexed value is not a pointer or array");
            RV index = lowerExpr(*expr.rhs);
            if (!index.qt.ty->isInt())
                err(expr.line, "array index must be an integer");
            ir::Value *idx64 =
                convert(index, {types().i64(), index.qt.isUnsigned},
                        expr.line)
                    .v;
            ir::Instruction *addr = b_.indexAddr(base.v, idx64);
            const ir::Type *elem =
                static_cast<const ir::PointerType *>(addr->type())
                    ->pointee();
            return {addr, {elem, base.qt.isUnsigned}};
          }
          case ExprKind::Member: {
            LV base;
            if (expr.isArrow) {
                RV ptr = lowerExpr(*expr.lhs);
                if (!ptr.qt.ty->isPointer())
                    err(expr.line, "'->' on non-pointer");
                const ir::Type *pointee =
                    static_cast<const ir::PointerType *>(ptr.qt.ty)
                        ->pointee();
                base = {ptr.v, {pointee, false}};
            } else {
                base = lowerLValue(*expr.lhs);
            }
            if (!base.qt.ty->isStruct())
                err(expr.line, "member access on non-struct");
            const auto *st =
                static_cast<const ir::StructType *>(base.qt.ty);
            int idx = st->fieldIndex(expr.name);
            if (idx < 0)
                err(expr.line, "no field '" + expr.name + "' in struct " +
                               st->name());
            ir::Instruction *addr =
                b_.fieldAddr(base.addr, static_cast<unsigned>(idx));
            return {addr,
                    {st->field(static_cast<size_t>(idx)).type,
                     fieldIsUnsigned(st, static_cast<size_t>(idx))}};
          }
          default:
            err(expr.line, "expression is not assignable");
        }
    }

    /** Signedness of field @p idx of @p st (side table). */
    bool
    fieldIsUnsigned(const ir::StructType *st, size_t idx) const
    {
        auto it = field_unsigned_.find(st);
        if (it == field_unsigned_.end() || idx >= it->second.size())
            return false;
        return it->second[idx];
    }

    /** Lvalue conversion of @p lv: an array or a function decays to a
     *  pointer, a scalar is loaded. */
    RV
    loadLValue(LV lv, int line, const std::string &name = "")
    {
        if (lv.qt.ty->isArray())
            return decayArray(lv);
        if (lv.qt.ty->isFunction())
            return {lv.addr, {lv.addr->type(), false}};
        if (lv.qt.ty->isStruct())
            err(line, "struct rvalues are not supported; take a pointer "
                      "instead");
        if (!lv.qt.ty->isScalar())
            err(line, "cannot read a value of type " + lv.qt.ty->str());
        return {b_.load(lv.addr, name), lv.qt};
    }

    /** Array lvalue → pointer-to-first-element rvalue. */
    RV
    decayArray(LV lv)
    {
        NOL_ASSERT(lv.qt.ty->isArray(), "decay of non-array");
        const auto *arr = static_cast<const ir::ArrayType *>(lv.qt.ty);
        const ir::Type *elem_ptr = types().pointerTo(arr->element());
        ir::Value *decayed = b_.cast(Opcode::Bitcast, lv.addr, elem_ptr);
        return {decayed, {elem_ptr, lv.qt.isUnsigned}};
    }

    // --- rvalues ----------------------------------------------------------

    RV
    lowerExpr(const Expr &expr)
    {
        switch (expr.kind) {
          case ExprKind::IntLit: {
            const ir::IntType *ty =
                expr.charLike ? types().i8() : types().i32();
            if (!expr.charLike &&
                (expr.intValue > 0x7fffffffll ||
                 expr.intValue < -0x80000000ll)) {
                return {module_->constI64(expr.intValue),
                        {types().i64(), false}};
            }
            return {module_->constInt(ty, expr.intValue), {ty, false}};
          }
          case ExprKind::FloatLit:
            return {module_->constFloat(types().f64(), expr.floatValue),
                    {types().f64(), false}};
          case ExprKind::StringLit:
            return decayArray(lowerLValue(expr));
          case ExprKind::Ident:
            return lowerIdent(expr);
          case ExprKind::Unary:
            return lowerUnary(expr);
          case ExprKind::Binary:
            return lowerBinary(expr);
          case ExprKind::Assign:
            return lowerAssign(expr);
          case ExprKind::Conditional:
            return lowerConditional(expr);
          case ExprKind::Call:
            return lowerCall(expr);
          case ExprKind::Index:
          case ExprKind::Member:
            return loadLValue(lowerLValue(expr), expr.line);
          case ExprKind::Cast: {
            QualType target = resolveType(*expr.typeArg, expr.line);
            RV value = lowerExpr(*expr.lhs);
            return convert(value, target, expr.line);
          }
          case ExprKind::SizeofType: {
            QualType target = resolveType(*expr.typeArg, expr.line);
            return {emitSizeof(target.ty), {types().i64(), true}};
          }
          case ExprKind::SizeofExpr:
            return {emitSizeof(lowerSizeofOperand(*expr.lhs).ty),
                    {types().i64(), true}};
          case ExprKind::PostIncDec:
            return lowerIncDec(*expr.lhs, expr.isIncrement,
                               /*want_old=*/true, expr.line);
        }
        panic("unhandled expression kind");
    }

    /**
     * The type of sizeof's operand, which C does not evaluate: it lowers
     * into a block no branch reaches (removeUnreachableBlocks drops it),
     * and the strings and builtins it declared are dropped here. An
     * lvalue is typed before lvalue conversion, so arrays, structs and
     * string literals keep their own type.
     */
    QualType
    lowerSizeofOperand(const Expr &expr)
    {
        ir::BasicBlock *resume = b_.insertBlock();
        size_t functions = module_->functions().size();
        size_t globals = module_->globals().size();
        auto strings = strings_;
        b_.setInsertPoint(newBlock("sizeof.operand"));
        bool lvalue =
            expr.kind == ExprKind::StringLit || expr.kind == ExprKind::Index ||
            expr.kind == ExprKind::Member ||
            (expr.kind == ExprKind::Unary && expr.op == Tok::Star) ||
            (expr.kind == ExprKind::Ident &&
             enum_consts_.count(expr.name) == 0 &&
             lookupVar(expr.name) != nullptr);
        QualType qt = lvalue ? lowerLValue(expr).qt : lowerExpr(expr).qt;
        b_.setInsertPoint(resume);
        while (module_->functions().size() > functions)
            module_->removeFunction(module_->functions().back().get());
        while (module_->globals().size() > globals)
            module_->removeGlobal(module_->globals().back().get());
        strings_ = std::move(strings);
        return qt;
    }

    RV
    lowerIdent(const Expr &expr)
    {
        auto en = enum_consts_.find(expr.name);
        if (en != enum_consts_.end())
            return {module_->constI32(en->second), {types().i32(), false}};

        if (const VarInfo *var = lookupVar(expr.name))
            return loadLValue({var->addr, var->qt}, expr.line, expr.name);
        if (ir::Function *fn = module_->functionByName(expr.name))
            return {fn, {fn->type(), false}};
        err(expr.line, "unknown identifier '" + expr.name + "'");
    }

    RV
    lowerUnary(const Expr &expr)
    {
        switch (expr.op) {
          case Tok::Minus: {
            RV value = lowerExpr(*expr.lhs);
            if (value.qt.ty->isFloat()) {
                ir::Value *zero = module_->constFloat(
                    static_cast<const ir::FloatType *>(value.qt.ty), 0.0);
                return {b_.binary(Opcode::FSub, zero, value.v), value.qt};
            }
            RV widened =
                convert(value, commonType(value.qt, value.qt, expr.line),
                        expr.line);
            ir::Value *zero = module_->constInt(
                static_cast<const ir::IntType *>(widened.qt.ty), 0);
            return {b_.binary(Opcode::Sub, zero, widened.v), widened.qt};
          }
          case Tok::Bang: {
            ir::Value *cond = toBool(lowerExpr(*expr.lhs), expr.line);
            ir::Value *flipped = b_.binary(
                Opcode::Xor, cond, module_->constBool(true));
            return {b_.cast(Opcode::ZExt, flipped, types().i32()),
                    {types().i32(), false}};
          }
          case Tok::Tilde: {
            RV value = lowerExpr(*expr.lhs);
            if (!value.qt.ty->isInt())
                err(expr.line, "operand of '~' is not an integer");
            RV widened =
                convert(value, commonType(value.qt, value.qt, expr.line),
                        expr.line);
            ir::Value *ones = module_->constInt(
                static_cast<const ir::IntType *>(widened.qt.ty), -1);
            return {b_.binary(Opcode::Xor, widened.v, ones), widened.qt};
          }
          case Tok::Star:
            return loadLValue(lowerLValue(expr), expr.line);
          case Tok::Amp: {
            // &function is just the function value.
            if (expr.lhs->kind == ExprKind::Ident) {
                if (ir::Function *fn =
                        module_->functionByName(expr.lhs->name)) {
                    if (lookupVar(expr.lhs->name) == nullptr)
                        return {fn, {fn->type(), false}};
                }
            }
            LV lv = lowerLValue(*expr.lhs);
            return {lv.addr, {types().pointerTo(lv.qt.ty), false}};
          }
          case Tok::PlusPlus:
          case Tok::MinusMinus:
            return lowerIncDec(*expr.lhs, expr.op == Tok::PlusPlus,
                               /*want_old=*/false, expr.line);
          default:
            panic("unhandled unary operator");
        }
    }

    RV
    lowerIncDec(const Expr &target, bool increment, bool want_old, int line)
    {
        LV lv = lowerLValue(target);
        if (!lv.qt.ty->isScalar())
            err(line, "++/-- on unsupported type");
        ir::Value *old_value = b_.load(lv.addr);
        ir::Value *new_value = nullptr;
        if (lv.qt.ty->isPointer()) {
            ir::Value *delta = module_->constI64(increment ? 1 : -1);
            new_value = b_.indexAddr(old_value, delta);
        } else if (lv.qt.ty->isFloat()) {
            ir::Value *one = module_->constFloat(
                static_cast<const ir::FloatType *>(lv.qt.ty), 1.0);
            new_value = b_.binary(increment ? Opcode::FAdd : Opcode::FSub,
                                  old_value, one);
        } else {
            ir::Value *one = module_->constInt(
                static_cast<const ir::IntType *>(lv.qt.ty), 1);
            new_value = b_.binary(increment ? Opcode::Add : Opcode::Sub,
                                  old_value, one);
        }
        b_.store(new_value, lv.addr);
        return {want_old ? old_value : new_value, lv.qt};
    }

    RV
    lowerBinary(const Expr &expr)
    {
        // Short-circuit forms first.
        if (expr.op == Tok::AmpAmp || expr.op == Tok::PipePipe)
            return lowerLogical(expr);

        RV lhs = lowerExpr(*expr.lhs);
        RV rhs = lowerExpr(*expr.rhs);

        // Pointer arithmetic.
        if (expr.op == Tok::Plus || expr.op == Tok::Minus) {
            bool lp = lhs.qt.ty->isPointer();
            bool rp = rhs.qt.ty->isPointer();
            if (lp && rp && expr.op == Tok::Minus)
                return lowerPtrDiff(lhs, rhs);
            if (lp && !rp) {
                ir::Value *idx =
                    convert(rhs, {types().i64(), rhs.qt.isUnsigned},
                            expr.line)
                        .v;
                if (expr.op == Tok::Minus)
                    idx = b_.binary(Opcode::Sub, module_->constI64(0), idx);
                return {b_.indexAddr(lhs.v, idx), lhs.qt};
            }
            if (rp && !lp && expr.op == Tok::Plus) {
                ir::Value *idx =
                    convert(lhs, {types().i64(), lhs.qt.isUnsigned},
                            expr.line)
                        .v;
                return {b_.indexAddr(rhs.v, idx), rhs.qt};
            }
        }

        // Pointer comparisons.
        bool is_cmp = expr.op == Tok::Eq || expr.op == Tok::Ne ||
                      expr.op == Tok::Lt || expr.op == Tok::Gt ||
                      expr.op == Tok::Le || expr.op == Tok::Ge;
        if (is_cmp &&
            (lhs.qt.ty->isPointer() || rhs.qt.ty->isPointer())) {
            QualType u64{types().i64(), true};
            ir::Value *a = convert(lhs, u64, expr.line).v;
            ir::Value *c = convert(rhs, u64, expr.line).v;
            Opcode op = cmpOpcode(expr.op, /*is_float=*/false,
                                  /*is_unsigned=*/true);
            ir::Value *bit = b_.cmp(op, a, c);
            return {b_.cast(Opcode::ZExt, bit, types().i32()),
                    {types().i32(), false}};
        }

        QualType common = commonType(lhs.qt, rhs.qt, expr.line);
        ir::Value *a = convert(lhs, common, expr.line).v;
        ir::Value *c = convert(rhs, common, expr.line).v;
        bool is_float = common.ty->isFloat();

        if (is_cmp) {
            Opcode op = cmpOpcode(expr.op, is_float, common.isUnsigned);
            ir::Value *bit = b_.cmp(op, a, c);
            return {b_.cast(Opcode::ZExt, bit, types().i32()),
                    {types().i32(), false}};
        }

        Opcode op = arithOpcode(expr.op, is_float, common.isUnsigned,
                                expr.line);
        return {b_.binary(op, a, c), common};
    }

    RV
    lowerPtrDiff(RV lhs, RV rhs)
    {
        const ir::Type *elem =
            static_cast<const ir::PointerType *>(lhs.qt.ty)->pointee();
        ir::Value *a = b_.cast(Opcode::PtrToInt, lhs.v, types().i64());
        ir::Value *c = b_.cast(Opcode::PtrToInt, rhs.v, types().i64());
        ir::Value *bytes = b_.binary(Opcode::Sub, a, c);
        ir::Value *size = emitSizeof(elem);
        return {b_.binary(Opcode::SDiv, bytes, size),
                {types().i64(), false}};
    }

    Opcode
    cmpOpcode(Tok op, bool is_float, bool is_unsigned)
    {
        if (is_float) {
            switch (op) {
              case Tok::Eq: return Opcode::FCmpEq;
              case Tok::Ne: return Opcode::FCmpNe;
              case Tok::Lt: return Opcode::FCmpLt;
              case Tok::Gt: return Opcode::FCmpGt;
              case Tok::Le: return Opcode::FCmpLe;
              case Tok::Ge: return Opcode::FCmpGe;
              default: break;
            }
        } else if (is_unsigned) {
            switch (op) {
              case Tok::Eq: return Opcode::ICmpEq;
              case Tok::Ne: return Opcode::ICmpNe;
              case Tok::Lt: return Opcode::ICmpUlt;
              case Tok::Gt: return Opcode::ICmpUgt;
              case Tok::Le: return Opcode::ICmpUle;
              case Tok::Ge: return Opcode::ICmpUge;
              default: break;
            }
        } else {
            switch (op) {
              case Tok::Eq: return Opcode::ICmpEq;
              case Tok::Ne: return Opcode::ICmpNe;
              case Tok::Lt: return Opcode::ICmpSlt;
              case Tok::Gt: return Opcode::ICmpSgt;
              case Tok::Le: return Opcode::ICmpSle;
              case Tok::Ge: return Opcode::ICmpSge;
              default: break;
            }
        }
        panic("not a comparison operator");
    }

    Opcode
    arithOpcode(Tok op, bool is_float, bool is_unsigned, int line)
    {
        if (is_float) {
            switch (op) {
              case Tok::Plus: return Opcode::FAdd;
              case Tok::Minus: return Opcode::FSub;
              case Tok::Star: return Opcode::FMul;
              case Tok::Slash: return Opcode::FDiv;
              default: err(line, "invalid float operator");
            }
        }
        switch (op) {
          case Tok::Plus: return Opcode::Add;
          case Tok::Minus: return Opcode::Sub;
          case Tok::Star: return Opcode::Mul;
          case Tok::Slash: return is_unsigned ? Opcode::UDiv : Opcode::SDiv;
          case Tok::Percent: return is_unsigned ? Opcode::URem : Opcode::SRem;
          case Tok::Amp: return Opcode::And;
          case Tok::Pipe: return Opcode::Or;
          case Tok::Caret: return Opcode::Xor;
          case Tok::Shl: return Opcode::Shl;
          case Tok::Shr: return is_unsigned ? Opcode::LShr : Opcode::AShr;
          default: err(line, "invalid integer operator");
        }
    }

    RV
    lowerLogical(const Expr &expr)
    {
        bool is_and = expr.op == Tok::AmpAmp;
        ir::Instruction *slot = b_.alloca_(types().i32(), "logtmp");
        ir::BasicBlock *rhs_bb = newBlock(is_and ? "and.rhs" : "or.rhs");
        ir::BasicBlock *short_bb =
            newBlock(is_and ? "and.short" : "or.short");
        ir::BasicBlock *merge_bb = newBlock("log.end");

        ir::Value *lhs = toBool(lowerExpr(*expr.lhs), expr.line);
        if (is_and)
            b_.condBr(lhs, rhs_bb, short_bb);
        else
            b_.condBr(lhs, short_bb, rhs_bb);

        b_.setInsertPoint(short_bb);
        b_.store(module_->constI32(is_and ? 0 : 1), slot);
        b_.br(merge_bb);

        b_.setInsertPoint(rhs_bb);
        ir::Value *rhs = toBool(lowerExpr(*expr.rhs), expr.line);
        ir::Value *rhs_int = b_.cast(Opcode::ZExt, rhs, types().i32());
        b_.store(rhs_int, slot);
        b_.br(merge_bb);

        b_.setInsertPoint(merge_bb);
        return {b_.load(slot), {types().i32(), false}};
    }

    RV
    lowerConditional(const Expr &expr)
    {
        ir::Value *cond = toBool(lowerExpr(*expr.lhs), expr.line);
        ir::BasicBlock *true_bb = newBlock("cond.true");
        ir::BasicBlock *false_bb = newBlock("cond.false");
        ir::BasicBlock *merge_bb = newBlock("cond.end");
        ir::BasicBlock *cond_bb = b_.insertBlock();
        b_.condBr(cond, true_bb, false_bb);

        b_.setInsertPoint(true_bb);
        RV true_rv = lowerExpr(*expr.rhs);
        ir::BasicBlock *true_end = b_.insertBlock();
        b_.setInsertPoint(false_bb);
        RV false_rv = lowerExpr(*expr.third);
        ir::BasicBlock *false_end = b_.insertBlock();

        // The result has the arms' common type; a pointer arm wins. Its
        // slot goes before the branch.
        QualType result;
        if (true_rv.qt.ty->isPointer())
            result = true_rv.qt;
        else if (false_rv.qt.ty->isPointer())
            result = false_rv.qt;
        else
            result = commonType(true_rv.qt, false_rv.qt, expr.line);
        b_.setInsertPoint(cond_bb, cond_bb->insts().size() - 1);
        ir::Instruction *slot = b_.alloca_(result.ty, "condtmp");

        b_.setInsertPoint(true_end);
        b_.store(convert(true_rv, result, expr.line).v, slot);
        b_.br(merge_bb);

        b_.setInsertPoint(false_end);
        b_.store(convert(false_rv, result, expr.line).v, slot);
        b_.br(merge_bb);

        b_.setInsertPoint(merge_bb);
        return {b_.load(slot), result};
    }

    RV
    lowerAssign(const Expr &expr)
    {
        LV lv = lowerLValue(*expr.lhs);
        // Struct assignment lowers to memcpy (layout-aware on each arch
        // via the sizeof intrinsic).
        if (lv.qt.ty->isStruct() && expr.op == Tok::Assign) {
            LV src = lowerLValue(*expr.rhs);
            if (lv.qt.ty != src.qt.ty)
                err(expr.line, "struct assignment with mismatched types");
            ir::Function *memcpy_fn = declareBuiltin(*module_, "memcpy");
            const ir::Type *i8p = types().pointerTo(types().i8());
            ir::Value *d = b_.cast(Opcode::Bitcast, lv.addr, i8p);
            ir::Value *s = b_.cast(Opcode::Bitcast, src.addr, i8p);
            b_.call(memcpy_fn, {d, s, emitSizeof(lv.qt.ty)});
            return {d, {i8p, false}};
        }

        if (expr.op == Tok::Assign) {
            RV value = convert(lowerExpr(*expr.rhs), lv.qt, expr.line);
            b_.store(value.v, lv.addr);
            return {value.v, lv.qt};
        }

        // Compound assignment: load, combine, store.
        if (!lv.qt.ty->isScalar())
            err(expr.line, "compound assignment to an array or struct");
        ir::Value *old_value = b_.load(lv.addr);
        RV lhs_rv{old_value, lv.qt};
        RV rhs = lowerExpr(*expr.rhs);

        Tok base_op;
        switch (expr.op) {
          case Tok::PlusAssign: base_op = Tok::Plus; break;
          case Tok::MinusAssign: base_op = Tok::Minus; break;
          case Tok::StarAssign: base_op = Tok::Star; break;
          case Tok::SlashAssign: base_op = Tok::Slash; break;
          case Tok::PercentAssign: base_op = Tok::Percent; break;
          case Tok::AmpAssign: base_op = Tok::Amp; break;
          case Tok::PipeAssign: base_op = Tok::Pipe; break;
          case Tok::CaretAssign: base_op = Tok::Caret; break;
          case Tok::ShlAssign: base_op = Tok::Shl; break;
          case Tok::ShrAssign: base_op = Tok::Shr; break;
          default: panic("unexpected compound assignment token");
        }

        RV combined;
        if (lv.qt.ty->isPointer()) {
            if (base_op != Tok::Plus && base_op != Tok::Minus)
                err(expr.line, "invalid pointer compound assignment");
            ir::Value *idx =
                convert(rhs, {types().i64(), rhs.qt.isUnsigned}, expr.line)
                    .v;
            if (base_op == Tok::Minus)
                idx = b_.binary(Opcode::Sub, module_->constI64(0), idx);
            combined = {b_.indexAddr(old_value, idx), lv.qt};
        } else {
            QualType common = commonType(lhs_rv.qt, rhs.qt, expr.line);
            ir::Value *a = convert(lhs_rv, common, expr.line).v;
            ir::Value *c = convert(rhs, common, expr.line).v;
            Opcode op = arithOpcode(base_op, common.ty->isFloat(),
                                    common.isUnsigned, expr.line);
            combined = convert({b_.binary(op, a, c), common}, lv.qt,
                               expr.line);
        }
        b_.store(combined.v, lv.addr);
        return {combined.v, lv.qt};
    }

    RV
    lowerCall(const Expr &expr)
    {
        // __machine_asm("...") lowers to the opaque asm opcode.
        if (expr.lhs->kind == ExprKind::Ident &&
            expr.lhs->name == "__machine_asm") {
            if (expr.args.size() != 1 ||
                expr.args[0]->kind != ExprKind::StringLit) {
                err(expr.line, "__machine_asm requires one string literal");
            }
            b_.machineAsm(expr.args[0]->strValue);
            return {module_->constI32(0), {types().i32(), false}};
        }

        // Resolve a direct callee (function name not shadowed by a var).
        ir::Function *direct = nullptr;
        if (expr.lhs->kind == ExprKind::Ident &&
            lookupVar(expr.lhs->name) == nullptr) {
            direct = module_->functionByName(expr.lhs->name);
            if (direct == nullptr && findBuiltin(expr.lhs->name))
                direct = declareBuiltin(*module_, expr.lhs->name);
            if (direct == nullptr)
                err(expr.line, "unknown function '" + expr.lhs->name + "'");
        }

        const ir::FunctionType *fn_type = nullptr;
        ir::Value *fn_ptr = nullptr;
        if (direct != nullptr) {
            fn_type = direct->functionType();
        } else {
            RV callee = lowerExpr(*expr.lhs);
            if (!callee.qt.ty->isPointer())
                err(expr.line, "called value is not a function pointer");
            const ir::Type *pointee =
                static_cast<const ir::PointerType *>(callee.qt.ty)
                    ->pointee();
            if (!pointee->isFunction())
                err(expr.line, "called value is not a function pointer");
            fn_type = static_cast<const ir::FunctionType *>(pointee);
            fn_ptr = callee.v;
        }

        const auto &params = fn_type->params();
        if (expr.args.size() < params.size() ||
            (expr.args.size() > params.size() && !fn_type->isVariadic())) {
            err(expr.line, "wrong number of call arguments");
        }

        std::vector<ir::Value *> args;
        for (size_t i = 0; i < expr.args.size(); ++i) {
            RV value = lowerExpr(*expr.args[i]);
            if (i < params.size()) {
                args.push_back(
                    convert(value, {params[i], false}, expr.line).v);
            } else {
                // Default variadic promotions.
                if (value.qt.ty->isFloat() &&
                    static_cast<const ir::FloatType *>(value.qt.ty)
                            ->bits() == 32) {
                    value = convert(value, {types().f64(), false},
                                    expr.line);
                } else if (value.qt.ty->isInt() &&
                           static_cast<const ir::IntType *>(value.qt.ty)
                                   ->bits() < 32) {
                    value = convert(value, {types().i32(),
                                            value.qt.isUnsigned},
                                    expr.line);
                }
                args.push_back(value.v);
            }
        }

        ir::Instruction *call;
        if (direct != nullptr)
            call = b_.call(direct, std::move(args));
        else
            call = b_.callIndirect(fn_ptr, fn_type, std::move(args));
        return {call, {fn_type->returnType(), false}};
    }

    const TranslationUnit &tu_;
    std::unique_ptr<ir::Module> module_;
    ir::IRBuilder b_;

    std::map<std::string, QualType> typedefs_;
    std::map<std::string, ir::StructType *> struct_tags_;
    std::map<const ir::StructType *, std::vector<bool>> field_unsigned_;
    std::map<std::string, int64_t> enum_consts_;
    std::map<std::string, VarInfo> globals_;
    std::map<std::string, ir::GlobalVariable *> strings_;

    std::vector<std::map<std::string, VarInfo>> scopes_;
    ir::Function *cur_fn_ = nullptr;
    QualType cur_ret_;
    std::vector<FlowCtx> flow_;
    std::vector<ir::LoopMeta *> active_loops_;
    std::set<std::string> loop_name_used_;
};

} // namespace

std::unique_ptr<ir::Module>
lowerToIR(const TranslationUnit &tu)
{
    return CodeGen(tu).run();
}

std::unique_ptr<ir::Module>
compileSource(std::string_view source, const std::string &unit_name)
{
    auto tu = parse(source, unit_name);
    return lowerToIR(*tu);
}

} // namespace nol::frontend
