/**
 * @file
 * Module: the unit of compilation. Owns globals, functions and a
 * constant arena; shares a TypeContext with clones of itself (the
 * partitioner produces one mobile clone and one server clone of the
 * unified module, mirroring the paper's Fig. 1).
 */
#ifndef NOL_IR_MODULE_HPP
#define NOL_IR_MODULE_HPP

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ir/function.hpp"
#include "ir/type.hpp"
#include "ir/value.hpp"

namespace nol::ir {

class Module;

/** Old-value → new-value map produced by Module::clone(). */
struct CloneMap {
    std::map<const Value *, Value *> values;
    std::map<const BasicBlock *, BasicBlock *> blocks;

    /** Mapped function for @p fn (asserts presence). */
    Function *fn(const Function *fn) const;

    /** Mapped global for @p gv (asserts presence). */
    GlobalVariable *global(const GlobalVariable *gv) const;
};

/** A whole program at IR level. */
class Module
{
  public:
    explicit Module(std::string name);
    Module(const Module &) = delete;
    Module &operator=(const Module &) = delete;

    const std::string &name() const { return name_; }
    void setName(std::string name) { name_ = std::move(name); }

    TypeContext &types() { return *types_; }
    const TypeContext &types() const { return *types_; }

    // --- Functions ---------------------------------------------------------
    const std::vector<std::unique_ptr<Function>> &functions() const
    {
        return functions_;
    }

    /** Create a function definition (or external decl if @p external). */
    Function *createFunction(const std::string &name,
                             const FunctionType *type, bool external = false);

    /** Find a function by name; nullptr if absent. */
    Function *functionByName(const std::string &name) const;

    /** Remove (destroy) the function @p fn. */
    void removeFunction(Function *fn);

    // --- Globals -----------------------------------------------------------
    const std::vector<std::unique_ptr<GlobalVariable>> &globals() const
    {
        return globals_;
    }

    /** Create a global variable holding @p value_type. */
    GlobalVariable *createGlobal(const std::string &name,
                                 const Type *value_type, Initializer init,
                                 bool is_const = false);

    /** Find a global by name; nullptr if absent. */
    GlobalVariable *globalByName(const std::string &name) const;

    /** Remove (destroy) the global @p gv. */
    void removeGlobal(GlobalVariable *gv);

    // --- Constants ----------------------------------------------------------
    /** Integer constant of @p type. */
    ConstInt *constInt(const IntType *type, int64_t value);

    /** i32 constant. */
    ConstInt *constI32(int64_t value);

    /** i64 constant. */
    ConstInt *constI64(int64_t value);

    /** i1 constant. */
    ConstInt *constBool(bool value);

    /** Floating constant of @p type. */
    ConstFloat *constFloat(const FloatType *type, double value);

    /** Null pointer of @p type. */
    ConstNull *constNull(const PointerType *type);

    // --- Unified-ABI metadata (memory unification, paper Sec. 3.2) -----
    /**
     * The ABI every memory access must follow once the memory unifier
     * ran: the *mobile* pointer size, endianness and alignment rules.
     * Null before unification (each machine uses its native ABI).
     */
    const arch::ArchSpec *unifiedAbi() const { return unified_abi_.get(); }

    /** Pin the unified ABI (normally the mobile device's ArchSpec). */
    void setUnifiedAbi(arch::ArchSpec spec)
    {
        unified_abi_ = std::make_shared<arch::ArchSpec>(std::move(spec));
    }

    /**
     * Deep copy of this module (same TypeContext). @p map receives the
     * old→new correspondence for functions, globals, blocks and
     * instruction values.
     */
    std::unique_ptr<Module> clone(const std::string &new_name,
                                  CloneMap &map) const;

  private:
    std::string name_;
    std::shared_ptr<TypeContext> types_;
    std::vector<std::unique_ptr<Function>> functions_;
    std::vector<std::unique_ptr<GlobalVariable>> globals_;
    std::vector<std::unique_ptr<Value>> constants_;
    std::shared_ptr<arch::ArchSpec> unified_abi_;
};

} // namespace nol::ir

#endif // NOL_IR_MODULE_HPP
