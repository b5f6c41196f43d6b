/**
 * @file
 * Value hierarchy of the offloading IR: constants, function arguments,
 * global variables and (indirectly) instructions. All values are owned
 * by their enclosing Module/Function/BasicBlock; plain pointers are
 * non-owning references.
 */
#ifndef NOL_IR_VALUE_HPP
#define NOL_IR_VALUE_HPP

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "ir/type.hpp"

namespace nol::ir {

class Function;
class GlobalVariable;

/** Base class of everything that can appear as an instruction operand. */
class Value
{
  public:
    /** Concrete value class discriminator. */
    enum class Kind {
        Argument,
        Instruction,
        ConstInt,
        ConstFloat,
        ConstNull,
        Global,
        Function,
    };

    virtual ~Value() = default;

    Kind valueKind() const { return kind_; }
    const Type *type() const { return type_; }

    const std::string &name() const { return name_; }
    void setName(std::string name) { name_ = std::move(name); }

  protected:
    Value(Kind kind, const Type *type, std::string name = "")
        : kind_(kind), type_(type), name_(std::move(name))
    {}

  private:
    Kind kind_;
    const Type *type_;
    std::string name_;
};

/** Formal parameter of a Function. */
class Argument : public Value
{
  public:
    Argument(const Type *type, std::string name, Function *parent,
             unsigned index)
        : Value(Kind::Argument, type, std::move(name)), parent_(parent),
          index_(index)
    {}

    Function *parent() const { return parent_; }
    unsigned index() const { return index_; }

  private:
    Function *parent_;
    unsigned index_;
};

/** Integer constant (also used for i1 booleans). */
class ConstInt : public Value
{
  public:
    ConstInt(const IntType *type, int64_t value)
        : Value(Kind::ConstInt, type, ""), value_(value)
    {}

    int64_t value() const { return value_; }

  private:
    int64_t value_;
};

/** Floating-point constant. */
class ConstFloat : public Value
{
  public:
    ConstFloat(const FloatType *type, double value)
        : Value(Kind::ConstFloat, type, ""), value_(value)
    {}

    double value() const { return value_; }

  private:
    double value_;
};

/** Null pointer constant of a specific pointer type. */
class ConstNull : public Value
{
  public:
    explicit ConstNull(const PointerType *type)
        : Value(Kind::ConstNull, type, "")
    {}
};

/**
 * Static initializer of a global variable, structured so a loader can
 * serialize it under any DataLayout (the same initializer yields
 * layout-correct bytes on both architectures).
 */
struct Initializer {
    enum class Kind {
        Zero,      ///< zero-fill
        Int,       ///< scalar integer
        Float,     ///< scalar float/double
        Bytes,     ///< raw bytes (string literals), NUL included explicitly
        Global,    ///< address of another global (+ byte offset)
        Function,  ///< address of a function (function-pointer tables)
        Aggregate, ///< array elements or struct fields in order
    };

    Kind kind = Kind::Zero;
    int64_t intValue = 0;
    double floatValue = 0.0;
    std::string bytes;
    const GlobalVariable *global = nullptr;
    int64_t globalOffset = 0;
    const Function *function = nullptr;
    std::vector<Initializer> elems;

    static Initializer zero() { return {}; }

    static Initializer
    ofInt(int64_t v)
    {
        Initializer init;
        init.kind = Kind::Int;
        init.intValue = v;
        return init;
    }

    static Initializer
    ofFloat(double v)
    {
        Initializer init;
        init.kind = Kind::Float;
        init.floatValue = v;
        return init;
    }

    static Initializer
    ofBytes(std::string data)
    {
        Initializer init;
        init.kind = Kind::Bytes;
        init.bytes = std::move(data);
        return init;
    }

    static Initializer
    ofGlobal(const GlobalVariable *gv, int64_t offset = 0)
    {
        Initializer init;
        init.kind = Kind::Global;
        init.global = gv;
        init.globalOffset = offset;
        return init;
    }

    static Initializer
    ofFunction(const Function *fn)
    {
        Initializer init;
        init.kind = Kind::Function;
        init.function = fn;
        return init;
    }

    static Initializer
    aggregate(std::vector<Initializer> elems)
    {
        Initializer init;
        init.kind = Kind::Aggregate;
        init.elems = std::move(elems);
        return init;
    }
};

/**
 * Module-level variable. Its Value type is a *pointer* to the stored
 * value type (using a global as an operand yields its address, as in
 * LLVM). The memory unifier may move a global into the UVA space
 * ("referenced global variable allocation", paper Sec. 3.2).
 */
class GlobalVariable : public Value
{
  public:
    GlobalVariable(const PointerType *ptr_type, const Type *value_type,
                   std::string name, Initializer init, bool is_const)
        : Value(Kind::Global, ptr_type, std::move(name)),
          value_type_(value_type), init_(std::move(init)), is_const_(is_const)
    {}

    const Type *valueType() const { return value_type_; }
    const Initializer &init() const { return init_; }
    void setInit(Initializer init) { init_ = std::move(init); }
    bool isConst() const { return is_const_; }

    /** True once the memory unifier moved this global to UVA space. */
    bool inUva() const { return in_uva_; }
    void setInUva(bool in_uva) { in_uva_ = in_uva; }

    /**
     * Field-granular UVA provenance (field-sensitive memory
     * unification): when limited, only the listed field indices of
     * this struct global were found referenced by offloaded code.
     * Placement stays whole-object — the loader still maps the full
     * global into UVA space, so addresses are bit-identical to
     * insensitive mode — but the marks drive the verifier's
     * field-level global-not-uva check and the page accounting, and
     * partition repair widens them.
     */
    bool uvaFieldLimited() const { return uva_field_limited_; }
    const std::set<int32_t> &uvaFields() const { return uva_fields_; }

    void
    setUvaFields(std::set<int32_t> fields)
    {
        uva_fields_ = std::move(fields);
        uva_field_limited_ = true;
    }

    /** Widen the mark set (partition repair promotes one field). */
    void addUvaField(int32_t field) { uva_fields_.insert(field); }

    /** Drop field granularity (back to whole-object UVA marking). */
    void
    clearUvaFields()
    {
        uva_fields_.clear();
        uva_field_limited_ = false;
    }

  private:
    const Type *value_type_;
    Initializer init_;
    bool is_const_;
    bool in_uva_ = false;
    bool uva_field_limited_ = false;
    std::set<int32_t> uva_fields_;
};

} // namespace nol::ir

#endif // NOL_IR_VALUE_HPP
