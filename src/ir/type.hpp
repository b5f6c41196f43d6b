/**
 * @file
 * Type system of the offloading IR. Types are interned in and owned by
 * a TypeContext (one per Module); all Type pointers are non-owning and
 * valid for the context's lifetime.
 *
 * Struct types may carry an *explicit layout*: after the memory
 * unification pass (paper Sec. 3.2) every struct is pinned to the
 * mobile ABI's offsets, so the mobile and server binaries read the same
 * field from the same address. Structs without an explicit layout are
 * laid out per-architecture by DataLayout.
 */
#ifndef NOL_IR_TYPE_HPP
#define NOL_IR_TYPE_HPP

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "arch/archspec.hpp"
#include "support/logging.hpp"

namespace nol::ir {

class TypeContext;

/** Base class of all IR types. */
class Type
{
  public:
    /** Discriminator for the concrete type class. */
    enum class Kind {
        Void,
        Int,      ///< i1/i8/i16/i32/i64
        Float,    ///< f32/f64
        Pointer,
        Struct,
        Array,
        Function,
    };

    virtual ~Type() = default;

    Kind kind() const { return kind_; }

    bool isVoid() const { return kind_ == Kind::Void; }
    bool isInt() const { return kind_ == Kind::Int; }
    bool isFloat() const { return kind_ == Kind::Float; }
    bool isPointer() const { return kind_ == Kind::Pointer; }
    bool isStruct() const { return kind_ == Kind::Struct; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isFunction() const { return kind_ == Kind::Function; }

    /** True for int, float and pointer types. */
    bool isScalar() const { return isInt() || isFloat() || isPointer(); }

    /** Render like "i32", "double", "Piece*", "[64 x Piece]". */
    virtual std::string str() const = 0;

  protected:
    explicit Type(Kind kind) : kind_(kind) {}

  private:
    Kind kind_;
};

/** Void type (function returns only). */
class VoidType : public Type
{
  public:
    VoidType() : Type(Kind::Void) {}
    std::string str() const override { return "void"; }
};

/** Fixed-width integer type; width in bits is 1, 8, 16, 32 or 64. */
class IntType : public Type
{
  public:
    explicit IntType(uint32_t bits) : Type(Kind::Int), bits_(bits) {}

    uint32_t bits() const { return bits_; }

    /** Storage size in bytes (i1 occupies one byte). */
    uint32_t bytes() const { return bits_ == 1 ? 1 : bits_ / 8; }

    std::string str() const override { return "i" + std::to_string(bits_); }

  private:
    uint32_t bits_;
};

/** IEEE float (32) or double (64). */
class FloatType : public Type
{
  public:
    explicit FloatType(uint32_t bits) : Type(Kind::Float), bits_(bits) {}

    uint32_t bits() const { return bits_; }
    uint32_t bytes() const { return bits_ / 8; }

    std::string
    str() const override
    {
        return bits_ == 32 ? "float" : "double";
    }

  private:
    uint32_t bits_;
};

/** Pointer to a pointee type ("Piece*"). */
class PointerType : public Type
{
  public:
    explicit PointerType(const Type *pointee)
        : Type(Kind::Pointer), pointee_(pointee)
    {}

    const Type *pointee() const { return pointee_; }

    std::string str() const override { return pointee_->str() + "*"; }

  private:
    const Type *pointee_;
};

/**
 * Explicit (unified) struct layout: field offsets plus total size and
 * alignment, pinned by the memory unification pass.
 */
struct StructLayout {
    std::vector<uint64_t> offsets; ///< byte offset of each field
    uint64_t size = 0;             ///< total size including tail padding
    uint32_t alignment = 1;        ///< overall alignment
};

/** Named aggregate with ordered fields. */
class StructType : public Type
{
  public:
    /** One field of the struct. */
    struct Field {
        std::string name;
        const Type *type = nullptr;
    };

    StructType(std::string name, std::vector<Field> fields)
        : Type(Kind::Struct), name_(std::move(name)), fields_(std::move(fields))
    {}

    const std::string &name() const { return name_; }
    const std::vector<Field> &fields() const { return fields_; }
    size_t numFields() const { return fields_.size(); }

    const Field &
    field(size_t idx) const
    {
        NOL_ASSERT(idx < fields_.size(), "field index %zu out of range in %s",
                   idx, name_.c_str());
        return fields_[idx];
    }

    /** Index of the field named @p name, or -1. */
    int fieldIndex(const std::string &name) const;

    /**
     * Define the fields of a struct created as a forward declaration
     * (needed for self-referential structs like linked-list nodes).
     * Only legal while the field list is still empty.
     */
    void
    setFields(std::vector<Field> fields)
    {
        NOL_ASSERT(fields_.empty(), "struct %s already has fields",
                   name_.c_str());
        fields_ = std::move(fields);
    }

    /** True once memory unification pinned this struct's layout. */
    bool hasExplicitLayout() const { return explicit_layout_ != nullptr; }

    /** The pinned layout; only valid if hasExplicitLayout(). */
    const StructLayout &
    explicitLayout() const
    {
        NOL_ASSERT(explicit_layout_ != nullptr,
                   "struct %s has no explicit layout", name_.c_str());
        return *explicit_layout_;
    }

    /** Pin the layout (memory unification, paper Sec. 3.2). */
    void
    setExplicitLayout(StructLayout layout)
    {
        explicit_layout_ = std::make_unique<StructLayout>(std::move(layout));
    }

    std::string str() const override { return "%" + name_; }

  private:
    std::string name_;
    std::vector<Field> fields_;
    std::unique_ptr<StructLayout> explicit_layout_;
};

/** Fixed-length array "[N x T]". */
class ArrayType : public Type
{
  public:
    ArrayType(const Type *element, uint64_t count)
        : Type(Kind::Array), element_(element), count_(count)
    {}

    const Type *element() const { return element_; }
    uint64_t count() const { return count_; }

    std::string
    str() const override
    {
        return "[" + std::to_string(count_) + " x " + element_->str() + "]";
    }

  private:
    const Type *element_;
    uint64_t count_;
};

/** Function signature type. */
class FunctionType : public Type
{
  public:
    FunctionType(const Type *ret, std::vector<const Type *> params,
                 bool variadic)
        : Type(Kind::Function), ret_(ret), params_(std::move(params)),
          variadic_(variadic)
    {}

    const Type *returnType() const { return ret_; }
    const std::vector<const Type *> &params() const { return params_; }
    bool isVariadic() const { return variadic_; }

    std::string str() const override;

  private:
    const Type *ret_;
    std::vector<const Type *> params_;
    bool variadic_;
};

/**
 * Owner and interner of all types of one module. Scalar, pointer and
 * array types are uniqued; struct types are nominal (one per name).
 */
class TypeContext
{
  public:
    TypeContext();
    TypeContext(const TypeContext &) = delete;
    TypeContext &operator=(const TypeContext &) = delete;

    const VoidType *voidTy() const { return void_ty_.get(); }
    const IntType *i1() const { return i1_.get(); }
    const IntType *i8() const { return i8_.get(); }
    const IntType *i16() const { return i16_.get(); }
    const IntType *i32() const { return i32_.get(); }
    const IntType *i64() const { return i64_.get(); }
    const FloatType *f32() const { return f32_.get(); }
    const FloatType *f64() const { return f64_.get(); }

    /** Integer type of @p bits (1/8/16/32/64). */
    const IntType *intTy(uint32_t bits) const;

    /** Unique pointer type to @p pointee. */
    const PointerType *pointerTo(const Type *pointee);

    /** Unique array type. */
    const ArrayType *arrayOf(const Type *element, uint64_t count);

    /** Unique function type. */
    const FunctionType *functionTy(const Type *ret,
                                   std::vector<const Type *> params,
                                   bool variadic = false);

    /** Create a named struct; name must be fresh. */
    StructType *createStruct(const std::string &name,
                             std::vector<StructType::Field> fields);

    /** Look up a struct by name; nullptr if absent. */
    StructType *structByName(const std::string &name) const;

    /** All struct types in creation order. */
    const std::vector<StructType *> &structs() const { return struct_order_; }

  private:
    std::unique_ptr<VoidType> void_ty_;
    std::unique_ptr<IntType> i1_, i8_, i16_, i32_, i64_;
    std::unique_ptr<FloatType> f32_, f64_;
    std::map<const Type *, std::unique_ptr<PointerType>> pointers_;
    std::map<std::pair<const Type *, uint64_t>, std::unique_ptr<ArrayType>>
        arrays_;
    std::vector<std::unique_ptr<FunctionType>> fn_types_;
    std::map<std::string, std::unique_ptr<StructType>> structs_;
    std::vector<StructType *> struct_order_;
};

} // namespace nol::ir

#endif // NOL_IR_TYPE_HPP
