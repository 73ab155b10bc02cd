/**
 * @file type.hh
 * A model of C/C++ data types and their memory layout.
 *
 * This stands in for the type information the paper's LLVM pass extracts
 * from real source code (Section 6.2). The layout engine implements the
 * standard C rules — each field is placed at the next offset aligned to
 * its natural alignment, and the struct is padded at the tail to a
 * multiple of its own alignment — so every padding byte the compiler
 * would insert is visible to the insertion policies.
 */

#ifndef CALIFORMS_LAYOUT_TYPE_HH
#define CALIFORMS_LAYOUT_TYPE_HH

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

namespace califorms
{

class Type;
using TypePtr = std::shared_ptr<const Type>;

/** One named member of a struct. */
struct Field
{
    std::string name;
    TypePtr type;
};

/** Placement of one field inside a computed layout. */
struct FieldLayout
{
    std::size_t offset; //!< byte offset from struct base
    std::size_t size;   //!< sizeof(field type)
    std::size_t index;  //!< index into StructDef fields
};

/** A contiguous run of compiler-inserted padding bytes. */
struct PaddingSpan
{
    std::size_t offset;
    std::size_t size;
};

/**
 * Computed memory layout of a struct: field placements plus every padding
 * span (interior and tail).
 */
struct StructLayout
{
    std::size_t size = 0;
    std::size_t align = 1;
    std::vector<FieldLayout> fields;
    std::vector<PaddingSpan> paddings;

    /** Total number of padding bytes. */
    std::size_t paddingBytes() const;

    /**
     * Struct density as defined in Section 2: sum of field sizes divided
     * by total size including padding. Density 1.0 means no padding.
     */
    double density() const;
};

/**
 * Immutable description of a compound type. Layout is computed eagerly at
 * construction so @c size() / @c align() are cheap.
 */
class StructDef
{
  public:
    StructDef(std::string name, std::vector<Field> fields);

    const std::string &name() const { return name_; }
    const std::vector<Field> &fields() const { return fields_; }
    const StructLayout &layout() const { return layout_; }
    std::size_t size() const { return layout_.size; }
    std::size_t align() const { return layout_.align; }

  private:
    std::string name_;
    std::vector<Field> fields_;
    StructLayout layout_;
};

using StructDefPtr = std::shared_ptr<const StructDef>;

/**
 * A C type: scalar, data pointer, function pointer, array, or struct.
 * Instances are immutable and shared; build them with the factory
 * functions below.
 */
class Type
{
  public:
    enum class Kind
    {
        Scalar,          //!< char, int, double, ...
        Pointer,         //!< T*
        FunctionPointer, //!< void (*)()
        Array,           //!< T[n]
        Struct,          //!< struct/class instance
    };

    std::size_t size() const { return size_; }
    std::size_t align() const { return align_; }
    const std::string &name() const { return name_; }

    /**
     * True if the type is "overflowable" in the sense of the intelligent
     * policy (Section 2): arrays, and data/function pointers. Arrays of
     * structs count as overflowable as well.
     */
    bool overflowable() const;

    // Factories -----------------------------------------------------
    static TypePtr scalar(std::string name, std::size_t size,
                          std::size_t align);
    static TypePtr pointer(std::string pointee_name = "void");
    static TypePtr functionPointer();
    static TypePtr array(TypePtr elem, std::size_t count);
    static TypePtr structure(StructDefPtr def);

    // Common scalar singletons --------------------------------------
    static TypePtr charType();
    static TypePtr shortType();
    static TypePtr intType();
    static TypePtr longType();
    static TypePtr floatType();
    static TypePtr doubleType();

  private:
    Type() = default;

    Kind kind_ = Kind::Scalar;
    std::size_t size_ = 0;
    std::size_t align_ = 1;
    std::string name_;
};

/** Compute the standard C layout of @p fields (used by StructDef). */
StructLayout computeLayout(const std::vector<Field> &fields);

} // namespace califorms

#endif // CALIFORMS_LAYOUT_TYPE_HH
