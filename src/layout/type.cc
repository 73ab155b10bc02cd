#include "layout/type.hh"

#include <algorithm>
#include <stdexcept>

#include "util/types.hh"

namespace califorms
{

std::size_t
StructLayout::paddingBytes() const
{
    std::size_t total = 0;
    for (const auto &p : paddings)
        total += p.size;
    return total;
}

double
StructLayout::density() const
{
    if (size == 0)
        return 1.0;
    std::size_t field_bytes = 0;
    for (const auto &f : fields)
        field_bytes += f.size;
    return static_cast<double>(field_bytes) / static_cast<double>(size);
}

StructLayout
computeLayout(const std::vector<Field> &fields)
{
    StructLayout out;
    std::size_t cursor = 0;
    for (std::size_t i = 0; i < fields.size(); ++i) {
        const auto &f = fields[i];
        if (!f.type || f.type->size() == 0)
            throw std::invalid_argument("computeLayout: incomplete field");
        const std::size_t a = f.type->align();
        const std::size_t off = roundUp(cursor, a);
        if (off > cursor)
            out.paddings.push_back({cursor, off - cursor});
        out.fields.push_back({off, f.type->size(), i});
        cursor = off + f.type->size();
        out.align = std::max(out.align, a);
    }
    const std::size_t total = roundUp(std::max<std::size_t>(cursor, 1),
                                      out.align);
    if (total > cursor && !fields.empty())
        out.paddings.push_back({cursor, total - cursor});
    out.size = total;
    return out;
}

StructDef::StructDef(std::string name, std::vector<Field> fields)
    : name_(std::move(name)), fields_(std::move(fields)),
      layout_(computeLayout(fields_))
{
}

bool
Type::overflowable() const
{
    switch (kind_) {
    case Kind::Array:
    case Kind::Pointer:
    case Kind::FunctionPointer:
        return true;
    default:
        return false;
    }
}

TypePtr
Type::scalar(std::string name, std::size_t size, std::size_t align)
{
    auto t = std::shared_ptr<Type>(new Type());
    t->kind_ = Kind::Scalar;
    t->size_ = size;
    t->align_ = align;
    t->name_ = std::move(name);
    return t;
}

TypePtr
Type::pointer(std::string pointee_name)
{
    auto t = std::shared_ptr<Type>(new Type());
    t->kind_ = Kind::Pointer;
    t->size_ = 8;
    t->align_ = 8;
    t->name_ = pointee_name + "*";
    return t;
}

TypePtr
Type::functionPointer()
{
    auto t = std::shared_ptr<Type>(new Type());
    t->kind_ = Kind::FunctionPointer;
    t->size_ = 8;
    t->align_ = 8;
    t->name_ = "void(*)()";
    return t;
}

TypePtr
Type::array(TypePtr elem, std::size_t count)
{
    if (!elem || count == 0)
        throw std::invalid_argument("Type::array: bad element/count");
    auto t = std::shared_ptr<Type>(new Type());
    t->kind_ = Kind::Array;
    t->size_ = elem->size() * count;
    t->align_ = elem->align();
    t->name_ = elem->name() + "[" + std::to_string(count) + "]";
    return t;
}

TypePtr
Type::structure(StructDefPtr def)
{
    if (!def)
        throw std::invalid_argument("Type::structure: null def");
    auto t = std::shared_ptr<Type>(new Type());
    t->kind_ = Kind::Struct;
    t->size_ = def->size();
    t->align_ = def->align();
    t->name_ = "struct " + def->name();
    return t;
}

TypePtr
Type::charType()
{
    static TypePtr t = scalar("char", 1, 1);
    return t;
}

TypePtr
Type::shortType()
{
    static TypePtr t = scalar("short", 2, 2);
    return t;
}

TypePtr
Type::intType()
{
    static TypePtr t = scalar("int", 4, 4);
    return t;
}

TypePtr
Type::longType()
{
    static TypePtr t = scalar("long", 8, 8);
    return t;
}

TypePtr
Type::floatType()
{
    static TypePtr t = scalar("float", 4, 4);
    return t;
}

TypePtr
Type::doubleType()
{
    static TypePtr t = scalar("double", 8, 8);
    return t;
}

} // namespace califorms
