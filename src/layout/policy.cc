#include "layout/policy.hh"

#include <algorithm>
#include <stdexcept>

#include "util/types.hh"

namespace califorms
{

std::string
policyName(InsertionPolicy policy)
{
    switch (policy) {
    case InsertionPolicy::None:
        return "none";
    case InsertionPolicy::Opportunistic:
        return "opportunistic";
    case InsertionPolicy::Full:
        return "full";
    case InsertionPolicy::Intelligent:
        return "intelligent";
    case InsertionPolicy::FullFixed:
        return "full-fixed";
    }
    return "?";
}

std::optional<InsertionPolicy>
parsePolicyName(const std::string &name)
{
    if (name == "none")
        return InsertionPolicy::None;
    if (name == "opportunistic")
        return InsertionPolicy::Opportunistic;
    if (name == "full")
        return InsertionPolicy::Full;
    if (name == "intelligent")
        return InsertionPolicy::Intelligent;
    if (name == "fixed" || name == "full-fixed")
        return InsertionPolicy::FullFixed;
    return std::nullopt;
}

std::size_t
SecureLayout::securityByteCount() const
{
    std::size_t total = 0;
    for (const auto &s : securityBytes)
        total += s.size;
    return total;
}

bool
SecureLayout::isSecurityByte(std::size_t offset) const
{
    for (const auto &s : securityBytes)
        if (offset >= s.offset && offset < s.offset + s.size)
            return true;
    return false;
}

LayoutTransformer::LayoutTransformer(InsertionPolicy policy,
                                     PolicyParams params,
                                     std::uint64_t seed)
    : policy_(policy), params_(params), rng_(seed)
{
    if (params_.minSpan == 0 || params_.minSpan > params_.maxSpan)
        throw std::invalid_argument("LayoutTransformer: bad span range");
}

SecureLayout
LayoutTransformer::transform(const StructDef &def)
{
    switch (policy_) {
    case InsertionPolicy::None:
        return transformNone(def);
    case InsertionPolicy::Opportunistic:
        return transformOpportunistic(def);
    case InsertionPolicy::Full:
        return transformSpaced(def, false, false);
    case InsertionPolicy::Intelligent:
        return transformSpaced(def, true, false);
    case InsertionPolicy::FullFixed:
        return transformSpaced(def, false, true);
    }
    throw std::logic_error("LayoutTransformer: unknown policy");
}

SecureLayout
LayoutTransformer::transformNone(const StructDef &def) const
{
    SecureLayout out;
    out.policy = InsertionPolicy::None;
    out.size = def.size();
    out.align = def.align();
    out.fields = def.layout().fields;
    return out;
}

SecureLayout
LayoutTransformer::transformOpportunistic(const StructDef &def) const
{
    SecureLayout out;
    out.policy = InsertionPolicy::Opportunistic;
    out.size = def.size();
    out.align = def.align();
    out.fields = def.layout().fields;
    for (const auto &p : def.layout().paddings)
        out.securityBytes.push_back({p.offset, p.size});
    return out;
}

std::size_t
LayoutTransformer::drawSpan(bool fixed)
{
    if (fixed)
        return params_.fixedSpan;
    return rng_.nextRange(params_.minSpan, params_.maxSpan);
}

SecureLayout
LayoutTransformer::transformSpaced(const StructDef &def, bool only_overflow,
                                   bool fixed)
{
    SecureLayout out;
    out.policy = policy_;
    out.align = def.align();

    const auto &fields = def.fields();
    // Decide, per gap, whether a security span is requested. Gap i sits
    // before field i; gap fields.size() is the tail. The intelligent
    // policy requests spans only adjacent to overflowable fields.
    std::vector<bool> want(fields.size() + 1, !only_overflow);
    if (only_overflow) {
        for (std::size_t i = 0; i < fields.size(); ++i) {
            if (fields[i].type->overflowable()) {
                want[i] = true;     // span before the field
                want[i + 1] = true; // span after the field
            }
        }
        // A leading span only helps if the first field is overflowable;
        // inter-object spatial safety already guards the object front.
        if (!fields.empty() && !fields.front().type->overflowable())
            want[0] = false;
    }

    std::size_t cursor = 0;
    for (std::size_t i = 0; i < fields.size(); ++i) {
        const std::size_t span_start = cursor;
        if (want[i])
            cursor += drawSpan(fixed);
        const std::size_t a = fields[i].type->align();
        const std::size_t off = roundUp(cursor, a);
        // A requested gap is blacklisted in full — the drawn span plus
        // any alignment slack it causes. Unrequested gaps (intelligent
        // policy, non-overflowable neighbors) keep their natural padding
        // plain: califorming it would cost CFORM work the policy is
        // designed to avoid (Section 2).
        if (want[i] && off > span_start)
            out.securityBytes.push_back({span_start, off - span_start});
        out.fields.push_back({off, fields[i].type->size(), i});
        cursor = off + fields[i].type->size();
    }

    const std::size_t tail_start = cursor;
    if (want.back() && !fields.empty())
        cursor += drawSpan(fixed);
    const std::size_t total =
        roundUp(std::max<std::size_t>(cursor, 1), out.align);
    if (want.back() && !fields.empty() && total > tail_start)
        out.securityBytes.push_back({tail_start, total - tail_start});
    out.size = total;
    return out;
}

} // namespace califorms
