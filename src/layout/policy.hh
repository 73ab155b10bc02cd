/**
 * @file policy.hh
 * Security byte insertion policies (Section 2 / Listing 1).
 *
 * A policy rewrites a struct layout into a SecureLayout: the same fields,
 * possibly displaced, plus the list of security byte spans that the
 * allocator will caliform at runtime. Three policies are supported:
 *
 *  - opportunistic: reuse the compiler's own padding bytes; sizeof is
 *    unchanged, so the layout stays ABI compatible (Listing 1(b)).
 *  - full: insert a random 1..max span before the first field, between
 *    every pair of fields, and after the last field (Listing 1(c)).
 *  - intelligent: insert random spans only around overflowable fields —
 *    arrays and data/function pointers (Listing 1(d)).
 *
 * For the padding-sweep experiment (Figure 4) a fixed-size variant of the
 * full policy is provided as well.
 */

#ifndef CALIFORMS_LAYOUT_POLICY_HH
#define CALIFORMS_LAYOUT_POLICY_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "layout/type.hh"
#include "util/rng.hh"

namespace califorms
{

/** Which insertion strategy to apply. */
enum class InsertionPolicy
{
    None,          //!< baseline: no security bytes at all
    Opportunistic, //!< harvest existing padding, keep sizeof
    Full,          //!< random spans between every field
    Intelligent,   //!< random spans around arrays and pointers
    FullFixed,     //!< fixed-size spans between every field (Figure 4)
};

/** Human-readable policy name for reports. */
std::string policyName(InsertionPolicy policy);

/** Inverse of policyName (plus the historical CLI spelling "fixed" for
 *  FullFixed); std::nullopt if unknown. */
std::optional<InsertionPolicy> parsePolicyName(const std::string &name);

/** A run of security bytes inside a secure layout. */
struct SecuritySpan
{
    std::size_t offset;
    std::size_t size;
};

/**
 * Result of applying a policy to one struct: new total size/alignment,
 * relocated fields, and every security byte span. Field order is always
 * preserved (the paper randomizes sizes, not order).
 */
struct SecureLayout
{
    InsertionPolicy policy = InsertionPolicy::None;
    std::size_t size = 0;
    std::size_t align = 1;
    std::vector<FieldLayout> fields;
    std::vector<SecuritySpan> securityBytes;

    /** Total number of security bytes. */
    std::size_t securityByteCount() const;

    /** True if byte @p offset lies inside a security span. */
    bool isSecurityByte(std::size_t offset) const;
};

/**
 * Parameters controlling random span sizes. The paper fixes the minimum
 * at one byte and sweeps the maximum over {3, 5, 7} so the average span is
 * two, three, or four bytes (Section 8.2).
 */
struct PolicyParams
{
    std::size_t minSpan = 1;   //!< minimum random span size
    std::size_t maxSpan = 7;   //!< maximum random span size
    std::size_t fixedSpan = 1; //!< span size for FullFixed
};

/**
 * Applies insertion policies to struct definitions. Deterministic: the
 * random sizes depend only on the seed, so one LayoutTransformer models
 * one compiled binary (the paper builds three differently-randomized
 * binaries per configuration).
 */
class LayoutTransformer
{
  public:
    LayoutTransformer(InsertionPolicy policy, PolicyParams params,
                      std::uint64_t seed);

    /** Rewrite @p def under the configured policy. */
    SecureLayout transform(const StructDef &def);

    InsertionPolicy policy() const { return policy_; }
    const PolicyParams &params() const { return params_; }

  private:
    SecureLayout transformNone(const StructDef &def) const;
    SecureLayout transformOpportunistic(const StructDef &def) const;
    SecureLayout transformSpaced(const StructDef &def, bool only_overflow,
                                 bool fixed);

    std::size_t drawSpan(bool fixed);

    InsertionPolicy policy_;
    PolicyParams params_;
    Rng rng_;
};

} // namespace califorms

#endif // CALIFORMS_LAYOUT_POLICY_HH
