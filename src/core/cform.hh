/**
 * @file cform.hh
 * The CFORM instruction (Section 4.1, Table 1).
 *
 * "CFORM R1, R2, R3": R1 holds the line-aligned virtual address of a 64B
 * region, R2 is a 64-bit attribute vector (bit i = 1 sets byte i as a
 * security byte, 0 unsets it), and R3 is a 64-bit mask (bit i = 1 allows
 * byte i's state to change). Illegal transitions — setting a byte that is
 * already a security byte, or unsetting a byte that is a regular byte —
 * raise the privileged Califorms exception. The instruction is atomic:
 * a faulting CFORM leaves the line unmodified.
 */

#ifndef CALIFORMS_CORE_CFORM_HH
#define CALIFORMS_CORE_CFORM_HH

#include <optional>

#include "core/exception.hh"
#include "core/line.hh"

namespace califorms
{

/** Operand bundle of one CFORM instruction. */
struct CformOp
{
    Addr lineAddr = 0;         //!< R1: line aligned start address
    std::uint64_t setBits = 0; //!< R2: 1 = set, 0 = unset (per byte)
    std::uint64_t mask = 0;    //!< R3: 1 = allow change (per byte)

    /** True when the instruction is a temporal-hint variant that should
     *  bypass the L1 (footnote 3, Section 6.1). Timing-only hint; the
     *  architectural effect is identical. */
    bool nonTemporal = false;
};

/**
 * Validate @p op against the current state of @p line per the Table 1
 * K-map, without modifying anything. Returns the first faulting byte, or
 * std::nullopt if the operation is legal.
 */
std::optional<CaliformsException> checkCform(const BitVectorLine &line,
                                             const CformOp &op);

/**
 * Apply @p op to @p line. If the K-map forbids any selected transition
 * the line is left untouched and the exception is returned. On success,
 * newly set security bytes have their data zeroed (canonical form) and
 * std::nullopt is returned.
 */
std::optional<CaliformsException> applyCform(BitVectorLine &line,
                                             const CformOp &op);

// The builders are inline: the generators build one per CFORM op, and
// an out-of-line call returns the 32 B op through memory.

/** Build the CFORM op that sets security bytes @p security_mask on the
 *  line at @p line_addr, touching only those bytes. */
inline CformOp
makeSetOp(Addr line_addr, SecurityMask security_mask)
{
    return CformOp{line_addr, security_mask, security_mask, false};
}

/** Build the CFORM op that unsets security bytes @p security_mask. */
inline CformOp
makeUnsetOp(Addr line_addr, SecurityMask security_mask)
{
    return CformOp{line_addr, 0, security_mask, false};
}

} // namespace califorms

#endif // CALIFORMS_CORE_CFORM_HH
