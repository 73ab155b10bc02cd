#include "core/cform.hh"

#include <stdexcept>

namespace califorms
{

std::optional<CaliformsException>
checkCform(const BitVectorLine &line, const CformOp &op)
{
    if (lineOffset(op.lineAddr) != 0)
        throw std::invalid_argument("CFORM: address not line aligned");

    // Table 1 over all 64 bytes at once: a selected byte faults when its
    // requested state equals its current one (set on a security byte,
    // unset on a regular byte). The lowest one is reported, so the
    // exception is precise.
    const std::uint64_t faults = op.mask & ~(op.setBits ^ line.mask);
    if (!faults)
        return std::nullopt;
    const unsigned i = findFirstOne(faults);
    return CaliformsException{op.lineAddr + i, AccessKind::Cform,
                              testBit(op.setBits, i)
                                  ? FaultReason::CformSetOnSecurity
                                  : FaultReason::CformUnsetRegular,
                              0};
}

std::optional<CaliformsException>
applyCform(BitVectorLine &line, const CformOp &op)
{
    if (auto fault = checkCform(line, op))
        return fault;

    line.mask = (line.mask & ~op.mask) | (op.setBits & op.mask);
    // Newly set bytes read as zero (canonical form); unset bytes stay
    // zero, as freed data was already zeroed by the clean-before-use
    // software contract (Section 6.1).
    line.zeroBytes(op.mask);
    return std::nullopt;
}

} // namespace califorms
