#include "oracle.hh"

#include <bit>
#include <iostream>

namespace perfbench
{

namespace
{

const char *
kindName(TraceOp::Kind kind)
{
    switch (kind) {
    case TraceOp::Kind::Load:
        return "load";
    case TraceOp::Kind::Store:
        return "store";
    case TraceOp::Kind::Cform:
        return "cform";
    case TraceOp::Kind::Compute:
        return "compute";
    }
    return "?";
}

bool
sameFault(const CaliformsException &a, const CaliformsException &b)
{
    // The commit cycle is timing, not architecture.
    return a.faultAddr == b.faultAddr && a.kind == b.kind &&
           a.reason == b.reason;
}

} // namespace

Outcome
FlatOracle::step(const TraceOp &op)
{
    Outcome out;
    switch (op.kind) {
    case TraceOp::Kind::Load:
    case TraceOp::Kind::Store: {
        const bool is_store = op.kind == TraceOp::Kind::Store;
        const unsigned off = lineOffset(op.addr);
        if (off + op.size <= lineBytes) {
            access(op.addr, op.size, is_store, op.value, out, 0);
        } else {
            // Line-crossing access: two segments, like the machine.
            const unsigned first = lineBytes - off;
            access(op.addr, first, is_store, op.value, out, 0);
            access(op.addr + first, op.size - first, is_store,
                   op.value >> (8 * first), out, 8 * first);
        }
        break;
    }
    case TraceOp::Kind::Cform: {
        const CformOp &c = op.cform;
        Line &line = lines_[c.lineAddr];
        const std::uint64_t bad = c.mask & ~(c.setBits ^ line.mask);
        if (bad) {
            const unsigned byte = std::countr_zero(bad);
            out.faults[out.faultCount++] = {
                c.lineAddr + byte, AccessKind::Cform,
                (c.setBits >> byte) & 1 ? FaultReason::CformSetOnSecurity
                                        : FaultReason::CformUnsetRegular,
                0};
            break;
        }
        line.mask = (line.mask & ~c.mask) | (c.setBits & c.mask);
        for (unsigned i = 0; i < lineBytes; ++i)
            if ((c.mask >> i) & 1)
                line.data[i] = 0;
        break;
    }
    case TraceOp::Kind::Compute:
        break;
    }
    return out;
}

void
FlatOracle::access(Addr addr, unsigned size, bool is_store,
                   std::uint64_t value, Outcome &out, unsigned shift)
{
    const Addr la = lineBase(addr);
    const unsigned off = lineOffset(addr);
    const auto it = lines_.find(la);
    const SecurityMask mask = it == lines_.end() ? 0 : it->second.mask;
    const std::uint64_t touched = mask & (((1ull << size) - 1) << off);
    if (touched) {
        out.faults[out.faultCount++] = {
            la + std::countr_zero(touched),
            is_store ? AccessKind::Store : AccessKind::Load,
            is_store ? FaultReason::StoreSecurityByte
                     : FaultReason::LoadSecurityByte,
            0};
        if (is_store)
            return; // a delivered store fault never commits
    }
    if (is_store) {
        Line &line = it == lines_.end() ? lines_[la] : it->second;
        for (unsigned i = 0; i < size; ++i)
            line.data[off + i] = static_cast<std::uint8_t>(value >> (8 * i));
    } else if (it != lines_.end()) {
        std::uint64_t v = 0;
        for (unsigned i = 0; i < size; ++i)
            v |= static_cast<std::uint64_t>(it->second.data[off + i])
                 << (8 * i);
        out.value |= v << shift;
    }
}

OracleCheck::OracleCheck(const Machine &machine)
    : machine_(machine),
      delivered_(machine.exceptions().deliveredCount()),
      suppressed_(machine.exceptions().suppressedCount())
{}

void
OracleCheck::beforeOp(unsigned, const TraceOp &op)
{
    expected_ = oracle_.step(op);
}

void
OracleCheck::afterOp(unsigned core, const TraceOp &op, std::uint64_t value)
{
    ++attempted_;
    const ExceptionUnit &unit = machine_.exceptions();
    const auto &log = unit.delivered();
    bool ok = op.kind != TraceOp::Kind::Load || value == expected_.value;
    ok = ok && unit.suppressedCount() == suppressed_ &&
         log.size() - delivered_ == expected_.faultCount;
    for (unsigned i = 0; ok && i < expected_.faultCount; ++i)
        ok = sameFault(log[delivered_ + i], expected_.faults[i]);
    if (!ok && ++failed_ <= 5) {
        const Addr where =
            op.kind == TraceOp::Kind::Cform ? op.cform.lineAddr : op.addr;
        std::cerr << "oracle mismatch at op " << attempted_ - 1
                  << " (core " << core << ", " << kindName(op.kind)
                  << " 0x" << std::hex << where << "): value 0x"
                  << value << " want 0x" << expected_.value << std::dec
                  << ", faults " << log.size() - delivered_ << " want "
                  << expected_.faultCount << "\n";
    }
    delivered_ = log.size();
    suppressed_ = unit.suppressedCount();
}

} // namespace perfbench
