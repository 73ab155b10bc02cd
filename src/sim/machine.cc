#include "sim/machine.hh"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "config/config.hh"
#include "core/sentinel.hh"

namespace califorms
{

Machine::Machine(const MachineParams &params, ExceptionUnit::Policy policy)
    : params_(params), exceptions_(policy), shared_(params.mem)
{
    if (params.core.count < 1 || params.core.count > 32)
        throw std::invalid_argument("Machine: core.count must be 1..32");
    mems_.reserve(params.core.count);
    cores_.reserve(params.core.count);
    for (unsigned c = 0; c < params.core.count; ++c) {
        mems_.push_back(std::make_unique<MemorySystem>(
            params.mem, exceptions_, shared_));
        cores_.emplace_back(params.core, params.mem.l1Latency);
    }
}

std::uint64_t
Machine::loadOn(unsigned core, Addr addr, unsigned size,
                bool depends_on_prev)
{
    MemorySystem &mem = *mems_.at(core);
    // Keep the timed miss path's issue clock in step with how far
    // this core's retire clock has actually advanced.
    mem.syncClock(cores_[core].cycles());
    const auto res = mem.load(addr, size);
    cores_[core].retireLoad(res.latency, depends_on_prev);
    return res.value;
}

void
Machine::storeOn(unsigned core, Addr addr, unsigned size,
                 std::uint64_t value)
{
    MemorySystem &mem = *mems_.at(core);
    mem.syncClock(cores_[core].cycles());
    const auto res = mem.store(addr, size, value);
    cores_[core].retireStore(res.latency);
}

void
Machine::cformOn(unsigned core, const CformOp &op)
{
    MemorySystem &mem = *mems_.at(core);
    mem.syncClock(cores_[core].cycles());
    const auto res = mem.cform(op);
    cores_[core].retireCform(res.latency);
}

void
Machine::computeOn(unsigned core, std::uint32_t ops)
{
    cores_.at(core).retireCompute(ops);
}

BitVectorLine
Machine::functionalLine(Addr line_addr) const
{
    BitVectorLine line;
    for (const auto &mem : mems_)
        if (mem->peekPrivateLine(line_addr, line))
            return line;
    return fillLine(shared_.functionalRead(line_addr));
}

std::uint8_t
Machine::peekByte(Addr addr) const
{
    return functionalLine(lineBase(addr)).data[lineOffset(addr)];
}

void
Machine::pokeByte(Addr addr, std::uint8_t v)
{
    // Write through every private copy *and* the shared side, so clean
    // copies keep matching the hierarchy below them and no replica goes
    // stale (dirty bits are left as they are).
    const Addr la = lineBase(addr);
    BitVectorLine line = functionalLine(la);
    line.data[lineOffset(addr)] = v;
    for (const auto &mem : mems_)
        mem->pokePrivateLine(la, line);
    shared_.functionalWrite(la, spillLine(line));
}

std::vector<std::uint8_t>
Machine::peekBytes(Addr addr, std::size_t n) const
{
    std::vector<std::uint8_t> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        out.push_back(peekByte(addr + i));
    return out;
}

SecurityMask
Machine::securityMask(Addr addr) const
{
    return functionalLine(lineBase(addr)).mask;
}

Cycles
Machine::cycles() const
{
    Cycles slowest = 0;
    for (const CoreModel &core : cores_)
        slowest = std::max(slowest, core.cycles());
    const auto floor = static_cast<Cycles>(
        static_cast<double>(shared_.dramAccesses()) *
        params_.core.dramCyclesPerLine);
    return std::max(slowest, floor);
}

Cycles
Machine::coreCycles(unsigned core) const
{
    return cores_.at(core).cycles();
}

std::uint64_t
Machine::instructions() const
{
    std::uint64_t total = 0;
    for (const CoreModel &core : cores_)
        total += core.instructions();
    return total;
}

std::uint64_t
Machine::coreInstructions(unsigned core) const
{
    return cores_.at(core).instructions();
}

MemSysStats
Machine::memStats() const
{
    MemSysStats out;
    for (const auto &mem : mems_)
        mergeStats(out, mem->privateStats());
    mergeStats(out, shared_.stats());
    return out;
}

MemSysStats
Machine::coreMemStats(unsigned core) const
{
    return mems_.at(core)->privateStats();
}

void
Machine::flushAll()
{
    for (const auto &mem : mems_)
        mem->flushPrivate();
    shared_.flushLevels();
}

void
Machine::clearStats()
{
    for (CoreModel &core : cores_)
        core.reset();
    for (const auto &mem : mems_)
        mem->clearStats();
}

std::string
describeParams(const MachineParams &params)
{
    // Rendered from the config ParamRegistry: every registered
    // machine knob prints, resolved against @p params, so this
    // Table 3 style listing cannot drift from the actual knob set —
    // a knob added to the registry appears here automatically.
    RunConfig rc;
    rc.machine = params;
    std::ostringstream os;
    os << "machine configuration (x86-64 Westmere-like OoO core, "
          "Table 3 defaults; * = non-default)\n";
    for (const config::ParamSpec &spec :
         config::ParamRegistry::instance().specs()) {
        if (!(spec.ns & config::kMachineScope))
            continue;
        const config::ParamValue value = spec.read(rc);
        std::string cell =
            spec.key + " = " + config::renderValue(value);
        if (cell.size() < 34)
            cell.resize(34, ' ');
        os << (value == spec.def ? "  " : "* ") << cell << " "
           << spec.doc << "\n";
    }
    return os.str();
}

} // namespace califorms
