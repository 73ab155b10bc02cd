#include "sim/trace.hh"

#include <algorithm>
#include <istream>
#include <memory>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>

namespace califorms
{

ReplayStats
replayStreams(Machine &machine, std::span<TraceReader *const> streams,
              std::uint64_t max_ops)
{
    if (streams.size() > machine.coreCount())
        throw std::invalid_argument(
            "replayStreams: more streams than cores");

    // The live streams in core order, in [first, last). A drained
    // stream is erased in place, so the stream after it keeps its turn
    // in the same round.
    struct Live
    {
        unsigned core;
        TraceReader *reader;
    };
    const auto live = std::make_unique<Live[]>(streams.size());
    Live *const first = live.get();
    Live *last = first;
    for (unsigned core = 0; core < streams.size(); ++core)
        *last++ = {core, streams[core]};

    // The totals accumulate in locals, not in the returned struct: the
    // machine calls are opaque, so stores through the result would be
    // repeated on every op. `left` is the remaining op budget.
    std::uint64_t left = max_ops ? max_ops : ~std::uint64_t{0};
    std::uint64_t checksum = 0;
    std::uint64_t kind_ops[4] = {0, 0, 0, 0};
    TraceOp op;
    for (Live *it = first; it != last && left;) {
        if (it->reader->next(op)) {
            --left;
            // Each case counts its own kind: a constant slot is cheaper
            // than one indexed by the op just decoded.
            switch (op.kind) {
            case TraceOp::Kind::Load:
                ++kind_ops[0];
                checksum ^= machine.loadOn(it->core, op.addr, op.size,
                                           op.dependsOnPrev);
                break;
            case TraceOp::Kind::Store:
                ++kind_ops[1];
                machine.storeOn(it->core, op.addr, op.size, op.value);
                break;
            case TraceOp::Kind::Cform:
                ++kind_ops[2];
                machine.cformOn(it->core, op.cform);
                break;
            case TraceOp::Kind::Compute:
                ++kind_ops[3];
                machine.computeOn(it->core, op.computeOps);
                break;
            }
            ++it;
        } else {
            last = std::move(it + 1, last, it);
        }
        if (it == last)
            it = first;
    }

    ReplayStats stats;
    stats.ops = kind_ops[0] + kind_ops[1] + kind_ops[2] + kind_ops[3];
    stats.checksum = checksum;
    std::copy(std::begin(kind_ops), std::end(kind_ops), stats.kindOps);
    return stats;
}

std::uint64_t
runTrace(Machine &machine, TraceReader &reader,
         std::uint64_t *ops_replayed)
{
    TraceReader *const stream = &reader;
    const ReplayStats stats = replayStreams(machine, {&stream, 1});
    if (ops_replayed)
        *ops_replayed = stats.ops;
    return stats.checksum;
}

std::uint64_t
runTraceInterleaved(Machine &machine,
                    const std::vector<TraceReader *> &streams,
                    std::uint64_t *ops_replayed)
{
    if (streams.size() != machine.coreCount())
        throw std::invalid_argument(
            "runTraceInterleaved: need exactly one stream per core");
    const ReplayStats stats = replayStreams(machine, streams);
    if (ops_replayed)
        *ops_replayed = stats.ops;
    return stats.checksum;
}

namespace detail
{

void
writeTraceOpText(std::ostream &os, const TraceOp &op)
{
    os << std::hex;
    switch (op.kind) {
    case TraceOp::Kind::Load:
        os << "L " << op.addr << " " << std::dec << unsigned(op.size)
           << std::hex;
        if (op.dependsOnPrev)
            os << " dep";
        os << "\n";
        break;
    case TraceOp::Kind::Store:
        os << "S " << op.addr << " " << std::dec << unsigned(op.size)
           << std::hex << " " << op.value << "\n";
        break;
    case TraceOp::Kind::Cform:
        os << "C " << op.cform.lineAddr << " " << op.cform.setBits
           << " " << op.cform.mask;
        if (op.cform.nonTemporal)
            os << " nt";
        os << "\n";
        break;
    case TraceOp::Kind::Compute:
        os << "X " << std::dec << op.computeOps << std::hex << "\n";
        break;
    }
}

} // namespace detail

void
writeTrace(std::ostream &os, const Trace &trace)
{
    for (const TraceOp &op : trace)
        detail::writeTraceOpText(os, op);
}

namespace
{

/**
 * Streaming text parser. The optional @p carry string holds bytes the
 * format auto-detection already consumed from the stream; they are
 * logically prepended (they belong to the first line or two).
 */
class TextTraceReader final : public TraceReader
{
  public:
    TextTraceReader(std::istream &is, std::string carry)
        : is_(is), carry_(std::move(carry))
    {}

    bool
    next(TraceOp &op) override
    {
        std::string line;
        while (nextLine(line)) {
            ++lineno_;
            if (parseLine(line, op))
                return true;
        }
        return false;
    }

  private:
    /** getline over carry-then-stream; false at end of input. */
    bool
    nextLine(std::string &line)
    {
        line.clear();
        bool carried = false;
        while (carryPos_ < carry_.size()) {
            carried = true;
            const char c = carry_[carryPos_++];
            if (c == '\n')
                return true;
            line += c;
        }
        std::string rest;
        if (std::getline(is_, rest)) {
            line += rest;
            return true;
        }
        return carried; // a final unterminated carried line
    }

    [[noreturn]] void
    fail(const std::string &why) const
    {
        throw std::runtime_error("trace line " +
                                 std::to_string(lineno_) + ": " + why);
    }

    /** Parse one line into @p op; false for comments and blanks. */
    bool
    parseLine(const std::string &line, TraceOp &op)
    {
        std::istringstream ss(line);
        std::string tag;
        if (!(ss >> tag) || tag[0] == '#')
            return false;
        auto checkSize = [&](unsigned size) {
            if (size == 0 || size > 8)
                fail("bad access size " + std::to_string(size));
        };
        // Anything after a well-formed op must be the op's own optional
        // flag; unknown trailing tokens are rejected rather than
        // silently dropped so a corrupted trace cannot quietly replay
        // differently.
        auto expectEnd = [&](std::istringstream &rest) {
            std::string extra;
            if (rest >> extra)
                fail("trailing junk '" + extra + "'");
        };
        // Every operand in the format is unsigned; istream extraction
        // would silently wrap a negative number modulo 2^N, replaying
        // a corrupted trace differently instead of rejecting it.
        if (line.find('-') != std::string::npos)
            fail("negative operand");
        if (tag == "L") {
            Addr addr;
            unsigned size;
            std::string dep;
            if (!(ss >> std::hex >> addr >> std::dec >> size))
                fail("malformed load");
            checkSize(size);
            const bool is_dep = static_cast<bool>(ss >> dep);
            if (is_dep && dep != "dep")
                fail("trailing junk '" + dep + "'");
            expectEnd(ss);
            op = TraceOp::load(addr, size, is_dep);
        } else if (tag == "S") {
            Addr addr;
            unsigned size;
            std::uint64_t value;
            if (!(ss >> std::hex >> addr >> std::dec >> size >>
                  std::hex >> value))
                fail("malformed store");
            checkSize(size);
            expectEnd(ss);
            op = TraceOp::store(addr, size, value);
        } else if (tag == "C") {
            CformOp cform;
            std::string nt;
            if (!(ss >> std::hex >> cform.lineAddr >> cform.setBits >>
                  cform.mask))
                fail("malformed cform");
            cform.nonTemporal = static_cast<bool>(ss >> nt);
            if (cform.nonTemporal && nt != "nt")
                fail("trailing junk '" + nt + "'");
            expectEnd(ss);
            op = TraceOp::cformOp(cform);
        } else if (tag == "X") {
            std::uint32_t ops;
            if (!(ss >> std::dec >> ops))
                fail("malformed compute");
            expectEnd(ss);
            op = TraceOp::compute(ops);
        } else {
            fail("unknown op '" + tag + "'");
        }
        return true;
    }

    std::istream &is_;
    std::string carry_;
    std::size_t carryPos_ = 0;
    std::size_t lineno_ = 0;
};

class TextTraceWriter final : public TraceWriter
{
  public:
    explicit TextTraceWriter(std::ostream &os) : os_(os) {}

    void
    put(const TraceOp &op) override
    {
        detail::writeTraceOpText(os_, op);
    }

    void
    finish() override
    {
        os_.flush();
    }

  private:
    std::ostream &os_;
};

} // namespace

namespace detail
{

std::unique_ptr<TraceReader>
makeTextReader(std::istream &is, std::string carry)
{
    return std::make_unique<TextTraceReader>(is, std::move(carry));
}

std::unique_ptr<TraceWriter>
makeTextWriter(std::ostream &os)
{
    return std::make_unique<TextTraceWriter>(os);
}

} // namespace detail

} // namespace califorms
