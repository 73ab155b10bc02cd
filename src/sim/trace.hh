/**
 * @file trace.hh
 * Memory trace representation, replay, and two serializations — a
 * plain-text format and a compact streaming binary format. Lets
 * downstream users drive the simulated machine from recorded or
 * generated traces without writing C++ — the classic trace-driven
 * simulator workflow.
 *
 * Text format, one op per line (comments start with '#'):
 *
 *   L <addr-hex> <size> [dep]        load; "dep" marks pointer chasing
 *   S <addr-hex> <size> <value-hex>  store
 *   C <line-hex> <set-hex> <mask-hex> [nt]  CFORM (nt = non-temporal)
 *   X <ops>                          compute block of <ops> micro-ops
 *
 * Binary format (roughly 3-5 bytes/op vs ~15 for text, and parsed
 * without any line splitting — multi-million-op traces stream straight
 * into the machine):
 *
 *   header   6-byte magic "CALTRC", u8 version (currently 1),
 *            u8 reserved (0), varint op count (the length prefix)
 *   per op   1 tag byte: bits 0-1 kind (0=L 1=S 2=C 3=X), bit 2 the
 *            dep/nt flag, bits 3-6 size-1 for loads/stores
 *            L: varint zigzag(addr - prevAddr)
 *            S: varint zigzag(addr - prevAddr), varint value
 *            C: varint zigzag(lineAddr - prevAddr), varint setBits,
 *               varint mask
 *            X: varint computeOps
 *
 * prevAddr starts at 0 and tracks the last address-carrying op, so the
 * hot case (small strides, pointer chases within a region) encodes in
 * one or two address bytes. The reader rejects truncated headers,
 * version mismatches, truncated op bodies, and trailing junk after the
 * declared op count. Both formats are canonical: parse -> serialize is
 * byte-identity, so text <-> binary conversion round-trips exactly.
 */

#ifndef CALIFORMS_SIM_TRACE_HH
#define CALIFORMS_SIM_TRACE_HH

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/cform.hh"
#include "sim/machine.hh"

namespace califorms
{

/** One operation in a trace. */
struct TraceOp
{
    enum class Kind : std::uint8_t
    {
        Load,
        Store,
        Cform,
        Compute,
    };

    Kind kind = Kind::Compute;
    bool dependsOnPrev = false; //!< loads only
    std::uint8_t size = 8;      //!< loads/stores
    std::uint32_t computeOps = 0;
    Addr addr = 0;
    std::uint64_t value = 0;    //!< store data
    CformOp cform{};

    // Inline: the generators and the binary reader build one per op.
    static TraceOp
    load(Addr addr, unsigned size, bool dep = false)
    {
        TraceOp op;
        op.kind = Kind::Load;
        op.addr = addr;
        op.size = static_cast<std::uint8_t>(size);
        op.dependsOnPrev = dep;
        return op;
    }

    static TraceOp
    store(Addr addr, unsigned size, std::uint64_t value)
    {
        TraceOp op;
        op.kind = Kind::Store;
        op.addr = addr;
        op.size = static_cast<std::uint8_t>(size);
        op.value = value;
        return op;
    }

    static TraceOp
    cformOp(const CformOp &cform)
    {
        TraceOp op;
        op.kind = Kind::Cform;
        op.cform = cform;
        return op;
    }

    static TraceOp
    compute(std::uint32_t ops)
    {
        TraceOp op;
        op.kind = Kind::Compute;
        op.computeOps = ops;
        return op;
    }
};

using Trace = std::vector<TraceOp>;

/** The two on-disk trace serializations. */
enum class TraceFormat
{
    Text,
    Binary,
};

/** Binary header constants (see the format comment above). */
inline constexpr char kBinTraceMagic[6] = {'C', 'A', 'L', 'T', 'R',
                                           'C'};
inline constexpr std::uint8_t kBinTraceVersion = 1;

/** The binary reader decodes from blocks of this many bytes, each one
 *  istream::read(), and the writer encodes into one such block that
 *  one ostream::write() drains. Not part of the format: it only fixes
 *  where the reader's refills and the writer's drains fall. */
inline constexpr std::size_t kBinTraceBlockBytes = 16 * 1024;

/** Serialize to the text format. */
void writeTrace(std::ostream &os, const Trace &trace);

/** Serialize to the binary format (header + every op). */
void writeTraceBinary(std::ostream &os, const Trace &trace);

// Streaming interface ---------------------------------------------------
//
// The two writers above serialize a whole in-memory Trace. Traces are
// read and replayed only through the streaming classes below, which
// handle arbitrarily long traces in constant memory.

/** Incremental trace source: yields one op at a time. */
class TraceReader
{
  public:
    virtual ~TraceReader() = default;
    /** Produce the next op into @p op; false at end of trace. Throws
     *  std::runtime_error on malformed input. */
    virtual bool next(TraceOp &op) = 0;

    /** Bulk variant: produce up to @p max ops into @p out, returning
     *  the count actually written (< max only at end of trace). The
     *  default makes one virtual next() call per op; the synthetic
     *  generators override it with one virtual call per block, their
     *  produce() inlined into the loop. Recording a whole stream to a
     *  trace file pulls blocks through it (`califorms trace gen
     *  --workload` and perfbench's recorded workloads). Replay never
     *  uses it: replayStreams() pulls one op at a time with next(). */
    virtual std::size_t
    fill(TraceOp *out, std::size_t max)
    {
        std::size_t n = 0;
        while (n < max && next(out[n]))
            ++n;
        return n;
    }
};

/**
 * Open @p is as a trace, auto-detecting the format from the first
 * bytes: a "CALTRC" magic selects the binary reader (validating the
 * version), anything else falls back to the text parser (which then
 * reports its own diagnostics, so a corrupt header never replays as
 * text silently — text lines never start with the magic).
 */
std::unique_ptr<TraceReader> openTraceReader(std::istream &is);

/** Incremental trace sink; the binary writer needs the final op count
 *  up front (the format is length-prefixed). */
class TraceWriter
{
  public:
    virtual ~TraceWriter() = default;
    virtual void put(const TraceOp &op) = 0;
    /** Flush and verify the op count; called once, after the last put.
     *  Throws std::runtime_error if the count does not match. */
    virtual void finish() = 0;
};

/** Create a streaming writer. @p op_count is required (and enforced)
 *  for the binary format; the text writer ignores it. */
std::unique_ptr<TraceWriter> makeTraceWriter(std::ostream &os,
                                             TraceFormat format,
                                             std::uint64_t op_count);

/** Totals of one replayStreams() call. */
struct ReplayStats
{
    std::uint64_t ops = 0;      //!< ops issued
    std::uint64_t checksum = 0; //!< loads' value XOR
    /** Ops per TraceOp::Kind, indexed Load/Store/Cform/Compute. */
    std::uint64_t kindOps[4] = {0, 0, 0, 0};
};

/**
 * The replay loop every trace-driven entry point shares. Stream c
 * drives core c with a deterministic round-robin interleave: one op
 * from core 0, one from core 1, ... each round, in core order; a
 * stream that ends drops out of the rotation while the rest continue.
 * The fixed policy makes any (machine, streams) pair reproduce the
 * same cycles, stats, and checksum on every run. With @p max_ops
 * non-zero the replay stops after that many ops in total and never
 * pulls an op past the cap, so a capped replay is an exact prefix of
 * the uncapped one. Throws std::invalid_argument when there are more
 * streams than cores.
 */
ReplayStats replayStreams(Machine &machine,
                          std::span<TraceReader *const> streams,
                          std::uint64_t max_ops = 0);

/** Replay every op @p reader yields on core 0; returns the loads'
 *  value XOR, and the op count via @p ops_replayed when non-null. */
std::uint64_t runTrace(Machine &machine, TraceReader &reader,
                       std::uint64_t *ops_replayed = nullptr);

/**
 * replayStreams() over exactly one stream per core: @p streams must
 * contain machine.coreCount() entries (throws std::invalid_argument
 * otherwise). Returns the loads' value XOR across all cores (and the
 * total op count via @p ops_replayed) — with one stream this is
 * exactly runTrace.
 */
std::uint64_t
runTraceInterleaved(Machine &machine,
                    const std::vector<TraceReader *> &streams,
                    std::uint64_t *ops_replayed = nullptr);

namespace detail
{
// Internal plumbing shared between trace.cc (text side) and
// trace_bin.cc (binary side + auto-detect); not part of the API.
void writeTraceOpText(std::ostream &os, const TraceOp &op);
std::unique_ptr<TraceReader> makeTextReader(std::istream &is,
                                            std::string carry);
std::unique_ptr<TraceWriter> makeTextWriter(std::ostream &os);
} // namespace detail

} // namespace califorms

#endif // CALIFORMS_SIM_TRACE_HH
