/**
 * @file trace_bin.cc
 * The binary trace serialization (see the format comment in trace.hh):
 * LEB128 varints, zigzag address deltas against a running previous
 * address, a versioned magic header carrying the op count, and the
 * format auto-detection shared by every trace consumer. The encoding
 * is canonical — every field the tag byte does not use must be zero —
 * so decode -> encode is byte-identity and corrupted bytes are
 * rejected instead of replaying differently.
 */

#include "sim/trace.hh"

#include <array>
#include <cstddef>
#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>

namespace califorms
{

namespace
{

[[noreturn]] void
fail(const std::string &why)
{
    throw std::runtime_error("binary trace: " + why);
}

std::uint64_t
zigzag(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

std::int64_t
unzigzag(std::uint64_t v)
{
    return static_cast<std::int64_t>(v >> 1) ^
           -static_cast<std::int64_t>(v & 1);
}

/** Append @p v as a LEB128 varint at @p p; returns one past it. */
unsigned char *
putVarint(unsigned char *p, std::uint64_t v)
{
    while (v >= 0x80) {
        *p++ = static_cast<unsigned char>(v | 0x80);
        v >>= 7;
    }
    *p++ = static_cast<unsigned char>(v);
    return p;
}

// Tag byte layout: bits 0-1 kind, bit 2 dep/nt, bits 3-6 size-1.
constexpr std::uint8_t kKindMask = 0x03;
constexpr std::uint8_t kFlagBit = 0x04;
constexpr unsigned kSizeShift = 3;

/** The longest op encoding: a CFORM's tag byte and three ten-byte
 *  varints. */
constexpr std::ptrdiff_t kMaxOpBytes = 1 + 3 * 10;

/**
 * Encodes into a fixed block that one ostream::write() drains, so a
 * byte costs a store rather than a stream call — the mirror of
 * BinTraceReader's block decode. put() checks the room once per op
 * and drains when an op might not fit, so no op is split across two
 * writes. finish() drains the rest and checks the stream.
 */
class BinTraceWriter final : public TraceWriter
{
  public:
    BinTraceWriter(std::ostream &os, std::uint64_t op_count)
        : os_(os), count_(op_count)
    {
        unsigned char *p = pos_;
        for (const char c : kBinTraceMagic)
            *p++ = static_cast<unsigned char>(c);
        *p++ = kBinTraceVersion;
        *p++ = 0; // reserved
        pos_ = putVarint(p, count_);
    }

    /** Hands the stream whatever finish() did not, as a writer without
     *  a block would have. finish() is the call that reports a failed
     *  write; here the failure stays recorded in the stream's badbit. */
    ~BinTraceWriter() override
    {
        try {
            drain();
        } catch (...) {
            // The stream sets badbit before its exception mask
            // rethrows, so the failure is not lost.
        }
    }

    void
    put(const TraceOp &op) override
    {
        if (written_ == count_)
            fail("op count exceeded the declared length prefix");
        if (block_.data() + block_.size() - pos_ < kMaxOpBytes)
            drain();
        // Encode through a local pointer: a store through the member
        // could alias the member itself and force a reload per byte.
        unsigned char *p = pos_;
        switch (op.kind) {
        case TraceOp::Kind::Load:
        case TraceOp::Kind::Store: {
            if (op.size == 0 || op.size > 8)
                fail("bad access size " + std::to_string(op.size));
            std::uint8_t tag = op.kind == TraceOp::Kind::Load ? 0 : 1;
            if (op.kind == TraceOp::Kind::Load && op.dependsOnPrev)
                tag |= kFlagBit;
            tag |= static_cast<std::uint8_t>((op.size - 1)
                                             << kSizeShift);
            *p++ = tag;
            p = putDelta(p, op.addr);
            if (op.kind == TraceOp::Kind::Store)
                p = putVarint(p, op.value);
            break;
        }
        case TraceOp::Kind::Cform: {
            std::uint8_t tag = 2;
            if (op.cform.nonTemporal)
                tag |= kFlagBit;
            *p++ = tag;
            p = putDelta(p, op.cform.lineAddr);
            p = putVarint(p, op.cform.setBits);
            p = putVarint(p, op.cform.mask);
            break;
        }
        case TraceOp::Kind::Compute:
            *p++ = 3;
            p = putVarint(p, op.computeOps);
            break;
        }
        pos_ = p;
        ++written_;
    }

    void
    finish() override
    {
        drain();
        if (written_ != count_)
            fail("wrote " + std::to_string(written_) +
                 " ops but the header declared " +
                 std::to_string(count_));
        os_.flush();
        if (!os_)
            fail("write error");
    }

  private:
    /** Hand the encoded bytes to the stream in one write. */
    void
    drain()
    {
        unsigned char *const begin = block_.data();
        if (pos_ == begin)
            return;
        const auto n = static_cast<std::streamsize>(pos_ - begin);
        pos_ = begin;
        os_.write(reinterpret_cast<const char *>(begin), n);
    }

    unsigned char *
    putDelta(unsigned char *p, Addr addr)
    {
        // Subtract modulo 2^64: a jump across half the address space
        // wraps to the same delta without signed overflow.
        const auto delta = static_cast<std::int64_t>(addr - prevAddr_);
        prevAddr_ = addr;
        return putVarint(p, zigzag(delta));
    }

    std::ostream &os_;
    std::array<unsigned char, kBinTraceBlockBytes> block_;
    unsigned char *pos_ = block_.data(); //!< next free byte of block_
    std::uint64_t count_;
    std::uint64_t written_ = 0;
    Addr prevAddr_ = 0;
};

/**
 * Decodes from a fixed block that one istream::read() refills, so a
 * byte costs a pointer compare rather than a stream call. The reader
 * therefore consumes up to one block past the op it last returned;
 * the length prefix makes the end of the trace the end of the stream,
 * so nothing else reads that stream afterwards.
 */
class BinTraceReader final : public TraceReader
{
  public:
    BinTraceReader(std::istream &is, bool magic_consumed) : is_(is)
    {
        if (!magic_consumed) {
            char magic[sizeof(kBinTraceMagic)];
            if (!is_.read(magic, sizeof(magic)))
                fail("truncated header");
            if (std::memcmp(magic, kBinTraceMagic, sizeof(magic)) != 0)
                fail("bad magic (not a binary trace)");
        }
        const int version = is_.get();
        const int reserved = is_.get();
        if (version == std::char_traits<char>::eof() ||
            reserved == std::char_traits<char>::eof())
            fail("truncated header");
        if (version != kBinTraceVersion)
            fail("unsupported version " + std::to_string(version) +
                 " (expected " + std::to_string(kBinTraceVersion) +
                 ")");
        if (reserved != 0)
            fail("nonzero reserved header byte");
        count_ = getVarint("header op count");
    }

    bool
    next(TraceOp &op) override
    {
        if (read_ == count_) {
            // The length prefix is authoritative: bytes past the last
            // op — still buffered or yet unread — mean corruption (or
            // a concatenated file), never data.
            if (!tailChecked_) {
                tailChecked_ = true;
                if (pos_ != end_ || refill())
                    fail("trailing junk after " +
                         std::to_string(count_) + " ops");
            }
            return false;
        }
        const int tag = getByte();
        if (tag < 0)
            fail("truncated at op " + std::to_string(read_) + " of " +
                 std::to_string(count_));
        const unsigned kind = tag & kKindMask;
        const bool flag = tag & kFlagBit;
        const unsigned size = ((tag >> kSizeShift) & 0x0f) + 1;
        if (tag & 0x80)
            fail("bad tag byte");
        switch (kind) {
        case 0:
            checkSize(size);
            op = TraceOp::load(getDelta(), size, flag);
            break;
        case 1: {
            if (flag)
                fail("bad tag byte"); // stores carry no dep flag
            checkSize(size);
            // Two stream reads: sequence them explicitly (argument
            // evaluation order is unspecified).
            const Addr addr = getDelta();
            op = TraceOp::store(addr, size, getVarint("store value"));
            break;
        }
        case 2: {
            if (size != 1) // size bits must be zero for cform/compute
                fail("bad tag byte");
            CformOp cform;
            cform.lineAddr = getDelta();
            cform.setBits = getVarint("cform set bits");
            cform.mask = getVarint("cform mask");
            cform.nonTemporal = flag;
            op = TraceOp::cformOp(cform);
            break;
        }
        default: {
            if (flag || size != 1)
                fail("bad tag byte");
            const std::uint64_t ops = getVarint("compute count");
            if (ops > 0xffffffffull)
                fail("compute count overflows uint32");
            op = TraceOp::compute(static_cast<std::uint32_t>(ops));
            break;
        }
        }
        ++read_;
        return true;
    }

  private:
    /** Read the next block; false at the end of the stream. */
    bool
    refill()
    {
        is_.read(block_.data(), block_.size());
        pos_ = reinterpret_cast<const unsigned char *>(block_.data());
        end_ = pos_ + is_.gcount();
        return pos_ != end_;
    }

    /** The next byte, or -1 at the end of the stream. */
    int
    getByte()
    {
        if (pos_ == end_ && !refill())
            return -1;
        return *pos_++;
    }

    std::uint64_t
    getVarint(const char *what)
    {
        std::uint64_t v = 0;
        for (unsigned shift = 0; shift < 64; shift += 7) {
            const int byte = getByte();
            if (byte < 0)
                fail(std::string("truncated ") + what);
            v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
            if (!(byte & 0x80)) {
                // The final byte of a 10-byte varint may only carry
                // one bit; anything more overflowed 64 bits.
                if (shift == 63 && (byte & 0x7e))
                    fail(std::string("varint overflow in ") + what);
                // A terminal zero byte past the first position is a
                // non-minimal encoding the writer never produces;
                // accept it and decode -> encode would no longer be
                // byte-identity (the canonical-form contract).
                if (shift > 0 && byte == 0)
                    fail(std::string("non-minimal varint in ") + what);
                return v;
            }
        }
        fail(std::string("varint overflow in ") + what);
    }

    void
    checkSize(unsigned size) const
    {
        if (size > 8)
            fail("bad access size " + std::to_string(size));
    }

    Addr
    getDelta()
    {
        prevAddr_ += static_cast<Addr>(unzigzag(getVarint("address delta")));
        return prevAddr_;
    }

    std::istream &is_;
    std::array<char, kBinTraceBlockBytes> block_;
    const unsigned char *pos_ = nullptr; //!< next unread buffered byte
    const unsigned char *end_ = nullptr; //!< one past the buffered bytes
    std::uint64_t count_ = 0;
    std::uint64_t read_ = 0;
    bool tailChecked_ = false;
    Addr prevAddr_ = 0;
};

} // namespace

void
writeTraceBinary(std::ostream &os, const Trace &trace)
{
    BinTraceWriter writer(os, trace.size());
    for (const TraceOp &op : trace)
        writer.put(op);
    writer.finish();
}

Trace
readTraceBinary(std::istream &is)
{
    BinTraceReader reader(is, false);
    Trace trace;
    TraceOp op;
    while (reader.next(op))
        trace.push_back(op);
    return trace;
}

std::unique_ptr<TraceReader>
openTraceReader(std::istream &is, TraceFormat format)
{
    if (format == TraceFormat::Binary)
        return std::make_unique<BinTraceReader>(is, false);
    return detail::makeTextReader(is, {});
}

std::unique_ptr<TraceReader>
openTraceReader(std::istream &is)
{
    // Sniff the magic byte by byte, stopping at the first mismatch so
    // a short text trace is not over-consumed; whatever was read is
    // carried into the text parser.
    std::string head;
    char c;
    while (head.size() < sizeof(kBinTraceMagic) && is.get(c)) {
        head += c;
        if (c != kBinTraceMagic[head.size() - 1])
            break;
    }
    if (head.size() == sizeof(kBinTraceMagic) &&
        std::memcmp(head.data(), kBinTraceMagic, head.size()) == 0)
        return std::make_unique<BinTraceReader>(is, true);
    return detail::makeTextReader(is, std::move(head));
}

std::unique_ptr<TraceWriter>
makeTraceWriter(std::ostream &os, TraceFormat format,
                std::uint64_t op_count)
{
    if (format == TraceFormat::Binary)
        return std::make_unique<BinTraceWriter>(os, op_count);
    return detail::makeTextWriter(os);
}

} // namespace califorms
