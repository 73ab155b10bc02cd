/**
 * @file test_trace.cc
 * Trace replay and serialization tests: round-trip through the text
 * and binary formats, the writer's bytes pinned across blocks and its
 * stream-failure report, header/truncation edge cases, format
 * auto-detection, streaming-vs-vector equivalence, replay determinism,
 * equivalence between trace replay and direct Machine calls, the
 * shared replay loop (op cap, per-kind counts), and the stats dump.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <streambuf>
#include <string>

#include "sim/stats_dump.hh"
#include "sim/trace.hh"
#include "trace_helpers.hh"
#include "util/rng.hh"
#include "workload/synth.hh"

namespace califorms
{
namespace
{

Trace
randomTrace(Rng &rng, std::size_t n)
{
    Trace trace;
    for (std::size_t i = 0; i < n; ++i) {
        const Addr addr = 0x10000 + 8 * rng.nextBelow(4096);
        switch (rng.nextBelow(4)) {
        case 0:
            trace.push_back(TraceOp::load(addr, 8, rng.chance(0.3)));
            break;
        case 1:
            trace.push_back(TraceOp::store(addr, 8, rng.next()));
            break;
        case 2: {
            // Set-then-unset pairs keep the CFORM K-map happy.
            const SecurityMask m = rng.next() & 0xff;
            if (m) {
                trace.push_back(
                    TraceOp::cformOp(makeSetOp(lineBase(addr), m)));
                trace.push_back(
                    TraceOp::cformOp(makeUnsetOp(lineBase(addr), m)));
            }
            break;
          }
        default:
            trace.push_back(TraceOp::compute(
                static_cast<std::uint32_t>(rng.nextBelow(16))));
        }
    }
    return trace;
}

TEST(TraceText, RoundTrip)
{
    Rng rng(5);
    const Trace trace = randomTrace(rng, 200);
    std::stringstream ss;
    writeTrace(ss, trace);
    const Trace back = readAll(ss);
    ASSERT_EQ(back.size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        EXPECT_EQ(back[i].kind, trace[i].kind) << i;
        EXPECT_EQ(back[i].addr, trace[i].addr) << i;
        EXPECT_EQ(back[i].size, trace[i].size) << i;
        EXPECT_EQ(back[i].value, trace[i].value) << i;
        EXPECT_EQ(back[i].dependsOnPrev, trace[i].dependsOnPrev) << i;
        EXPECT_EQ(back[i].computeOps, trace[i].computeOps) << i;
        EXPECT_EQ(back[i].cform.lineAddr, trace[i].cform.lineAddr) << i;
        EXPECT_EQ(back[i].cform.setBits, trace[i].cform.setBits) << i;
        EXPECT_EQ(back[i].cform.mask, trace[i].cform.mask) << i;
        EXPECT_EQ(back[i].cform.nonTemporal, trace[i].cform.nonTemporal)
            << i;
    }
}

TEST(TraceText, CommentsAndBlanksIgnored)
{
    std::stringstream ss("# header\n\nL 1000 8 dep\n# tail\nX 5\n");
    const Trace trace = readAll(ss);
    ASSERT_EQ(trace.size(), 2u);
    EXPECT_EQ(trace[0].kind, TraceOp::Kind::Load);
    EXPECT_TRUE(trace[0].dependsOnPrev);
    EXPECT_EQ(trace[1].computeOps, 5u);
}

/** Fuzz-style variant of randomTrace: mixed access sizes, dep flags,
 *  non-temporal CFORMs, zero-compute blocks. */
Trace
fuzzTrace(Rng &rng, std::size_t n)
{
    static const unsigned sizes[] = {1, 2, 4, 8};
    Trace trace;
    for (std::size_t i = 0; i < n; ++i) {
        const Addr addr = rng.next() & 0xffff'ffff'fff8ull;
        switch (rng.nextBelow(4)) {
        case 0:
            trace.push_back(TraceOp::load(
                addr, sizes[rng.nextBelow(4)], rng.chance(0.5)));
            break;
        case 1:
            trace.push_back(TraceOp::store(
                addr, sizes[rng.nextBelow(4)], rng.next()));
            break;
        case 2: {
            CformOp op;
            op.lineAddr = lineBase(addr);
            op.setBits = rng.next() & 0xff;
            op.mask = rng.next() & 0xff;
            op.nonTemporal = rng.chance(0.3);
            trace.push_back(TraceOp::cformOp(op));
            break;
          }
        default:
            trace.push_back(TraceOp::compute(
                static_cast<std::uint32_t>(rng.nextBelow(1000))));
        }
    }
    return trace;
}

TEST(TraceTextFuzz, SerializeIsAFixedPoint)
{
    // random trace -> text -> parse -> text must reproduce the first
    // text exactly: the serializer emits canonical form and the parser
    // loses nothing.
    for (std::uint64_t seed = 1; seed <= 25; ++seed) {
        Rng rng(seed);
        const Trace trace = fuzzTrace(rng, 100 + rng.nextBelow(200));
        std::stringstream first;
        writeTrace(first, trace);
        const Trace parsed = readAll(first);
        ASSERT_EQ(parsed.size(), trace.size()) << "seed " << seed;
        std::stringstream second;
        writeTrace(second, parsed);
        EXPECT_EQ(second.str(), first.str()) << "seed " << seed;
    }
}

TEST(TraceTextFuzz, MalformedLinesRejectedWithoutCrashing)
{
    const char *const malformed[] = {
        "L",                        // missing operands
        "L zz 8",                   // bad address
        "L 1000",                   // missing size
        "L 1000 0",                 // zero access size
        "L 1000 9",                 // oversized access
        "L 1000 8 junk",            // unknown trailing token
        "L 1000 8 dep junk",        // junk after the dep flag
        "S 1000 8",                 // store without a value
        "S 1000 99 5",              // oversized store
        "S 1000 8 5 extra",         // trailing junk
        "C 1000 ff",                // cform missing the mask
        "C 1000 ff f0 xx",          // bad nt flag
        "C 1000 ff f0 nt nt",       // junk after the nt flag
        "X",                        // compute without a count
        "X banana",                 // non-numeric count
        "X 99999999999999999999",   // count overflows uint32
        "X -1",                     // negative count must not wrap
        "S 1000 -1 5",              // negative size must not wrap
        "C 1000 -ff f0",            // negative set bits
        "L -1000 8",                // negative address
        "Q what",                   // unknown op
        "LL 1000 8",                // unknown multi-char op
    };
    for (const char *input : malformed) {
        std::stringstream ss(std::string(input) + "\n");
        EXPECT_THROW(readAll(ss), std::runtime_error) << input;
    }
}

TEST(TraceTextFuzz, GarbageBytesRejectedOrIgnoredButNeverCrash)
{
    // Pure byte fuzz: whatever the parser does, it must either parse
    // or throw std::runtime_error — never crash or hang.
    Rng rng(0xf22);
    for (int round = 0; round < 200; ++round) {
        std::string blob;
        const std::size_t len = rng.nextBelow(160);
        for (std::size_t i = 0; i < len; ++i)
            blob += static_cast<char>(rng.nextBelow(128));
        std::stringstream ss(blob);
        try {
            const Trace t = readAll(ss);
            (void)t;
        } catch (const std::runtime_error &) {
            // expected for most inputs
        }
    }
}

TEST(TraceText, BadInputReportsLine)
{
    std::stringstream ss("L 1000 8\nQ what\n");
    try {
        readAll(ss);
        FAIL() << "expected exception";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("line 2"),
                  std::string::npos);
    }
}

// Binary format -------------------------------------------------------

void
expectTracesEqual(const Trace &a, const Trace &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].kind, b[i].kind) << i;
        EXPECT_EQ(a[i].addr, b[i].addr) << i;
        EXPECT_EQ(a[i].size, b[i].size) << i;
        EXPECT_EQ(a[i].value, b[i].value) << i;
        EXPECT_EQ(a[i].dependsOnPrev, b[i].dependsOnPrev) << i;
        EXPECT_EQ(a[i].computeOps, b[i].computeOps) << i;
        EXPECT_EQ(a[i].cform.lineAddr, b[i].cform.lineAddr) << i;
        EXPECT_EQ(a[i].cform.setBits, b[i].cform.setBits) << i;
        EXPECT_EQ(a[i].cform.mask, b[i].cform.mask) << i;
        EXPECT_EQ(a[i].cform.nonTemporal, b[i].cform.nonTemporal) << i;
    }
}

std::string
toBinary(const Trace &trace)
{
    std::ostringstream os;
    writeTraceBinary(os, trace);
    return os.str();
}

TEST(TraceBinary, RoundTrip)
{
    Rng rng(5);
    const Trace trace = randomTrace(rng, 300);
    std::stringstream ss(toBinary(trace));
    expectTracesEqual(readAll(ss), trace);
}

TEST(TraceBinary, ZeroOpTrace)
{
    std::stringstream ss(toBinary({}));
    EXPECT_TRUE(readAll(ss).empty());
    // A zero-op text trace, for symmetry.
    std::stringstream empty("");
    EXPECT_TRUE(readAll(empty).empty());
}

TEST(TraceBinaryFuzz, TextAndBinaryAreEquivalentFixedPoints)
{
    // ops -> binary -> parse must reproduce ops exactly (so binary ->
    // text -> binary is byte-identity, which the CLI round-trip
    // relies on), and re-encoding the parsed ops must reproduce the
    // first binary byte stream.
    for (std::uint64_t seed = 1; seed <= 25; ++seed) {
        Rng rng(seed);
        const Trace trace = fuzzTrace(rng, 100 + rng.nextBelow(200));
        const std::string first = toBinary(trace);
        std::stringstream ss(first);
        const Trace parsed = readAll(ss);
        expectTracesEqual(parsed, trace);
        EXPECT_EQ(toBinary(parsed), first) << "seed " << seed;
        // Cross-format: the parsed ops serialize to the same
        // canonical text the original ops do.
        std::ostringstream text_a, text_b;
        writeTrace(text_a, trace);
        writeTrace(text_b, parsed);
        EXPECT_EQ(text_a.str(), text_b.str()) << "seed " << seed;
    }
}

TEST(TraceBinary, AutoDetectsBothFormats)
{
    Rng rng(11);
    const Trace trace = randomTrace(rng, 50);

    std::stringstream bin(toBinary(trace));
    Trace from_bin;
    TraceOp op;
    const auto bin_reader = openTraceReader(bin);
    while (bin_reader->next(op))
        from_bin.push_back(op);
    expectTracesEqual(from_bin, trace);

    std::ostringstream text;
    writeTrace(text, trace);
    std::stringstream txt(text.str());
    Trace from_text;
    const auto text_reader = openTraceReader(txt);
    while (text_reader->next(op))
        from_text.push_back(op);
    expectTracesEqual(from_text, trace);
}

TEST(TraceBinary, AutoDetectHandsShortTextBack)
{
    // Shorter than the magic, and sharing its first byte ('C' is also
    // the cform op tag): the sniffed bytes must reach the text parser.
    std::stringstream ss("C 40 f0 f0\nX 5\n");
    const auto reader = openTraceReader(ss);
    Trace trace;
    TraceOp op;
    while (reader->next(op))
        trace.push_back(op);
    ASSERT_EQ(trace.size(), 2u);
    EXPECT_EQ(trace[0].kind, TraceOp::Kind::Cform);
    EXPECT_EQ(trace[1].computeOps, 5u);
}

TEST(TraceBinary, TruncatedHeaderRejected)
{
    // Past the magic, a header cut short is an error...
    for (const std::string &head :
         {std::string("CALTRC"), std::string("CALTRC\x01", 7)}) {
        std::stringstream ss(head);
        EXPECT_THROW(readAll(ss), std::runtime_error)
            << "header bytes: " << head.size();
    }
    // ...while a shorter prefix of it is text: nothing at all is an
    // empty trace, and "CAL" is a malformed CFORM line.
    std::stringstream empty(""), prefix("CAL");
    EXPECT_TRUE(readAll(empty).empty());
    EXPECT_THROW(readAll(prefix), std::runtime_error);
}

TEST(TraceBinary, VersionMismatchRejected)
{
    std::string blob = toBinary({TraceOp::compute(1)});
    blob[6] = 2; // bump the version byte
    std::stringstream ss(blob);
    try {
        readAll(ss);
        FAIL() << "expected exception";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("unsupported version 2"),
                  std::string::npos)
            << e.what();
    }
    // The reserved byte is part of the versioned surface too.
    std::string blob2 = toBinary({TraceOp::compute(1)});
    blob2[7] = 1;
    std::stringstream ss2(blob2);
    EXPECT_THROW(readAll(ss2), std::runtime_error);
}

TEST(TraceBinary, TruncatedBodyRejected)
{
    Rng rng(3);
    const std::string blob = toBinary(randomTrace(rng, 40));
    // Chop anywhere inside the op stream: always an error, never a
    // silently shorter trace.
    for (const std::size_t keep :
         {blob.size() - 1, blob.size() / 2, std::size_t{11}}) {
        std::stringstream ss(blob.substr(0, keep));
        EXPECT_THROW(readAll(ss), std::runtime_error)
            << "kept " << keep << " of " << blob.size();
    }
}

TEST(TraceBinary, NonMinimalVarintRejected)
{
    // The canonical-form contract: count 1 encoded non-minimally as
    // 0x81 0x00 decodes to the same value but would break decode ->
    // encode byte-identity, so the reader rejects it.
    const std::string blob = toBinary({TraceOp::compute(1)});
    std::string hacked = blob.substr(0, 8);
    hacked += '\x81';
    hacked += '\x00';
    hacked += blob.substr(9);
    std::stringstream ss(hacked);
    try {
        readAll(ss);
        FAIL() << "expected exception";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("non-minimal"),
                  std::string::npos)
            << e.what();
    }
}

TEST(TraceBinary, TrailingJunkRejected)
{
    const std::string blob = toBinary({TraceOp::compute(1)});
    std::stringstream ss(blob + "x");
    EXPECT_THROW(readAll(ss), std::runtime_error);
}

// Block-buffered decode ----------------------------------------------
//
// The reader takes the 8 magic/version/reserved bytes with single
// stream reads and everything after them in kBinTraceBlockBytes blocks,
// so the first refill boundary sits at this file offset.
constexpr std::size_t kFirstBlockEnd = 8 + kBinTraceBlockBytes;

/** Every op kind with wide varints: full-range addresses (so deltas
 *  go negative and take ten bytes), ~0 store values, 64-bit CFORM
 *  words and 32-bit compute counts. */
Trace
wideTrace(Rng &rng, std::size_t n)
{
    Trace trace;
    for (std::size_t i = 0; i < n; ++i) {
        const Addr addr = rng.next();
        const unsigned size = 1 + static_cast<unsigned>(rng.nextBelow(8));
        switch (i % 4) {
        case 0:
            trace.push_back(TraceOp::load(addr, size, rng.chance(0.5)));
            break;
        case 1:
            trace.push_back(TraceOp::store(
                addr, size, rng.chance(0.5) ? ~0ull : rng.next()));
            break;
        case 2: {
            CformOp op;
            op.lineAddr = lineBase(addr);
            op.setBits = rng.next();
            op.mask = rng.next() | (1ull << 63);
            op.nonTemporal = rng.chance(0.5);
            trace.push_back(TraceOp::cformOp(op));
            break;
          }
        default:
            trace.push_back(TraceOp::compute(
                static_cast<std::uint32_t>(rng.next())));
        }
    }
    return trace;
}

TEST(TraceBinary, MultiBlockRoundTripThroughNextAndFill)
{
    Rng rng(0xb10c);
    const Trace trace = wideTrace(rng, 6000);
    const std::string blob = toBinary(trace);
    ASSERT_GT(blob.size(), 8 + 3 * kBinTraceBlockBytes);

    std::stringstream by_op(blob);
    const auto reader = openTraceReader(by_op);
    Trace via_next;
    TraceOp op;
    while (reader->next(op))
        via_next.push_back(op);
    expectTracesEqual(via_next, trace);

    // An odd batch size, so batches straddle every block boundary.
    std::stringstream by_batch(blob);
    const auto batcher = openTraceReader(by_batch);
    Trace via_fill;
    TraceOp batch[37];
    while (const std::size_t got = batcher->fill(batch, std::size(batch)))
        via_fill.insert(via_fill.end(), batch, batch + got);
    expectTracesEqual(via_fill, trace);
}

TEST(TraceBinary, TruncationAroundTheFirstBlockBoundaryRejected)
{
    Rng rng(0xc07);
    const std::string blob = toBinary(wideTrace(rng, 2000));
    ASSERT_GT(blob.size(), kFirstBlockEnd + 32);
    for (std::size_t keep = kFirstBlockEnd - 32;
         keep <= kFirstBlockEnd + 32; ++keep) {
        std::stringstream ss(blob.substr(0, keep));
        try {
            readAll(ss);
            ADD_FAILURE() << "kept " << keep << " bytes: no error";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find("truncated"),
                      std::string::npos)
                << "kept " << keep << ": " << e.what();
        }
    }
}

TEST(TraceBinary, TrailingJunkRejectedInAndAfterTheLastBlock)
{
    auto expectJunk = [](const std::string &blob) {
        std::stringstream ss(blob + "x");
        try {
            readAll(ss);
            FAIL() << "expected exception";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find("trailing junk"),
                      std::string::npos)
                << e.what();
        }
    };

    // Junk buffered in the same block as the last op.
    Rng rng(0x3e7);
    const std::string multi = toBinary(wideTrace(rng, 3000));
    ASSERT_NE((multi.size() - 8) % kBinTraceBlockBytes, 0u);
    expectJunk(multi);

    // Junk that starts exactly at a block boundary: the last op ends
    // the first block, so only a fresh refill can see the junk. A
    // two-byte op count plus B/2 - 1 two-byte compute ops fill it.
    const Trace fill(kBinTraceBlockBytes / 2 - 1, TraceOp::compute(1));
    const std::string exact = toBinary(fill);
    ASSERT_EQ(exact.size(), kFirstBlockEnd);
    std::stringstream clean(exact);
    EXPECT_EQ(readAll(clean).size(), fill.size());
    expectJunk(exact);
}

TEST(TraceBinary, GarbageBodyNeverCrashes)
{
    // Valid header, fuzzed body: parse or throw, never crash.
    Rng rng(0xb1f);
    const std::string header = toBinary({}).substr(0, 8);
    for (int round = 0; round < 200; ++round) {
        std::string blob = header;
        const std::size_t len = 1 + rng.nextBelow(60);
        for (std::size_t i = 0; i < len; ++i)
            blob += static_cast<char>(rng.next() & 0xff);
        std::stringstream ss(blob);
        try {
            readAll(ss);
        } catch (const std::runtime_error &) {
            // expected for most inputs
        }
    }
}

TEST(TraceBinary, WriterEnforcesTheLengthPrefix)
{
    std::ostringstream os;
    const auto writer =
        makeTraceWriter(os, TraceFormat::Binary, 2);
    writer->put(TraceOp::compute(1));
    EXPECT_THROW(writer->finish(), std::runtime_error); // one short
    writer->put(TraceOp::compute(2));
    EXPECT_NO_THROW(writer->finish());
    EXPECT_THROW(writer->put(TraceOp::compute(3)),
                 std::runtime_error); // one over
    EXPECT_EQ(os.str(),
              toBinary({TraceOp::compute(1), TraceOp::compute(2)}));
}

/** FNV-1a over @p bytes. */
std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Five two-byte compute ops, then twelve-byte stores of ~0 (a
 *  ten-byte value varint) to address 0. With the three-byte op count
 *  this phase splits a store value across each of the first three
 *  16 KiB file offsets. */
Trace
straddleTrace()
{
    Trace trace(5, TraceOp::compute(1));
    trace.resize(20000, TraceOp::store(0, 8, ~0ull));
    return trace;
}

TEST(TraceBinary, WriterBytesArePinnedAcrossBlocks)
{
    // Sizes and hashes pinned from the per-byte stream writer that
    // preceded the block encoder.
    Rng rng(0xb10c);
    const std::string wide = toBinary(wideTrace(rng, 6000));
    ASSERT_GT(wide.size(), 8 + 3 * kBinTraceBlockBytes);
    EXPECT_EQ(wide.size(), 100067u);
    EXPECT_EQ(fnv1a(wide), 0xb5fe48f96b288900ull);

    const std::string straddle = toBinary(straddleTrace());
    EXPECT_EQ(straddle.size(), 239961u);
    EXPECT_EQ(fnv1a(straddle), 0x1ed44985bf7775cbull);
    // Only a store value's non-final bytes are 0xff in this trace, so
    // each 16 KiB offset falls inside a value.
    for (std::size_t edge = kBinTraceBlockBytes;
         edge <= 3 * kBinTraceBlockBytes; edge += kBinTraceBlockBytes)
        EXPECT_EQ(static_cast<unsigned char>(straddle[edge - 1]), 0xff)
            << edge;
}

TEST(TraceBinary, DecodeEncodeIsByteIdentityAcrossBlocks)
{
    Rng rng(0xb10c);
    for (const std::string &blob :
         {toBinary(wideTrace(rng, 6000)), toBinary(straddleTrace())}) {
        // The streaming pair, as `califorms trace conv` and the
        // recorders use them.
        std::stringstream in(blob);
        const auto reader = openTraceReader(in);
        Trace ops;
        TraceOp op;
        while (reader->next(op))
            ops.push_back(op);
        std::ostringstream out;
        const auto writer =
            makeTraceWriter(out, TraceFormat::Binary, ops.size());
        for (const TraceOp &o : ops)
            writer->put(o);
        writer->finish();
        EXPECT_EQ(out.str(), blob);
    }
}

/** A stream buffer that takes no bytes, so every write fails. */
struct RefusingBuf : std::streambuf
{
    int_type overflow(int_type) override { return traits_type::eof(); }
};

TEST(TraceBinary, WriterReportsAFailedStreamAtFinish)
{
    // One op fits the first block; 20000 drain several blocks before
    // finish(), whose check must still see the failed writes.
    for (const std::size_t count : {std::size_t{1}, std::size_t{20000}}) {
        RefusingBuf buf;
        std::ostream os(&buf);
        const auto writer =
            makeTraceWriter(os, TraceFormat::Binary, count);
        for (std::size_t i = 0; i < count; ++i)
            writer->put(TraceOp::store(0, 8, ~0ull));
        try {
            writer->finish();
            ADD_FAILURE() << count << " ops: no error";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find("write error"),
                      std::string::npos)
                << e.what();
        }
    }

    // A writer dropped before finish() drains into a stream that
    // throws on failure; its destructor must swallow that.
    RefusingBuf buf;
    std::ostream throwing(&buf);
    throwing.exceptions(std::ios::badbit);
    {
        const auto writer =
            makeTraceWriter(throwing, TraceFormat::Binary, 2);
        writer->put(TraceOp::compute(1));
    }
    EXPECT_TRUE(throwing.bad());
}

TEST(TraceBinary, StreamingReplayMatchesVectorReplay)
{
    Rng rng(21);
    const Trace trace = randomTrace(rng, 400);

    Machine vector_machine;
    const std::uint64_t vector_sum = runTrace(vector_machine, trace);

    std::stringstream ss(toBinary(trace));
    const auto reader = openTraceReader(ss);
    Machine stream_machine;
    std::uint64_t replayed = 0;
    const std::uint64_t stream_sum =
        runTrace(stream_machine, *reader, &replayed);

    EXPECT_EQ(replayed, trace.size());
    EXPECT_EQ(stream_sum, vector_sum);
    EXPECT_EQ(stream_machine.cycles(), vector_machine.cycles());
    EXPECT_EQ(stream_machine.memStats().l1.misses,
              vector_machine.memStats().l1.misses);
    EXPECT_EQ(stream_machine.memStats().dramAccesses,
              vector_machine.memStats().dramAccesses);
}

TEST(TraceReplay, Deterministic)
{
    Rng rng(9);
    const Trace trace = randomTrace(rng, 500);
    Machine a, b;
    EXPECT_EQ(runTrace(a, trace), runTrace(b, trace));
    EXPECT_EQ(a.cycles(), b.cycles());
    EXPECT_EQ(a.memStats().l1.misses, b.memStats().l1.misses);
}

TEST(TraceReplay, MatchesDirectCalls)
{
    Machine direct;
    direct.store(0x2000, 8, 77);
    direct.cform(makeSetOp(0x2040, 0xf0));
    direct.load(0x2000, 8);
    direct.compute(3);

    Trace trace = {
        TraceOp::store(0x2000, 8, 77),
        TraceOp::cformOp(makeSetOp(0x2040, 0xf0)),
        TraceOp::load(0x2000, 8),
        TraceOp::compute(3),
    };
    Machine replayed;
    const std::uint64_t checksum = runTrace(replayed, trace);
    EXPECT_EQ(checksum, 77u);
    EXPECT_EQ(replayed.cycles(), direct.cycles());
    EXPECT_EQ(replayed.securityMask(0x2040), 0xf0ull);
}

// The shared replay loop ------------------------------------------------

/** Counts the ops pulled through it, so a test can see that a capped
 *  replay never reads past its cap. */
class CountingReader final : public TraceReader
{
  public:
    explicit CountingReader(TraceReader &inner) : inner_(inner) {}

    bool
    next(TraceOp &op) override
    {
        if (!inner_.next(op))
            return false;
        ++pulled;
        return true;
    }

    std::uint64_t pulled = 0;

  private:
    TraceReader &inner_;
};

TEST(ReplayStreams, MaxOpsCapsTheReplay)
{
    SynthParams params;
    Machine machine({}, ExceptionUnit::Policy::Record);
    const auto gen = makeSynthGenerator("stream", params, 100000);
    CountingReader counted(*gen);
    TraceReader *const stream = &counted;
    const ReplayStats stats = replayStreams(machine, {&stream, 1}, 1000);
    EXPECT_EQ(stats.ops, 1000u);
    EXPECT_EQ(counted.pulled, 1000u);

    // The cap must be an exact prefix of the uncapped replay.
    Machine full({}, ExceptionUnit::Policy::Record);
    const auto prefix_gen = makeSynthGenerator("stream", params, 1000);
    std::uint64_t prefix_ops = 0;
    EXPECT_EQ(stats.checksum, runTrace(full, *prefix_gen, &prefix_ops));
    EXPECT_EQ(prefix_ops, 1000u);
    EXPECT_EQ(machine.cycles(), full.cycles());
}

TEST(ReplayStreams, CapCountsOpsAcrossStreams)
{
    Trace t;
    for (int i = 0; i < 10; ++i)
        t.push_back(TraceOp::load(0x10000 + 64 * i, 8));
    std::stringstream s0, s1;
    writeTrace(s0, t);
    writeTrace(s1, t);
    const auto r0 = openTraceReader(s0);
    const auto r1 = openTraceReader(s1);
    TraceReader *const streams[] = {r0.get(), r1.get()};

    MachineParams p;
    p.core.count = 2;
    Machine machine(p);
    const ReplayStats stats = replayStreams(machine, streams, 5);
    EXPECT_EQ(stats.ops, 5u);
    EXPECT_EQ(machine.coreInstructions(0), 3u);
    EXPECT_EQ(machine.coreInstructions(1), 2u);
}

TEST(ReplayStreams, KindCountsMatchTheStream)
{
    // Generators covering all four op kinds: stackchurn for CFORMs,
    // attackmix for faults, zipf for dependent loads.
    for (const std::string name : {"zipf", "stackchurn", "attackmix"}) {
        SCOPED_TRACE(name);
        const std::uint64_t ops = 20000;
        const auto materialized =
            makeSynthGenerator(name, SynthParams{}, ops);
        Trace trace;
        std::uint64_t expected[4] = {0, 0, 0, 0};
        TraceOp op;
        while (materialized->next(op)) {
            trace.push_back(op);
            ++expected[static_cast<std::size_t>(op.kind)];
        }

        Machine streamed({}, ExceptionUnit::Policy::Record);
        const auto gen = makeSynthGenerator(name, SynthParams{}, ops);
        TraceReader *const stream = gen.get();
        const ReplayStats stats = replayStreams(streamed, {&stream, 1});
        EXPECT_EQ(stats.ops, ops);
        EXPECT_EQ(stats.kindOps[0] + stats.kindOps[1] +
                      stats.kindOps[2] + stats.kindOps[3],
                  stats.ops);
        for (std::size_t k = 0; k < 4; ++k)
            EXPECT_EQ(stats.kindOps[k], expected[k]) << "kind " << k;

        Machine vectored({}, ExceptionUnit::Policy::Record);
        EXPECT_EQ(stats.checksum, runTrace(vectored, trace));
        EXPECT_EQ(streamed.cycles(), vectored.cycles());
    }
}

TEST(ReplayStreams, MoreStreamsThanCoresThrows)
{
    std::stringstream s0, s1;
    const auto r0 = openTraceReader(s0);
    const auto r1 = openTraceReader(s1);
    TraceReader *const streams[] = {r0.get(), r1.get()};
    Machine machine;
    EXPECT_THROW(replayStreams(machine, streams), std::invalid_argument);
}

TEST(StatsDump, ContainsAllSections)
{
    Machine machine;
    machine.store(0x3000, 8, 1);
    machine.load(0x3000, 8);
    const std::string dump = dumpStats({snapshot(machine)}, machine.params());
    for (const char *key :
         {"core.cycles", "core.ipc", "l1d.hits", "l2.missRate",
          "l3.evictions", "dram.accesses", "califorms.spills",
          "califorms.cformOps", "exceptions.delivered"}) {
        EXPECT_NE(dump.find(key), std::string::npos) << key;
    }
}

TEST(StatsDump, IpcZeroOnFreshMachine)
{
    Machine machine;
    const std::string dump = dumpStats({snapshot(machine)}, machine.params());
    EXPECT_NE(dump.find("core.ipc"), std::string::npos);
}

} // namespace
} // namespace califorms
