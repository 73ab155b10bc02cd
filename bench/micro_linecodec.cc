/**
 * @file micro_linecodec.cc
 * Google-benchmark microbenchmarks of the line codecs: sentinel
 * search, spill/fill conversion (Algorithms 1-2), the Appendix A
 * variants, and CFORM application. These are the software-model
 * analogues of the datapath blocks Table 2 synthesizes.
 */

#include <benchmark/benchmark.h>

#include "core/cform.hh"
#include "core/l1_variants.hh"
#include "core/sentinel.hh"
#include "util/rng.hh"

namespace califorms
{
namespace
{

BitVectorLine
randomLine(Rng &rng, unsigned security_bytes)
{
    BitVectorLine line;
    for (auto &b : line.data.bytes)
        b = static_cast<std::uint8_t>(rng.next() & 0xff);
    unsigned placed = 0;
    while (placed < security_bytes) {
        const unsigned i =
            static_cast<unsigned>(rng.nextBelow(lineBytes));
        if (!line.isSecurityByte(i)) {
            line.mask |= 1ull << i;
            ++placed;
        }
    }
    line.canonicalize();
    return line;
}

void
BM_FindSentinel(benchmark::State &state)
{
    Rng rng(1);
    const BitVectorLine line =
        randomLine(rng, static_cast<unsigned>(state.range(0)));
    for (auto _ : state)
        benchmark::DoNotOptimize(findSentinel(line));
}
BENCHMARK(BM_FindSentinel)->Arg(1)->Arg(4)->Arg(16)->Arg(63);

void
BM_Spill(benchmark::State &state)
{
    Rng rng(2);
    const BitVectorLine line =
        randomLine(rng, static_cast<unsigned>(state.range(0)));
    for (auto _ : state)
        benchmark::DoNotOptimize(spillLine(line));
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * lineBytes);
}
BENCHMARK(BM_Spill)->Arg(0)->Arg(1)->Arg(4)->Arg(16)->Arg(63);

/** A spilled line without its memo, as swap-in rebuilds one: decoding
 *  it runs the header decode and, for 4+ security bytes, the sentinel
 *  scan. */
SentinelLine
bareSpill(const BitVectorLine &line)
{
    SentinelLine out = spillLine(line);
    out.maskCached = false;
    return out;
}

void
BM_Fill(benchmark::State &state)
{
    Rng rng(3);
    const SentinelLine line = bareSpill(
        randomLine(rng, static_cast<unsigned>(state.range(0))));
    for (auto _ : state)
        benchmark::DoNotOptimize(fillLine(line));
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * lineBytes);
}
BENCHMARK(BM_Fill)->Arg(0)->Arg(1)->Arg(4)->Arg(16)->Arg(63);

/** The hierarchy's fill: the mask comes with the line (a queue entry's
 *  memo, or the store's mask plane), so only the relocation runs. */
void
BM_FillFromMemo(benchmark::State &state)
{
    Rng rng(3);
    const SentinelLine line = spillLine(
        randomLine(rng, static_cast<unsigned>(state.range(0))));
    for (auto _ : state)
        benchmark::DoNotOptimize(fillLine(line));
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * lineBytes);
}
BENCHMARK(BM_FillFromMemo)->Arg(0)->Arg(1)->Arg(4)->Arg(16)->Arg(63);

void
BM_RoundTrip(benchmark::State &state)
{
    Rng rng(4);
    const BitVectorLine line =
        randomLine(rng, static_cast<unsigned>(state.range(0)));
    for (auto _ : state)
        benchmark::DoNotOptimize(fillLine(spillLine(line)));
}
BENCHMARK(BM_RoundTrip)->Arg(4)->Arg(32);

void
BM_DecodeMaskOnly(benchmark::State &state)
{
    Rng rng(5);
    const SentinelLine line = bareSpill(randomLine(rng, 8));
    for (auto _ : state)
        benchmark::DoNotOptimize(decodeMask(line));
}
BENCHMARK(BM_DecodeMaskOnly);

void
BM_EncodeCal4B(benchmark::State &state)
{
    Rng rng(6);
    const BitVectorLine line = randomLine(rng, 8);
    for (auto _ : state)
        benchmark::DoNotOptimize(encodeCal4B(line));
}
BENCHMARK(BM_EncodeCal4B);

void
BM_EncodeCal1B(benchmark::State &state)
{
    Rng rng(7);
    const BitVectorLine line = randomLine(rng, 8);
    for (auto _ : state)
        benchmark::DoNotOptimize(encodeCal1B(line));
}
BENCHMARK(BM_EncodeCal1B);

void
BM_ApplyCform(benchmark::State &state)
{
    Rng rng(8);
    const CformOp set = makeSetOp(0, 0x00ff00ff00ff00ffull);
    const CformOp unset = makeUnsetOp(0, 0x00ff00ff00ff00ffull);
    BitVectorLine line;
    for (auto _ : state) {
        benchmark::DoNotOptimize(applyCform(line, set));
        benchmark::DoNotOptimize(applyCform(line, unset));
    }
}
BENCHMARK(BM_ApplyCform);

} // namespace
} // namespace califorms
