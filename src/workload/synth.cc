#include "workload/synth.hh"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/rng.hh"
#include "workload/context.hh"

namespace califorms
{

namespace
{

// Disjoint base addresses so no two workloads alias (the attack-mix
// interleaves two regions of its own).
constexpr Addr kZipfBase = 0x4000'0000ull;
constexpr Addr kStreamBase = 0x5000'0000ull;
constexpr Addr kRingBase = 0x6000'0000ull;
constexpr Addr kStackBase = 0x7f00'0000ull;
constexpr Addr kAttackBase = 0x8000'0000ull;
constexpr Addr kThrashBase = 0x9000'0000ull;
constexpr Addr kScanHotBase = 0xa000'0000ull;
constexpr Addr kMixedHotBase = 0xb000'0000ull;
constexpr Addr kScanStreamBase = 0xc000'0000ull;
constexpr Addr kMixedStreamBase = 0xe000'0000ull;

std::size_t
roundedStride(const SynthParams &p)
{
    return (p.strideBytes + 7) & ~std::size_t{7};
}

/**
 * 2^x using only IEEE-exact operations (*, /, sqrt are correctly
 * rounded by the standard; pow/exp2 are not and differ across libm
 * implementations, which would break the bit-identical-across-
 * platforms contract the committed bench baselines rely on).
 */
double
pow2det(double x)
{
    const bool neg = x < 0;
    if (neg)
        x = -x;
    double result = 1.0;
    while (x >= 1.0) {
        result *= 2.0;
        x -= 1.0;
    }
    double term = 2.0;
    for (int bit = 0; bit < 40 && x > 0; ++bit) {
        term = std::sqrt(term);
        x *= 2.0;
        if (x >= 1.0) {
            result *= term;
            x -= 1.0;
        }
    }
    return neg ? 1.0 / result : result;
}

/**
 * Common budget bookkeeping: next() and fill() count down the op
 * budget. A CRTP base, so both call Derived::produce() directly: the
 * call inlines and the op is built straight into the caller's slot,
 * one virtual call per op (next()) or per block (fill()).
 */
template <class Derived>
class BudgetedGenerator : public TraceReader
{
  public:
    explicit BudgetedGenerator(std::uint64_t ops) : remaining_(ops) {}

    bool
    next(TraceOp &op) final
    {
        if (remaining_ == 0)
            return false;
        --remaining_;
        op = self().produce();
        return true;
    }

    /** Bulk path for recording a stream to a trace file. */
    std::size_t
    fill(TraceOp *out, std::size_t max) final
    {
        const std::size_t n = static_cast<std::size_t>(
            std::min<std::uint64_t>(remaining_, max));
        for (std::size_t i = 0; i < n; ++i)
            out[i] = self().produce();
        remaining_ -= n;
        return n;
    }

  private:
    Derived &self() { return static_cast<Derived &>(*this); }

    std::uint64_t remaining_;
};

/**
 * Zipfian pointer-chase. Slot ranks are drawn from a bucketed power
 * law: doubling-size buckets [2^i-1, 2^(i+1)-1) weighted r^i with
 * r = 2^(1-alpha) — the standard zipf bucket mass — then uniform
 * within the bucket; rank -> slot through a fixed odd-multiplier hash
 * so the hot set scatters across the footprint instead of sitting in
 * one contiguous prefix.
 */
class ZipfGenerator final : public BudgetedGenerator<ZipfGenerator>
{
    friend class BudgetedGenerator<ZipfGenerator>;

  public:
    ZipfGenerator(const SynthParams &p, std::uint64_t ops)
        : BudgetedGenerator(ops), rng_(p.seed),
          stride_(roundedStride(p)),
          slots_(std::max<std::size_t>(1,
                                       p.footprintKb * 1024 / stride_))
    {
        const double r = pow2det(1.0 - p.zipfAlpha);
        double weight = 1.0;
        double total = 0.0;
        for (std::size_t lo = 1; lo - 1 < slots_; lo *= 2) {
            total += weight;
            cumulative_.push_back(total);
            bucketLo_.push_back(lo - 1);
            weight *= r;
        }
    }

  private:
    TraceOp
    produce()
    {
        const std::uint64_t roll = rng_.nextBelow(16);
        if (roll >= 14)
            return TraceOp::compute(
                static_cast<std::uint32_t>(1 + rng_.nextBelow(8)));
        const Addr addr = sample();
        if (roll >= 12)
            return TraceOp::store(addr, 8, rng_.next());
        // Most loads are dependent: the pointer-chase serial chain.
        return TraceOp::load(addr, 8, roll < 9);
    }

    Addr
    sample()
    {
        const double u = rng_.nextDouble() * cumulative_.back();
        std::size_t bucket = 0;
        while (bucket + 1 < cumulative_.size() &&
               u >= cumulative_[bucket])
            ++bucket;
        const std::size_t lo = bucketLo_[bucket];
        const std::size_t hi =
            std::min(slots_, 2 * (lo + 1) - 1);
        const std::size_t rank = lo + rng_.nextBelow(hi - lo);
        const std::size_t slot =
            static_cast<std::size_t>(rank * 0x9e3779b97f4a7c15ull) %
            slots_;
        return kZipfBase + slot * stride_;
    }

    Rng rng_;
    std::size_t stride_;
    std::size_t slots_;
    std::vector<double> cumulative_;
    std::vector<std::size_t> bucketLo_;
};

/** Sequential streaming scan: loads marching through the footprint,
 *  a store every 8th element, a compute block every 16th. */
class StreamGenerator final : public BudgetedGenerator<StreamGenerator>
{
    friend class BudgetedGenerator<StreamGenerator>;

  public:
    StreamGenerator(const SynthParams &p, std::uint64_t ops)
        : BudgetedGenerator(ops), stride_(roundedStride(p)),
          slots_(std::max<std::size_t>(1,
                                       p.footprintKb * 1024 / stride_))
    {}

  private:
    TraceOp
    produce()
    {
        const std::uint64_t i = pos_++;
        const Addr addr = kStreamBase + (i % slots_) * stride_;
        if (i % 16 == 15)
            return TraceOp::compute(4);
        if (i % 8 == 7)
            return TraceOp::store(addr, 8, i);
        return TraceOp::load(addr, 8);
    }

    std::size_t stride_;
    std::size_t slots_;
    std::uint64_t pos_ = 0;
};

/**
 * Stack-churn call tree: a sawtooth of call frames. Entering a frame
 * issues the frame's CFORM set followed by a local store; returning
 * loads a local and unsets the security bytes — the stack allocator's
 * protection protocol as a raw op stream. The pop depth varies with
 * the fanout, so deep frames churn more than the root, like a real
 * call tree's leaves.
 */
class StackChurnGenerator final : public BudgetedGenerator<StackChurnGenerator>
{
    friend class BudgetedGenerator<StackChurnGenerator>;

  public:
    StackChurnGenerator(const SynthParams &p, std::uint64_t ops)
        : BudgetedGenerator(ops), rng_(p.seed),
          maxDepth_(std::max<std::size_t>(1, p.stackDepth)),
          fanout_(std::max<std::size_t>(1, p.stackFanout))
    {}

  private:
    // Each frame's line holds 3 security bytes at offsets 56-58;
    // locals live in the first 24 bytes, so frames never fault.
    static constexpr SecurityMask kFrameMask = 0x0700'0000'0000'0000ull;

    Addr
    frameLine(std::size_t depth) const
    {
        return kStackBase - 64 * (depth + 1);
    }

    TraceOp
    produce()
    {
        if (descending_) {
            if (phase_ == 0) {
                phase_ = 1;
                return TraceOp::cformOp(
                    makeSetOp(frameLine(depth_), kFrameMask));
            }
            phase_ = 0;
            const TraceOp op = TraceOp::store(
                frameLine(depth_) + 8 * (depth_ % 3), 8, depth_);
            ++depth_;
            if (depth_ == maxDepth_) {
                descending_ = false;
                popsLeft_ = 1 + rng_.nextBelow(
                                    std::min(depth_, fanout_));
            }
            return op;
        }
        if (phase_ == 0) {
            phase_ = 1;
            return TraceOp::load(frameLine(depth_ - 1) + 16, 8);
        }
        phase_ = 0;
        --depth_;
        const TraceOp op = TraceOp::cformOp(
            makeUnsetOp(frameLine(depth_), kFrameMask));
        if (--popsLeft_ == 0 || depth_ == 0)
            descending_ = true;
        return op;
    }

    Rng rng_;
    std::size_t maxDepth_;
    std::size_t fanout_;
    std::size_t depth_ = 0;
    std::size_t popsLeft_ = 0;
    unsigned phase_ = 0;
    bool descending_ = true;
};

/**
 * Producer-consumer ring: the producer writes bursts of slots and
 * publishes a head word; the consumer polls the head and reads the
 * slots half a ring behind. The shared control line ping-pongs between
 * the two roles, the data slots are reused at a fixed lag.
 */
class RingGenerator final : public BudgetedGenerator<RingGenerator>
{
    friend class BudgetedGenerator<RingGenerator>;

  public:
    RingGenerator(const SynthParams &p, std::uint64_t ops)
        : BudgetedGenerator(ops), stride_(roundedStride(p)),
          slots_(std::max<std::size_t>(2, p.ringSlots)),
          burst_(std::max<std::size_t>(1, p.ringBurst))
    {}

  private:
    Addr
    slotAddr(std::uint64_t index) const
    {
        return kRingBase + 64 + (index % slots_) * stride_;
    }

    TraceOp
    produce()
    {
        // Round script: publish head, write burst, poll head, read
        // burst (lagged by half the ring).
        const std::size_t in_round = phase_;
        phase_ = (phase_ + 1) % (2 * burst_ + 2);
        if (in_round == 0)
            return TraceOp::store(kRingBase, 8, head_);
        if (in_round <= burst_)
            return TraceOp::store(slotAddr(head_ + in_round - 1), 8,
                                  head_ + in_round);
        if (in_round == burst_ + 1)
            return TraceOp::load(kRingBase, 8, true);
        const std::uint64_t lag = head_ + slots_ / 2;
        const TraceOp op = TraceOp::load(
            slotAddr(lag + in_round - burst_ - 2), 8);
        if (in_round == 2 * burst_ + 1)
            head_ += burst_;
        return op;
    }

    std::size_t stride_;
    std::size_t slots_;
    std::size_t burst_;
    std::uint64_t head_ = 0;
    std::size_t phase_ = 0;
};

/**
 * Attack mix: uniform benign traffic over its own region, with one
 * attack probe every attackPeriod ops against a pool of CFORM-
 * protected objects — the Section 7.3 linear byte scan, so offsets
 * walk upward until a security byte trips the exception, then the
 * "respawned" attacker moves to the next object. The first ops
 * establish the protected spans (CFORM set, one per object).
 */
class AttackMixGenerator final : public BudgetedGenerator<AttackMixGenerator>
{
    friend class BudgetedGenerator<AttackMixGenerator>;

  public:
    AttackMixGenerator(const SynthParams &p, std::uint64_t ops)
        : BudgetedGenerator(ops), rng_(p.seed),
          stride_(roundedStride(p)),
          benignSlots_(std::max<std::size_t>(
              1, p.footprintKb * 1024 / 4 / stride_)),
          period_(std::max<std::size_t>(8, p.attackPeriod))
    {}

  private:
    static constexpr std::size_t kObjects = 8;
    // Security bytes at offsets 3-5 of each object's line: the span a
    // full/3 policy would realistically harvest.
    static constexpr SecurityMask kObjectMask = 0x38;

    Addr
    objectAddr(std::size_t index) const
    {
        return kAttackBase + index * 4096;
    }

    TraceOp
    produce()
    {
        if (established_ < kObjects) {
            return TraceOp::cformOp(
                makeSetOp(objectAddr(established_++), kObjectMask));
        }
        if (++sinceProbe_ >= period_) {
            sinceProbe_ = 0;
            const Addr addr =
                objectAddr(victim_) + scanOffset_;
            const bool hit = scanOffset_ >= 3 && scanOffset_ <= 5;
            ++scanOffset_;
            if (hit) {
                // Crash + respawn: next object, fresh scan.
                victim_ = (victim_ + 1) % kObjects;
                scanOffset_ = 0;
            } else if (scanOffset_ >= 64) {
                scanOffset_ = 0;
            }
            return TraceOp::load(addr, 1);
        }
        const Addr addr = kAttackBase + 0x0100'0000ull +
                          rng_.nextBelow(benignSlots_) * stride_;
        if (rng_.nextBelow(4) == 0)
            return TraceOp::store(addr, 8, rng_.next());
        return TraceOp::load(addr, 8, rng_.nextBelow(2) == 0);
    }

    Rng rng_;
    std::size_t stride_;
    std::size_t benignSlots_;
    std::size_t period_;
    std::size_t established_ = 0;
    std::size_t sinceProbe_ = 0;
    std::size_t victim_ = 0;
    std::size_t scanOffset_ = 0;
};

/**
 * Cyclic thrash: a pure loop over a working set just larger than the
 * LLC — the textbook LRU worst case. Under LRU every access evicts the
 * line that will be needed soonest, so the whole loop misses; any
 * policy that retains a resistant reserve (LIP's LRU-position inserts,
 * BRRIP's distant inserts) converts part of the loop into hits.
 */
class ThrashGenerator final : public BudgetedGenerator<ThrashGenerator>
{
    friend class BudgetedGenerator<ThrashGenerator>;

  public:
    ThrashGenerator(const SynthParams &p, std::uint64_t ops)
        : BudgetedGenerator(ops), stride_(roundedStride(p)),
          slots_(std::max<std::size_t>(1, p.thrashKb * 1024 / stride_))
    {}

  private:
    TraceOp
    produce()
    {
        const std::uint64_t i = pos_++;
        const Addr addr = kThrashBase + (i % slots_) * stride_;
        if (i % 32 == 31)
            return TraceOp::compute(2);
        if (i % 16 == 15)
            return TraceOp::store(addr, 8, i);
        return TraceOp::load(addr, 8);
    }

    std::size_t stride_;
    std::size_t slots_;
    std::uint64_t pos_ = 0;
};

/**
 * Scan pollution: a reused hot loop (hotKb, sized to live in the L2)
 * interrupted every scanPeriod ops by a one-shot streaming episode of
 * scanKb fresh lines that are never revisited. Under LRU each episode
 * flushes the hot set out of the cache; scan-resistant policies keep
 * the dead streaming lines near eviction and preserve the hot set —
 * the workload the DRRIP-beats-LRU acceptance test pins.
 */
class ScanGenerator final : public BudgetedGenerator<ScanGenerator>
{
    friend class BudgetedGenerator<ScanGenerator>;

  public:
    ScanGenerator(const SynthParams &p, std::uint64_t ops)
        : BudgetedGenerator(ops), stride_(roundedStride(p)),
          hotSlots_(std::max<std::size_t>(1, p.hotKb * 1024 / stride_)),
          scanSlots_(
              std::max<std::size_t>(1, p.scanKb * 1024 / stride_)),
          hotOps_(std::max<std::size_t>(1, p.scanPeriod))
    {}

  private:
    TraceOp
    produce()
    {
        if (!scanning_) {
            const Addr addr =
                kScanHotBase + (hotPos_ % hotSlots_) * stride_;
            ++hotPos_;
            if (++phasePos_ >= hotOps_) {
                phasePos_ = 0;
                scanning_ = true;
            }
            if (hotPos_ % 8 == 0)
                return TraceOp::store(addr, 8, hotPos_);
            return TraceOp::load(addr, 8);
        }
        // The stream never wraps: every episode walks fresh lines.
        const Addr addr = kScanStreamBase + scanPos_ * stride_;
        ++scanPos_;
        if (++phasePos_ >= scanSlots_) {
            phasePos_ = 0;
            scanning_ = false;
        }
        return TraceOp::load(addr, 8);
    }

    std::size_t stride_;
    std::size_t hotSlots_;
    std::size_t scanSlots_;
    std::size_t hotOps_;
    std::uint64_t hotPos_ = 0;
    std::uint64_t scanPos_ = 0;
    std::size_t phasePos_ = 0;
    bool scanning_ = false;
};

/**
 * Mixed hot-loop + scan with CFORM-protected hot objects: the scan
 * stressor with the Califorms question attached. A quarter of the hot
 * working set is CFORM-protected up front (security bytes at offsets
 * 56-58, clear of the 8B accesses at the default 64B stride), then
 * uniform-random hot references interleave with one-shot streaming
 * episodes. Protected hot lines spill/fill in sentinel form, so
 * whether a policy preferentially evicts califormed lines shows up
 * directly in repl.cformEvictions / repl.cformVictimRate.
 */
class MixedGenerator final : public BudgetedGenerator<MixedGenerator>
{
    friend class BudgetedGenerator<MixedGenerator>;

  public:
    MixedGenerator(const SynthParams &p, std::uint64_t ops)
        : BudgetedGenerator(ops), rng_(p.seed),
          stride_(roundedStride(p)),
          hotSlots_(std::max<std::size_t>(1, p.hotKb * 1024 / stride_)),
          scanSlots_(
              std::max<std::size_t>(1, p.scanKb * 1024 / stride_)),
          hotOps_(std::max<std::size_t>(1, p.scanPeriod)),
          protect_(std::max<std::size_t>(1, hotSlots_ / 4))
    {}

  private:
    Addr
    hotAddr(std::size_t slot) const
    {
        return kMixedHotBase + (slot % hotSlots_) * stride_;
    }

    TraceOp
    produce()
    {
        if (established_ < protect_) {
            return TraceOp::cformOp(makeSetOp(
                lineBase(hotAddr(established_++)), kMixedProtectMask));
        }
        if (!scanning_) {
            if (++phasePos_ >= hotOps_) {
                phasePos_ = 0;
                scanning_ = true;
            }
            const Addr addr = hotAddr(rng_.nextBelow(hotSlots_));
            if (rng_.nextBelow(8) == 0)
                return TraceOp::store(addr, 8, rng_.next());
            return TraceOp::load(addr, 8, rng_.nextBelow(2) == 0);
        }
        const Addr addr = kMixedStreamBase + scanPos_ * stride_;
        ++scanPos_;
        if (++phasePos_ >= scanSlots_) {
            phasePos_ = 0;
            scanning_ = false;
        }
        return TraceOp::load(addr, 8);
    }

    // Same tail placement as the multi-core protect preamble: 3
    // security bytes at offsets 56-58, clear of the data accesses at
    // the default stride (sub-line strides may legitimately trip them;
    // the exception unit absorbs that like any probe).
    static constexpr SecurityMask kMixedProtectMask =
        0x0700'0000'0000'0000ull;

    Rng rng_;
    std::size_t stride_;
    std::size_t hotSlots_;
    std::size_t scanSlots_;
    std::size_t hotOps_;
    std::size_t protect_;
    std::size_t established_ = 0;
    std::uint64_t scanPos_ = 0;
    std::size_t phasePos_ = 0;
    bool scanning_ = false;
};

SpecBenchmark
synthBench(const char *name)
{
    const std::string bench = name;
    return {bench, false, [bench](KernelContext &ctx) {
                const SynthParams &p = ctx.synth();
                const unsigned cores = ctx.machine().coreCount();
                auto streams =
                    makeSynthStreams(bench, p, ctx.n(p.ops), cores);
                std::vector<TraceReader *> raw;
                raw.reserve(streams.size());
                for (const auto &s : streams)
                    raw.push_back(s.get());
                runTraceInterleaved(ctx.machine(), raw);
            }};
}

// Security bytes at offsets 56-58 of a protected line: clear of the
// first 56 bytes, where every generator's 8B accesses land with the
// default 64B stride, so the preamble protects without perturbing the
// benign traffic (sub-line strides may legitimately trip them, which
// the exception unit absorbs like any attack probe).
constexpr SecurityMask kProtectMask = 0x0700'0000'0000'0000ull;

/**
 * The hottest lines a generator will share across cores, per workload:
 * zipf's top-ranked slots (through the same rank->slot hash the
 * generator uses), the stream scan's first lines, and the ring's
 * control word plus leading slots. stackchurn and attackmix already
 * issue their own CFORM traffic over shared lines, so they need no
 * preamble.
 */
Trace
protectPreamble(const std::string &name, const SynthParams &p)
{
    std::vector<Addr> lines;
    const std::size_t stride = roundedStride(p);
    const std::size_t want = p.protectLines;
    const auto addLine = [&lines, want](Addr addr) {
        const Addr la = lineBase(addr);
        if (lines.size() < want &&
            std::find(lines.begin(), lines.end(), la) == lines.end())
            lines.push_back(la);
    };

    if (want) {
        if (name == "zipf") {
            const std::size_t slots = std::max<std::size_t>(
                1, p.footprintKb * 1024 / stride);
            for (std::size_t rank = 0;
                 lines.size() < want && rank < 8 * want + 64; ++rank) {
                const std::size_t slot = static_cast<std::size_t>(
                                             rank *
                                             0x9e3779b97f4a7c15ull) %
                                         slots;
                addLine(kZipfBase + slot * stride);
            }
        } else if (name == "stream") {
            const std::size_t slots = std::max<std::size_t>(
                1, p.footprintKb * 1024 / stride);
            for (std::size_t i = 0; lines.size() < want && i < slots;
                 ++i)
                addLine(kStreamBase + i * stride);
        } else if (name == "ring") {
            const std::size_t slots =
                std::max<std::size_t>(2, p.ringSlots);
            addLine(kRingBase);
            for (std::size_t i = 0; lines.size() < want && i < slots;
                 ++i)
                addLine(kRingBase + 64 + i * stride);
        }
    }

    Trace out;
    out.reserve(lines.size());
    for (const Addr la : lines)
        out.push_back(TraceOp::cformOp(makeSetOp(la, kProtectMask)));
    return out;
}

/** A fixed op prefix stitched in front of another stream. */
class PreambleReader final : public TraceReader
{
  public:
    PreambleReader(Trace preamble, std::unique_ptr<TraceReader> rest)
        : preamble_(std::move(preamble)), rest_(std::move(rest))
    {}

    bool
    next(TraceOp &op) override
    {
        if (pos_ < preamble_.size()) {
            op = preamble_[pos_++];
            return true;
        }
        return rest_->next(op);
    }

  private:
    Trace preamble_;
    std::size_t pos_ = 0;
    std::unique_ptr<TraceReader> rest_;
};

} // namespace

const std::vector<std::string> &
synthWorkloadNames()
{
    // The first kClassicWorkloads names are the historical
    // synthSuite(); the adversarial replacement stressors follow.
    static const std::vector<std::string> names = {
        "zipf", "stream", "stackchurn", "ring", "attackmix",
        "thrash", "scan",  "mixed"};
    return names;
}

bool
isSynthWorkload(const std::string &name)
{
    const auto &names = synthWorkloadNames();
    return std::find(names.begin(), names.end(), name) != names.end();
}

std::unique_ptr<TraceReader>
makeSynthGenerator(const std::string &name, const SynthParams &params,
                   std::uint64_t ops)
{
    if (name == "zipf")
        return std::make_unique<ZipfGenerator>(params, ops);
    if (name == "stream")
        return std::make_unique<StreamGenerator>(params, ops);
    if (name == "stackchurn")
        return std::make_unique<StackChurnGenerator>(params, ops);
    if (name == "ring")
        return std::make_unique<RingGenerator>(params, ops);
    if (name == "attackmix")
        return std::make_unique<AttackMixGenerator>(params, ops);
    if (name == "thrash")
        return std::make_unique<ThrashGenerator>(params, ops);
    if (name == "scan")
        return std::make_unique<ScanGenerator>(params, ops);
    if (name == "mixed")
        return std::make_unique<MixedGenerator>(params, ops);
    throw std::invalid_argument("unknown synthetic workload: " + name);
}

std::vector<std::unique_ptr<TraceReader>>
makeSynthStreams(const std::string &name, const SynthParams &params,
                 std::uint64_t ops_per_core, unsigned cores)
{
    std::vector<std::unique_ptr<TraceReader>> streams;
    streams.reserve(cores);
    for (unsigned c = 0; c < cores; ++c) {
        SynthParams pc = params;
        pc.seed = params.seed + params.coreSeedStride * c;
        auto gen = makeSynthGenerator(name, pc, ops_per_core);
        if (c == 0 && cores > 1) {
            Trace pre = protectPreamble(name, params);
            if (!pre.empty())
                gen = std::make_unique<PreambleReader>(std::move(pre),
                                                       std::move(gen));
        }
        streams.push_back(std::move(gen));
    }
    return streams;
}

const std::vector<SpecBenchmark> &
synthSuite()
{
    // The classic five only: the workload-suite / multicore / memlp
    // bench baselines iterate this suite, so growing it would change
    // their committed grids. The adversarial stressors form their own
    // suite below (`bench_anchor repl` / BENCH_repl.json).
    static const std::vector<SpecBenchmark> suite = [] {
        std::vector<SpecBenchmark> benches;
        const auto &names = synthWorkloadNames();
        for (std::size_t i = 0; i < kClassicWorkloads; ++i)
            benches.push_back(synthBench(names[i].c_str()));
        return benches;
    }();
    return suite;
}

const std::vector<SpecBenchmark> &
adversarialSuite()
{
    static const std::vector<SpecBenchmark> suite = [] {
        std::vector<SpecBenchmark> benches;
        const auto &names = synthWorkloadNames();
        for (std::size_t i = kClassicWorkloads; i < names.size(); ++i)
            benches.push_back(synthBench(names[i].c_str()));
        return benches;
    }();
    return suite;
}

} // namespace califorms
