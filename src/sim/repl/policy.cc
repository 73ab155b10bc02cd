/**
 * @file policy.cc
 * Concrete replacement policies. See policy.hh for the hook contract.
 *
 * LRU reproduces the pre-laboratory CacheArray byte for byte: the
 * global stamp counter advances on exactly the same events (every hit,
 * every insert, including in-place overwrites) and the victim scan is
 * the same strictly-less argmin over ways in ascending order, so the
 * first minimal way wins ties exactly as before.
 */

#include "sim/repl/policy.hh"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace califorms
{

const char *
replPolicyName(ReplPolicy policy)
{
    switch (policy) {
    case ReplPolicy::Inherit: return "inherit";
    case ReplPolicy::Lru: return "lru";
    case ReplPolicy::Random: return "random";
    case ReplPolicy::Dip: return "dip";
    case ReplPolicy::Drrip: return "drrip";
    case ReplPolicy::Ship: return "ship";
    }
    return "?";
}

namespace repl
{
namespace
{

/** True LRU: one monotone stamp per way, victim = oldest stamp. */
class LruPolicy final : public ReplacementPolicy
{
  public:
    LruPolicy(std::size_t sets, unsigned ways)
        : ways_(ways), stamp_(sets * ways, 0)
    {
    }

    void
    onHit(std::size_t set, unsigned way, const LineMeta &) override
    {
        stamp_[set * ways_ + way] = ++clock_;
    }

    void
    onInsert(std::size_t set, unsigned way, const LineMeta &) override
    {
        stamp_[set * ways_ + way] = ++clock_;
    }

    unsigned
    victimWay(std::size_t set, unsigned n) override
    {
        unsigned victim = 0;
        for (unsigned w = 1; w < n; ++w)
            if (stamp_[set * ways_ + w] < stamp_[set * ways_ + victim])
                victim = w;
        return victim;
    }

  private:
    unsigned ways_;
    std::uint64_t clock_ = 0;
    std::vector<std::uint64_t> stamp_;
};

/** Seeded deterministic random victim (xorshift64*; fixed seed per
 *  array so two identical runs — and any --jobs N schedule — draw the
 *  identical victim sequence). */
class RandomPolicy final : public ReplacementPolicy
{
  public:
    RandomPolicy(std::size_t, unsigned) {}

    void onHit(std::size_t, unsigned, const LineMeta &) override {}
    void onInsert(std::size_t, unsigned, const LineMeta &) override {}

    unsigned
    victimWay(std::size_t, unsigned n) override
    {
        state_ ^= state_ << 13;
        state_ ^= state_ >> 7;
        state_ ^= state_ << 17;
        const std::uint64_t mixed = state_ * 0x2545f4914f6cdd1dull;
        return static_cast<unsigned>((mixed >> 33) % n);
    }

  private:
    std::uint64_t state_ = 0x9e3779b97f4a7c15ull;
};

/**
 * DIP (dynamic insertion policy): LRU recency order everywhere, but
 * dueling the *insertion* point — policy A inserts at MRU (classic
 * LRU), policy B is LIP and inserts at LRU (one stamp below the
 * current set minimum), so a never-reused streaming line is the very
 * next victim instead of flushing the whole set.
 */
class DipPolicy final : public ReplacementPolicy
{
  public:
    DipPolicy(std::size_t sets, unsigned ways)
        : ways_(ways), stamp_(sets * ways, 0)
    {
    }

    void
    onHit(std::size_t set, unsigned way, const LineMeta &) override
    {
        stamp_[set * ways_ + way] = ++clock_;
    }

    void onMiss(std::size_t set) override { duel_.onMiss(set); }

    void
    onInsert(std::size_t set, unsigned way, const LineMeta &) override
    {
        if (duel_.useB(set)) { // LIP: land at the LRU position
            std::int64_t low = stamp_[set * ways_];
            for (unsigned w = 1; w < ways_; ++w)
                low = std::min<std::int64_t>(low,
                                             stamp_[set * ways_ + w]);
            stamp_[set * ways_ + way] = low - 1;
        } else { // classic LRU: land at MRU
            stamp_[set * ways_ + way] = ++clock_;
        }
    }

    unsigned
    victimWay(std::size_t set, unsigned n) override
    {
        unsigned victim = 0;
        for (unsigned w = 1; w < n; ++w)
            if (stamp_[set * ways_ + w] < stamp_[set * ways_ + victim])
                victim = w;
        return victim;
    }

  private:
    unsigned ways_;
    std::int64_t clock_ = 0;
    std::vector<std::int64_t> stamp_;
    SetDuel duel_;
};

/** Common 2-bit RRPV machinery of DRRIP and SHiP. */
class RripBase : public ReplacementPolicy
{
  public:
    static constexpr std::uint8_t kMaxRrpv = 3; // 2-bit RRPVs

    RripBase(std::size_t sets, unsigned ways)
        : ways_(ways), rrpv_(sets * ways, kMaxRrpv)
    {
    }

    void
    onHit(std::size_t set, unsigned way, const LineMeta &) override
    {
        rrpv_[set * ways_ + way] = 0; // hit promotion to near-immediate
    }

    unsigned
    victimWay(std::size_t set, unsigned n) override
    {
        for (;;) {
            for (unsigned w = 0; w < n; ++w)
                if (rrpv_[set * ways_ + w] >= kMaxRrpv)
                    return w;
            for (unsigned w = 0; w < n; ++w)
                ++rrpv_[set * ways_ + w]; // age the whole set
        }
    }

  protected:
    unsigned ways_;
    std::vector<std::uint8_t> rrpv_;
};

/**
 * DRRIP: set-dueling SRRIP (insert at RRPV kMax-1, "long re-reference")
 * against BRRIP (insert at kMax, except every 32nd insert at kMax-1).
 * The BRRIP throttle is a deterministic counter, not an RNG, keeping
 * runs bit-identical at any --jobs N.
 */
class DrripPolicy final : public RripBase
{
  public:
    static constexpr std::uint32_t kBrripEpsilon = 32;

    using RripBase::RripBase;

    void onMiss(std::size_t set) override { duel_.onMiss(set); }

    void
    onInsert(std::size_t set, unsigned way, const LineMeta &) override
    {
        std::uint8_t insert = kMaxRrpv - 1; // SRRIP
        if (duel_.useB(set)) {              // BRRIP
            insert = (++brripTick_ % kBrripEpsilon == 0) ? kMaxRrpv - 1
                                                         : kMaxRrpv;
        }
        rrpv_[set * ways_ + way] = insert;
    }

  private:
    SetDuel duel_;
    std::uint32_t brripTick_ = 0;
};

/**
 * SHiP-lite: a signature hashed from the line address indexes a table
 * of 3-bit reuse counters (SHCT). A line evicted or invalidated without
 * ever hitting decrements its signature's counter; a hit increments
 * it. Inserts with a zero counter predict "no reuse" and land at
 * distant RRPV (kMax), everything else at kMax-1. PC-less variant —
 * the trace has no program counters, so the address itself is the
 * signature source.
 */
class ShipPolicy final : public RripBase
{
  public:
    static constexpr unsigned kSigBits = 14;
    static constexpr std::uint8_t kShctMax = 7; // 3-bit counters

    ShipPolicy(std::size_t sets, unsigned ways)
        : RripBase(sets, ways),
          shct_(std::size_t{1} << kSigBits, 1),
          sig_(sets * ways, 0),
          live_(sets * ways, 0),
          reused_(sets * ways, 0)
    {
    }

    static std::uint16_t
    signature(Addr line_addr)
    {
        const std::uint64_t h =
            (line_addr >> lineShift) * 0x9e3779b97f4a7c15ull;
        return static_cast<std::uint16_t>(h >> (64 - kSigBits));
    }

    void
    onHit(std::size_t set, unsigned way, const LineMeta &meta) override
    {
        RripBase::onHit(set, way, meta);
        const std::size_t idx = set * ways_ + way;
        if (live_[idx] && !reused_[idx]) {
            reused_[idx] = 1;
            if (shct_[sig_[idx]] < kShctMax)
                ++shct_[sig_[idx]];
        }
    }

    void
    onInsert(std::size_t set, unsigned way, const LineMeta &meta) override
    {
        const std::size_t idx = set * ways_ + way;
        trainOutgoing(idx);
        sig_[idx] = signature(meta.lineAddr);
        live_[idx] = 1;
        reused_[idx] = 0;
        rrpv_[idx] = shct_[sig_[idx]] == 0 ? kMaxRrpv : kMaxRrpv - 1;
    }

    void
    onInvalidate(std::size_t set, unsigned way) override
    {
        trainOutgoing(set * ways_ + way);
    }

  private:
    void
    trainOutgoing(std::size_t idx)
    {
        if (live_[idx] && !reused_[idx] && shct_[sig_[idx]] > 0)
            --shct_[sig_[idx]]; // dead on arrival: demote the signature
        live_[idx] = 0;
        reused_[idx] = 0;
    }

    std::vector<std::uint8_t> shct_;
    std::vector<std::uint16_t> sig_;
    std::vector<std::uint8_t> live_;
    std::vector<std::uint8_t> reused_;
};

} // namespace

std::unique_ptr<ReplacementPolicy>
makePolicy(ReplPolicy kind, std::size_t sets, unsigned ways)
{
    switch (kind) {
    case ReplPolicy::Lru:
        return std::make_unique<LruPolicy>(sets, ways);
    case ReplPolicy::Random:
        return std::make_unique<RandomPolicy>(sets, ways);
    case ReplPolicy::Dip:
        return std::make_unique<DipPolicy>(sets, ways);
    case ReplPolicy::Drrip:
        return std::make_unique<DrripPolicy>(sets, ways);
    case ReplPolicy::Ship:
        return std::make_unique<ShipPolicy>(sets, ways);
    case ReplPolicy::Inherit:
        break;
    }
    throw std::invalid_argument(
        "makePolicy: Inherit is not a concrete policy");
}

} // namespace repl
} // namespace califorms
