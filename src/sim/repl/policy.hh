/**
 * @file policy.hh
 * Pluggable set-level replacement policies for CacheArray. The array
 * owns the tags and payloads; the policy owns all victim-selection
 * state (recency stamps, RRPVs, signature tables) and is driven
 * through four hooks:
 *
 *  - onHit(set, way, meta):    a resident line was referenced (a
 *                              lookup hit or an in-place overwrite).
 *  - onMiss(set):              a lookup missed; trains the set-dueling
 *                              PSEL counters of DIP/DRRIP.
 *  - onInsert(set, way, meta): a line landed in a way (fresh fill or
 *                              eviction refill).
 *  - victimWay(set, n):       choose the way to evict; called only
 *                              when every way of the set is valid.
 *  - onInvalidate(set, way):   a line left without being replaced
 *                              (extract / reset), so outcome-tracking
 *                              policies (SHiP) do not mistrain.
 *
 * onHit and onInsert receive LineMeta, which carries whether the
 * payload is califormed (sentinel/blacklist bytes present). victimWay
 * sees only the set: the choice rests on the policy's own state, never
 * on the occupants' payloads. This is what lets the laboratory ask the
 * Califorms question: do scan-resistant policies preferentially evict
 * sentinel-carrying lines, re-inflating conversion cost? CacheArray
 * counts califormed victims in CacheStats::cformEvictions; the
 * policies themselves are payload-agnostic.
 *
 * All policies are deterministic: Random uses a fixed-seed xorshift
 * stream (per array instance), BRRIP throttles with a counter rather
 * than an RNG, and SHiP's signature is a pure hash of the line
 * address. Campaign jobs-invariance therefore holds for every policy.
 */

#ifndef CALIFORMS_SIM_REPL_POLICY_HH
#define CALIFORMS_SIM_REPL_POLICY_HH

#include <cstddef>
#include <cstdint>
#include <memory>

#include "util/types.hh"

namespace califorms
{

/** Which victim-selection policy a cache level runs. Inherit is only
 *  meaningful for the per-level override knobs (mem.l2_repl_policy /
 *  mem.llc_repl_policy): it defers to the machine-wide
 *  mem.repl_policy. */
enum class ReplPolicy
{
    Inherit, //!< per-level override unset; follow mem.repl_policy
    Lru,     //!< true LRU (global recency stamps) — the default
    Random,  //!< seeded deterministic xorshift victim
    Dip,     //!< set-dueling LIP vs LRU insertion
    Drrip,   //!< set-dueling SRRIP vs BRRIP (2-bit RRPV)
    Ship,    //!< SHiP-lite: PC-less signature -> reuse counter table
};

/** Config-surface name of @p policy ("inherit", "lru", ...). */
const char *replPolicyName(ReplPolicy policy);

namespace repl
{

/** What a policy may know about a line at hook time. */
struct LineMeta
{
    Addr lineAddr = 0;
    bool dirty = false;
    /** Payload carries blacklisted bytes (BitVectorLine mask != 0 or
     *  SentinelLine::califormed); always false for non-CFORM payloads
     *  such as the int lines the unit tests store. */
    bool califormed = false;
};

/** Abstract per-array replacement state. One instance per CacheArray;
 *  geometry is fixed at construction. */
class ReplacementPolicy
{
  public:
    virtual ~ReplacementPolicy() = default;

    /** A resident line in (set, way) was referenced. */
    virtual void onHit(std::size_t set, unsigned way,
                       const LineMeta &meta) = 0;

    /** A lookup in @p set missed (before any insert happens). */
    virtual void onMiss(std::size_t set) { (void)set; }

    /** A line was written into (set, way). @p meta describes the
     *  incoming line. */
    virtual void onInsert(std::size_t set, unsigned way,
                          const LineMeta &meta) = 0;

    /**
     * Choose the victim among the @p n valid ways of @p set from the
     * policy's own recency/prediction state; the occupants' payloads
     * are not consulted. Called only when the set is full. Must return
     * a value in [0, n).
     */
    virtual unsigned victimWay(std::size_t set, unsigned n) = 0;

    /** The line in (set, way) vanished without a replacement
     *  (extract / reset). */
    virtual void onInvalidate(std::size_t set, unsigned way)
    {
        (void)set;
        (void)way;
    }
};

/**
 * The shared set-dueling skeleton of DIP and DRRIP (Qureshi et al.).
 * Every kLeaderModulus-th set is a leader for policy A (offset 0) or
 * policy B (offset 1); a 10-bit PSEL counter, initialized to its
 * midpoint, counts misses in the leader sets (A-leader miss increments,
 * B-leader miss decrements) and follower sets adopt whichever policy
 * currently has the lower miss pressure: B when psel > midpoint, A
 * otherwise (ties go to A).
 */
class SetDuel
{
  public:
    static constexpr std::size_t kLeaderModulus = 32;
    static constexpr std::uint32_t kPselMax = 1024; // 10-bit counter
    static constexpr std::uint32_t kPselInit = kPselMax / 2;

    static bool isLeaderA(std::size_t set)
    {
        return set % kLeaderModulus == 0;
    }
    static bool isLeaderB(std::size_t set)
    {
        return set % kLeaderModulus == 1;
    }

    /** Train PSEL on a miss in @p set (no-op in follower sets). */
    void
    onMiss(std::size_t set)
    {
        if (isLeaderA(set)) {
            if (psel_ < kPselMax)
                ++psel_;
        } else if (isLeaderB(set)) {
            if (psel_ > 0)
                --psel_;
        }
    }

    /** Should @p set run policy B? Leaders are pinned to their own
     *  policy; followers consult PSEL. */
    bool
    useB(std::size_t set) const
    {
        if (isLeaderA(set))
            return false;
        if (isLeaderB(set))
            return true;
        return psel_ > kPselInit;
    }

    std::uint32_t psel() const { return psel_; }

  private:
    std::uint32_t psel_ = kPselInit;
};

/** Build the policy state for an array of @p sets x @p ways.
 *  @p kind must be a concrete policy (throws on Inherit). */
std::unique_ptr<ReplacementPolicy> makePolicy(ReplPolicy kind,
                                              std::size_t sets,
                                              unsigned ways);

} // namespace repl
} // namespace califorms

#endif // CALIFORMS_SIM_REPL_POLICY_HH
