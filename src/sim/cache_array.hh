/**
 * @file cache_array.hh
 * A generic set-associative cache array parameterized on the stored
 * line payload. The L1 data cache stores BitVectorLine payloads
 * (califorms-bitvector); the tag-only L2 and L3 store just the
 * califormed bit of each sentinel-format line, whose data lives in
 * SharedMemory's one store (shared_mem.hh). Timing lives in the
 * hierarchy (memsys.hh); this class is purely the tag/data array.
 *
 * The array is three parallel vectors indexed set * ways + way: tags,
 * dirty bytes and payloads. A lookup scans only the set's contiguous
 * tags; an empty way holds a tag no line-aligned address can take, so
 * it needs no valid bit. The set index is a mask when the set count is
 * a power of two and a modulo otherwise, so non-power-of-two LLC sizes
 * stay legal.
 *
 * Lines enter through one primitive, insertInPlace(): it hands the
 * victim's payload and dirty bit to the caller before overwriting the
 * way, lets the caller write the new payload straight into the way,
 * and returns the resident line. The L1 uses it to encode each victim
 * and decode each fill with no intermediate copy; insert() wraps it
 * with a copied payload and a by-value victim.
 *
 * Victim selection is delegated to a pluggable ReplacementPolicy
 * (sim/repl/policy.hh): the array owns tags, payloads, and dirty bits;
 * the policy owns all recency/prediction state and is driven through
 * onHit / onMiss / onInsert / victimWay / onInvalidate hooks. The
 * default Lru policy reproduces the historical hardwired true-LRU
 * byte for byte. Hooks carry LineMeta including whether the payload
 * is califormed, and evictions of califormed lines are counted in
 * CacheStats::cformEvictions so the policy laboratory can measure
 * whether scan-resistant policies preferentially evict
 * sentinel-carrying lines.
 */

#ifndef CALIFORMS_SIM_CACHE_ARRAY_HH
#define CALIFORMS_SIM_CACHE_ARRAY_HH

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "sim/repl/policy.hh"
#include "util/types.hh"

namespace califorms
{

/** Hit/miss/eviction counters for one cache level. */
struct CacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t dirtyEvictions = 0;
    /** Evictions whose victim payload carried blacklisted bytes. */
    std::uint64_t cformEvictions = 0;

    double
    missRate() const
    {
        const auto total = hits + misses;
        return total ? static_cast<double>(misses) /
                           static_cast<double>(total)
                     : 0.0;
    }
};

/** Whether @p line carries blacklisted bytes, for any payload shape:
 *  BitVectorLine exposes califormed() (mask != 0), SentinelLine a bool
 *  member; payloads with neither (the unit tests' int lines) are never
 *  califormed. */
template <typename LineT>
inline bool
lineCaliformed(const LineT &line)
{
    if constexpr (requires { static_cast<bool>(line.califormed()); })
        return static_cast<bool>(line.califormed());
    else if constexpr (requires { static_cast<bool>(line.califormed); })
        return static_cast<bool>(line.califormed);
    else
        return false;
}

template <typename LineT>
class CacheArray
{
  public:
    /** A line pushed out by insert(). */
    struct Evicted
    {
        bool valid = false;
        bool dirty = false;
        Addr lineAddr = 0;
        LineT line{};
    };

    CacheArray(std::size_t size_bytes, unsigned ways,
               ReplPolicy policy = ReplPolicy::Lru)
        : ways_(ways),
          sets_(ways ? size_bytes / (lineBytes * ways) : 0),
          pow2Sets_((sets_ & (sets_ - 1)) == 0)
    {
        if (ways == 0 || sets_ == 0 ||
            size_bytes % (lineBytes * ways) != 0) {
            throw std::invalid_argument("CacheArray: bad geometry");
        }
        tags_.assign(sets_ * ways_, kInvalidTag);
        dirty_.assign(sets_ * ways_, 0);
        lines_.resize(sets_ * ways_);
        repl_ = repl::makePolicy(policy, sets_, ways_);
    }

    /** A resident line: its payload and a handle on its dirty bit.
     *  Null on a miss. Valid until the next insert(), insertInPlace(),
     *  extract() or reset(). */
    class Ref
    {
      public:
        Ref() = default;

        explicit operator bool() const { return line_ != nullptr; }
        LineT &operator*() const { return *line_; }
        LineT *operator->() const { return line_; }

        /** Set the dirty bit. The owner calls this once the op that
         *  wrote the payload commits; a faulting op never does, so it
         *  leaves a clean line clean. */
        void markDirty() const { *dirty_ = 1; }

      private:
        friend class CacheArray;
        Ref(LineT *line, std::uint8_t *dirty) : line_(line), dirty_(dirty)
        {
        }
        LineT *line_ = nullptr;
        std::uint8_t *dirty_ = nullptr;
    };

    /** Demand lookup of @p line_addr: counts a hit or miss and notifies
     *  the policy. The returned Ref lets the caller set the dirty bit
     *  on commit without walking the set again. */
    Ref
    access(Addr line_addr)
    {
        const std::size_t set = setIndex(line_addr);
        const std::size_t base = set * ways_;
        for (unsigned w = 0; w < ways_; ++w) {
            if (tags_[base + w] == line_addr) {
                ++stats_.hits;
                repl_->onHit(set, w, metaOf(base + w));
                return refAt(base + w);
            }
        }
        ++stats_.misses;
        repl_->onMiss(set);
        return Ref{};
    }

    /** Like access() but without touching stats or policy state: the
     *  line a caller just inserted, or a functional write. */
    Ref
    find(Addr line_addr)
    {
        const std::size_t i = slotOf(line_addr);
        return i != kNone ? refAt(i) : Ref{};
    }

    /** Look up without touching stats or policy state (functional
     *  peeks). */
    LineT *
    peek(Addr line_addr)
    {
        const std::size_t i = slotOf(line_addr);
        return i != kNone ? &lines_[i] : nullptr;
    }

    const LineT *
    peek(Addr line_addr) const
    {
        const std::size_t i = slotOf(line_addr);
        return i != kNone ? &lines_[i] : nullptr;
    }

    /**
     * Install @p line_addr with dirty bit @p dirty, building its payload
     * in place. When the set is full the policy's victim goes first:
     * @p on_victim(victim_addr, victim_payload, victim_dirty) runs while
     * the way still holds it, and the eviction counters are bumped.
     * Then @p write(payload) writes the new payload into the way, the
     * policy sees onInsert, and the resident line is returned. An
     * existing copy of the same line is overwritten in place with the
     * dirty bits merged (no victim); the overwrite counts as a
     * reference (onHit), so an upgrade-write refreshes recency under
     * every policy.
     */
    template <typename VictimFn, typename WriteFn>
    Ref
    insertInPlace(Addr line_addr, bool dirty, VictimFn &&on_victim,
                  WriteFn &&write)
    {
        const std::size_t set = setIndex(line_addr);
        const std::size_t base = set * ways_;
        unsigned invalid = ways_;
        for (unsigned w = 0; w < ways_; ++w) {
            const Addr tag = tags_[base + w];
            if (tag == line_addr) {
                dirty_[base + w] |= dirty;
                write(lines_[base + w]);
                repl_->onHit(set, w, metaOf(base + w));
                return refAt(base + w);
            }
            if (tag == kInvalidTag && invalid == ways_)
                invalid = w;
        }

        const unsigned way =
            invalid < ways_ ? invalid : repl_->victimWay(set, ways_);
        if (way >= ways_)
            throw std::logic_error(
                "ReplacementPolicy: victim way out of range");
        const std::size_t i = base + way;
        if (invalid == ways_) {
            const bool victim_dirty = dirty_[i];
            ++stats_.evictions;
            if (victim_dirty)
                ++stats_.dirtyEvictions;
            if (lineCaliformed(lines_[i]))
                ++stats_.cformEvictions;
            on_victim(tags_[i], static_cast<const LineT &>(lines_[i]),
                      victim_dirty);
        }
        tags_[i] = line_addr;
        dirty_[i] = dirty;
        write(lines_[i]);
        repl_->onInsert(set, way, metaOf(i));
        return refAt(i);
    }

    /** insertInPlace with a copied payload; the victim, if any, comes
     *  back by value. */
    Evicted
    insert(Addr line_addr, const LineT &line, bool dirty)
    {
        Evicted out;
        insertInPlace(
            line_addr, dirty,
            [&out](Addr victim, const LineT &payload, bool victim_dirty) {
                out = {true, victim_dirty, victim, payload};
            },
            [&line](LineT &payload) { payload = line; });
        return out;
    }

    /** Clear the dirty bit of a resident line (coherence downgrade:
     *  the owner keeps a now-clean copy after its data was recalled). */
    void
    markClean(Addr line_addr)
    {
        const std::size_t i = slotOf(line_addr);
        if (i != kNone)
            dirty_[i] = 0;
    }

    /** Dirty bit of a resident line (false when absent). */
    bool
    dirtyAt(Addr line_addr) const
    {
        const std::size_t i = slotOf(line_addr);
        return i != kNone && dirty_[i];
    }

    /** Remove @p line_addr if present; returns true and fills the outs. */
    bool
    extract(Addr line_addr, LineT &line_out, bool &dirty_out)
    {
        const std::size_t i = slotOf(line_addr);
        if (i == kNone)
            return false;
        line_out = lines_[i];
        dirty_out = dirty_[i];
        tags_[i] = kInvalidTag;
        dirty_[i] = 0;
        repl_->onInvalidate(i / ways_, static_cast<unsigned>(i % ways_));
        return true;
    }

    /** Visit every valid line (used by flush). */
    template <typename Fn>
    void
    forEachLine(Fn &&fn)
    {
        for (std::size_t i = 0; i < tags_.size(); ++i)
            if (tags_[i] != kInvalidTag)
                fn(tags_[i], lines_[i], static_cast<bool>(dirty_[i]));
    }

    /** Drop everything without write-back (only safe after a flush). */
    void
    reset()
    {
        for (std::size_t i = 0; i < tags_.size(); ++i) {
            if (tags_[i] != kInvalidTag)
                repl_->onInvalidate(i / ways_,
                                    static_cast<unsigned>(i % ways_));
            tags_[i] = kInvalidTag;
            dirty_[i] = 0;
        }
    }

    const CacheStats &stats() const { return stats_; }
    void clearStats() { stats_ = CacheStats{}; }
    std::size_t sets() const { return sets_; }
    unsigned ways() const { return ways_; }

  private:
    /** Tag of an empty way: not line-aligned, so no lookup matches it. */
    static constexpr Addr kInvalidTag = ~Addr{0};
    static constexpr std::size_t kNone = ~std::size_t{0};

    std::size_t
    setIndex(Addr line_addr) const
    {
        const auto line = static_cast<std::size_t>(line_addr >> lineShift);
        return pow2Sets_ ? line & (sets_ - 1) : line % sets_;
    }

    /** Flat index of the way holding @p line_addr, or kNone. */
    std::size_t
    slotOf(Addr line_addr) const
    {
        const std::size_t base = setIndex(line_addr) * ways_;
        for (unsigned w = 0; w < ways_; ++w)
            if (tags_[base + w] == line_addr)
                return base + w;
        return kNone;
    }

    Ref refAt(std::size_t i) { return Ref{&lines_[i], &dirty_[i]}; }

    repl::LineMeta
    metaOf(std::size_t i) const
    {
        return {tags_[i], static_cast<bool>(dirty_[i]),
                lineCaliformed(lines_[i])};
    }

    unsigned ways_;
    std::size_t sets_;
    bool pow2Sets_;
    // Parallel per-way arrays, indexed set * ways + way.
    std::vector<Addr> tags_;          //!< kInvalidTag when empty
    std::vector<std::uint8_t> dirty_; //!< 0/1
    std::vector<LineT> lines_;
    std::unique_ptr<repl::ReplacementPolicy> repl_;
    CacheStats stats_;
};

} // namespace califorms

#endif // CALIFORMS_SIM_CACHE_ARRAY_HH
