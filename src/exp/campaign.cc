#include "exp/campaign.hh"

#include <atomic>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "layout/policy.hh"
#include "security/scenarios.hh"
#include "workload/synth.hh"

namespace califorms::exp
{

bool
policyUsesSpans(InsertionPolicy policy)
{
    return policy == InsertionPolicy::Full ||
           policy == InsertionPolicy::Intelligent ||
           policy == InsertionPolicy::FullFixed;
}

bool
gridOwnedKey(const std::string &key)
{
    return key == "layout.policy" || key == "layout.seed" ||
           key == "layout.max_span" || key == "layout.fixed_span";
}

config::KeyScope
suiteScope(const std::vector<const SpecBenchmark *> &suite,
           std::string target, bool grid)
{
    namespace ns = config::ns;
    config::KeyScope scope{
        ns::Mem | ns::Core | ns::Layout | ns::Heap | ns::Stack | ns::Run,
        std::move(target), grid ? gridOwnedKey : nullptr};
    for (const SpecBenchmark *b : suite) {
        if (isSynthWorkload(b->name))
            scope.namespaces |= ns::Workload;
        if (isAttackBenchmark(b->name))
            scope.namespaces |= ns::Attack;
    }
    return scope;
}

std::vector<std::uint64_t>
CampaignSpec::seedRange(unsigned n, std::uint64_t first)
{
    std::vector<std::uint64_t> seeds;
    for (unsigned i = 0; i < n; ++i)
        seeds.push_back(first + i);
    return seeds;
}

std::vector<Variant>
CampaignSpec::crossPolicySpans(
    const std::vector<InsertionPolicy> &policies,
    const std::vector<std::size_t> &spans)
{
    // Only Full and Intelligent draw span sizes from the layout RNG;
    // None, Opportunistic, and FullFixed produce the same layout for
    // every seed, so averaging them over seeds would just repeat
    // byte-identical simulations.
    std::vector<Variant> variants;
    for (const InsertionPolicy policy : policies) {
        if (!policyUsesSpans(policy)) {
            Variant v;
            v.label = policyName(policy);
            v.policy = policy;
            v.randomized = false;
            variants.push_back(std::move(v));
            continue;
        }
        for (const std::size_t span : spans) {
            Variant v;
            v.label = policyName(policy) + "/" + std::to_string(span);
            v.policy = policy;
            v.maxSpan = span;
            v.fixedSpan = span;
            v.randomized = policy != InsertionPolicy::FullFixed;
            variants.push_back(std::move(v));
        }
    }
    return variants;
}

std::vector<Variant>
CampaignSpec::crossLevels(const std::vector<Variant> &variants,
                          const std::vector<unsigned> &levels)
{
    std::vector<Variant> out;
    for (const unsigned depth : levels) {
        for (const Variant &base : variants) {
            Variant v = base;
            v.label += "@L" + std::to_string(depth);
            v.levels = depth;
            out.push_back(std::move(v));
        }
    }
    return out;
}

Variant &
Variant::withSet(const std::string &key, const std::string &value)
{
    const config::ParamRegistry &registry =
        config::ParamRegistry::instance();
    const config::ParamSpec *spec = registry.find(key);
    if (!spec)
        throw std::invalid_argument("unknown config key '" + key +
                                    "'");
    std::string error;
    if (!registry.parse(*spec, value, error))
        throw std::invalid_argument(error);
    sets.emplace_back(key, value);
    return *this;
}

std::vector<Variant>
CampaignSpec::crossKey(const std::vector<Variant> &variants,
                       const std::string &key,
                       const std::vector<std::string> &values)
{
    std::vector<Variant> out;
    for (const std::string &value : values) {
        for (const Variant &base : variants) {
            Variant v = base;
            v.label += "@" + key + "=" + value;
            v.withSet(key, value);
            out.push_back(std::move(v));
        }
    }
    return out;
}

std::vector<RunUnit>
CampaignSpec::expand() const
{
    std::vector<RunUnit> units;
    if (layoutSeeds.empty())
        return units;
    for (std::size_t b = 0; b < suite.size(); ++b) {
        for (std::size_t v = 0; v < variants.size(); ++v) {
            const Variant &variant = variants[v];
            const std::size_t seed_count =
                variant.randomized ? layoutSeeds.size() : 1;
            for (std::size_t s = 0; s < seed_count; ++s) {
                RunUnit unit;
                unit.index = units.size();
                unit.bench = suite[b];
                unit.benchIndex = b;
                unit.variantIndex = v;
                unit.seedIndex = s;
                unit.config = base;
                unit.config.policy = variant.policy;
                if (variant.maxSpan)
                    unit.config.policyParams.maxSpan = variant.maxSpan;
                if (variant.fixedSpan)
                    unit.config.policyParams.fixedSpan =
                        variant.fixedSpan;
                if (variant.cform)
                    unit.config.withCform(*variant.cform);
                if (variant.levels)
                    unit.config.machine.mem.levels = variant.levels;
                if (variant.l2Kb)
                    unit.config.machine.mem.l2Size = *variant.l2Kb * 1024;
                if (variant.llcKb)
                    unit.config.machine.mem.l3Size =
                        *variant.llcKb * 1024;
                unit.config.layoutSeed = layoutSeeds[s];
                if (!variant.sets.empty()) {
                    // Registry axis: validated key=value overrides
                    // (withSet/crossKey reject bad entries eagerly;
                    // hand-filled sets fail here instead). Applied
                    // after the seed-list assignment so a
                    // layout.seed set/axis actually takes effect —
                    // the report embeds these as applied config, so
                    // they must win over the implicit seed axis.
                    config::Config cfg;
                    for (const auto &[key, value] : variant.sets)
                        if (const auto error = cfg.set(key, value))
                            throw std::invalid_argument(
                                "variant '" + variant.label + "': " +
                                *error);
                    cfg.applyTo(unit.config);
                }
                units.push_back(std::move(unit));
            }
        }
    }
    return units;
}

unsigned
effectiveJobs(unsigned jobs)
{
    if (jobs)
        return jobs;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

namespace
{

/**
 * One worker's slice of the unit list: a [head, tail) window packed
 * into a single atomic word so the owner (popping the front) and
 * thieves (popping the back) serialize through one CAS with no locks
 * and no ABA hazard — indices only ever move towards each other.
 */
class Shard
{
  public:
    void
    reset(std::size_t head, std::size_t tail)
    {
        window_.store(pack(static_cast<std::uint32_t>(head),
                           static_cast<std::uint32_t>(tail)),
                      std::memory_order_relaxed);
    }

    std::size_t
    remaining() const
    {
        const std::uint64_t w = window_.load(std::memory_order_relaxed);
        const std::uint32_t head = w >> 32;
        const std::uint32_t tail = w & 0xffffffffu;
        return head < tail ? tail - head : 0;
    }

    /** Owner side: claim the front index, or npos when drained. */
    std::size_t
    claimFront()
    {
        std::uint64_t w = window_.load(std::memory_order_relaxed);
        for (;;) {
            const std::uint32_t head = w >> 32;
            const std::uint32_t tail = w & 0xffffffffu;
            if (head >= tail)
                return npos;
            if (window_.compare_exchange_weak(
                    w, pack(head + 1, tail), std::memory_order_acq_rel,
                    std::memory_order_relaxed))
                return head;
        }
    }

    /** Thief side: steal the back index, or npos when drained. */
    std::size_t
    claimBack()
    {
        std::uint64_t w = window_.load(std::memory_order_relaxed);
        for (;;) {
            const std::uint32_t head = w >> 32;
            const std::uint32_t tail = w & 0xffffffffu;
            if (head >= tail)
                return npos;
            if (window_.compare_exchange_weak(
                    w, pack(head, tail - 1), std::memory_order_acq_rel,
                    std::memory_order_relaxed))
                return tail - 1;
        }
    }

    static constexpr std::size_t npos = ~std::size_t{0};

  private:
    static std::uint64_t
    pack(std::uint32_t head, std::uint32_t tail)
    {
        return (static_cast<std::uint64_t>(head) << 32) | tail;
    }

    std::atomic<std::uint64_t> window_{0};
};

} // namespace

void
runTasks(std::size_t count,
         const std::function<void(std::size_t)> &task, unsigned jobs)
{
    // Shard windows pack head/tail into one uint32 pair.
    if (count > 0xffffffffull)
        throw std::length_error("pool exceeds 2^32 tasks");
    const unsigned workers = std::min<std::size_t>(
        effectiveJobs(jobs), count ? count : 1);

    if (workers <= 1) {
        for (std::size_t i = 0; i < count; ++i)
            task(i);
        return;
    }

    // Contiguous slice per worker; idle workers steal from the back of
    // the fullest remaining shard.
    std::vector<Shard> shards(workers);
    for (unsigned w = 0; w < workers; ++w)
        shards[w].reset(count * w / workers, count * (w + 1) / workers);

    std::atomic<bool> stop{false};
    std::exception_ptr first_error;
    std::mutex error_mutex;

    auto worker = [&](unsigned self) {
        auto execute = [&](std::size_t idx) {
            try {
                task(idx);
            } catch (...) {
                {
                    const std::lock_guard<std::mutex> lock(error_mutex);
                    if (!first_error)
                        first_error = std::current_exception();
                }
                stop.store(true, std::memory_order_release);
            }
        };

        while (!stop.load(std::memory_order_acquire)) {
            std::size_t idx = shards[self].claimFront();
            if (idx == Shard::npos) {
                // Own shard drained: steal from the fullest victim.
                std::size_t best = Shard::npos, best_left = 0;
                for (unsigned v = 0; v < workers; ++v) {
                    const std::size_t left = shards[v].remaining();
                    if (v != self && left > best_left) {
                        best = v;
                        best_left = left;
                    }
                }
                if (best == Shard::npos)
                    return; // everything drained
                idx = shards[best].claimBack();
                if (idx == Shard::npos)
                    continue; // lost the race; rescan
            }
            execute(idx);
        }
    };

    {
        std::vector<std::jthread> pool;
        pool.reserve(workers);
        for (unsigned w = 0; w < workers; ++w)
            pool.emplace_back(worker, w);
    } // jthreads join here

    if (first_error)
        std::rethrow_exception(first_error);
}

std::vector<RunResult>
runUnits(const std::vector<RunUnit> &units, unsigned jobs)
{
    std::vector<RunResult> results(units.size());
    runTasks(
        units.size(),
        [&](std::size_t i) {
            results[units[i].index] =
                runBenchmark(*units[i].bench, units[i].config);
        },
        jobs);
    return results;
}

double
CampaignResult::mean(std::size_t bench_idx, std::size_t variant_idx,
                     std::string_view row) const
{
    double sum = 0;
    std::size_t n = 0;
    for (const RunUnit &unit : units) {
        if (unit.benchIndex != bench_idx ||
            unit.variantIndex != variant_idx)
            continue;
        sum += statValue(results[unit.index].record(), row);
        ++n;
    }
    if (!n)
        throw std::out_of_range("campaign cell has no runs");
    return sum / static_cast<double>(n);
}

const RunResult &
CampaignResult::at(std::size_t bench_idx, std::size_t variant_idx,
                   std::size_t seed_idx) const
{
    for (const RunUnit &unit : units)
        if (unit.benchIndex == bench_idx &&
            unit.variantIndex == variant_idx &&
            unit.seedIndex == seed_idx)
            return results[unit.index];
    throw std::out_of_range("campaign cell not in grid");
}

CampaignResult
runCampaign(const CampaignSpec &spec, unsigned jobs)
{
    CampaignResult out;
    out.spec = spec;
    out.units = spec.expand();
    out.results = runUnits(out.units, jobs);
    return out;
}

} // namespace califorms::exp
