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
    std::vector<Variant> variants;
    for (const InsertionPolicy policy : policies) {
        if (!policyUsesSpans(policy)) {
            variants.push_back(policyVariant(policyName(policy), policy));
            continue;
        }
        for (const std::size_t span : spans)
            variants.push_back(policyVariant(
                policyName(policy) + "/" + std::to_string(span), policy,
                span));
    }
    return variants;
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

Variant
policyVariant(std::string label, InsertionPolicy policy, std::size_t span,
              std::optional<bool> cform)
{
    Variant v{std::move(label), {}};
    v.withSet("layout.policy", policyName(policy));
    if (span)
        v.withSet(policy == InsertionPolicy::FullFixed ? "layout.fixed_span"
                                                       : "layout.max_span",
                  std::to_string(span));
    if (cform) {
        const char *on = *cform ? "true" : "false";
        v.withSet("heap.use_cform", on).withSet("stack.use_cform", on);
    }
    return v;
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
    // Each variant's sets, validated once (withSet/crossKey reject bad
    // entries eagerly; hand-filled sets fail here instead).
    std::vector<config::Config> overrides(variants.size());
    for (std::size_t v = 0; v < variants.size(); ++v)
        for (const auto &[key, value] : variants[v].sets)
            if (const auto error = overrides[v].set(key, value))
                throw std::invalid_argument("variant '" +
                                            variants[v].label +
                                            "': " + *error);

    std::vector<RunUnit> units;
    for (std::size_t b = 0; b < suite.size(); ++b) {
        for (std::size_t v = 0; v < variants.size(); ++v) {
            for (std::size_t s = 0; s < layoutSeeds.size(); ++s) {
                RunUnit unit;
                unit.bench = suite[b];
                unit.benchIndex = b;
                unit.variantIndex = v;
                unit.config = base;
                unit.config.layoutSeed = layoutSeeds[s];
                overrides[v].applyTo(unit.config);
                // Only full and intelligent draw span sizes from the
                // layout seed; every other policy lays out the same
                // binary for each seed, so its cell runs the first.
                const InsertionPolicy policy = unit.config.policy;
                units.push_back(std::move(unit));
                if (policy != InsertionPolicy::Full &&
                    policy != InsertionPolicy::Intelligent)
                    break;
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

void
runTasks(std::size_t count,
         const std::function<void(std::size_t)> &task, unsigned jobs)
{
    const unsigned workers = std::min<std::size_t>(
        effectiveJobs(jobs), count ? count : 1);

    if (workers <= 1) {
        for (std::size_t i = 0; i < count; ++i)
            task(i);
        return;
    }

    // Every task is a whole simulation, so one shared cursor is all the
    // balancing the pool needs: each worker claims the next index. The
    // join publishes every slot and first_error to the caller.
    std::atomic<std::size_t> next{0};
    std::exception_ptr first_error;
    std::mutex error_mutex;

    auto worker = [&] {
        std::size_t idx;
        while ((idx = next.fetch_add(1, std::memory_order_relaxed)) <
               count) {
            try {
                task(idx);
            } catch (...) {
                const std::lock_guard<std::mutex> lock(error_mutex);
                if (!first_error)
                    first_error = std::current_exception();
                // Park the cursor at the end: no worker claims another.
                next.store(count, std::memory_order_relaxed);
            }
        }
    };

    {
        std::vector<std::jthread> pool;
        pool.reserve(workers);
        for (unsigned w = 0; w < workers; ++w)
            pool.emplace_back(worker);
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
            results[i] = runBenchmark(*units[i].bench, units[i].config);
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
    for (std::size_t i = 0; i < units.size(); ++i) {
        if (units[i].benchIndex != bench_idx ||
            units[i].variantIndex != variant_idx)
            continue;
        sum += statValue(results[i].record(), row);
        ++n;
    }
    if (!n)
        throw std::out_of_range("campaign cell has no runs");
    return sum / static_cast<double>(n);
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
