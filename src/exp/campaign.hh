/**
 * @file campaign.hh
 * Deterministic parallel campaign engine.
 *
 * The paper's evaluation is a grid of independent simulations:
 * benchmark x insertion policy x span size x layout seed. A
 * CampaignSpec describes that grid declaratively; expand() flattens it
 * into RunUnits in a fixed submission order; runCampaign() executes the
 * units on a std::jthread pool whose workers claim units from one
 * shared cursor, and each result lands in its unit's slot, so the
 * output is bit-identical whether the campaign runs on one thread or
 * sixteen. Every bench harness and the `califorms sweep` subcommand
 * drive their grids through this engine (see bench/common.hh and
 * tools/cmd_sweep.cc).
 */

#ifndef CALIFORMS_EXP_CAMPAIGN_HH
#define CALIFORMS_EXP_CAMPAIGN_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "config/config.hh"
#include "workload/runner.hh"

namespace califorms::exp
{

/**
 * One column of a campaign: a label and the registry-key overrides
 * ("layout.policy" = "full", "core.mlp" = "16", ...) that distinguish
 * it from the base RunConfig. Every knob in the config ParamRegistry
 * is a grid dimension. expand() applies the sets over the base after
 * the layout seed, and a later set of a key overrides an earlier one,
 * so a layout.seed set really applies (the campaign seed axis then
 * repeats the same seed) and a crossKey() axis beats a set it
 * repeats. Reports embed a variant as its label and resolved config.
 */
struct Variant
{
    std::string label;
    std::vector<std::pair<std::string, std::string>> sets;

    /** Append one validated key=value override; throws
     *  std::invalid_argument on an unknown key or bad value. */
    Variant &withSet(const std::string &key, const std::string &value);
};

/**
 * A variant running @p policy: sets layout.policy, the span key the
 * policy reads when @p span is nonzero (layout.fixed_span for
 * full-fixed, layout.max_span otherwise), and heap.use_cform plus
 * stack.use_cform when @p cform is given.
 */
Variant policyVariant(std::string label, InsertionPolicy policy,
                      std::size_t span = 0,
                      std::optional<bool> cform = std::nullopt);

/** True for policies whose layout depends on the span-size axis. */
bool policyUsesSpans(InsertionPolicy policy);

/**
 * True for registry keys owned by a campaign grid itself — policy,
 * seed, and the span sizes come from the variant list and the seed
 * axis, so a base-level config set of these would be silently
 * overwritten during expand(). Grid drivers (califorms sweep, the
 * bench harnesses) reject them; sweeping them as an explicit variant
 * axis (Variant::sets) still works.
 */
bool gridOwnedKey(const std::string &key);

/**
 * The key scope of a benchmark suite (`califorms run` and `sweep`, the
 * campaign bench harnesses): mem, core, layout, heap, stack and run,
 * plus workload.* if any entry is a synthetic workload and attack.* if
 * any is the attack replay. A @p grid also rejects base sets of the
 * gridOwnedKey() keys.
 */
config::KeyScope suiteScope(const std::vector<const SpecBenchmark *> &suite,
                            std::string target, bool grid);

/** One expanded grid cell; its position in expand()'s list is its
 *  result slot. */
struct RunUnit
{
    const SpecBenchmark *bench = nullptr;
    std::size_t benchIndex = 0;
    std::size_t variantIndex = 0;
    RunConfig config{};
};

/** The declarative grid. */
struct CampaignSpec
{
    std::string name; //!< experiment name for reports
    std::vector<const SpecBenchmark *> suite;
    std::vector<Variant> variants;
    /** Layout seeds averaged over by cells whose resolved policy
     *  draws from the layout seed (full, intelligent); every other
     *  cell runs the first entry only. */
    std::vector<std::uint64_t> layoutSeeds = {1000};
    RunConfig base{};

    /** The conventional seed list: first, first+1, ... (n entries). */
    static std::vector<std::uint64_t>
    seedRange(unsigned n, std::uint64_t first = 1000);

    /**
     * Cross @p policies with the @p spans axis, filtering the span
     * dimension: span-using policies (full/intelligent/fixed) get one
     * variant per span, the others (none/opportunistic) appear once.
     */
    static std::vector<Variant>
    crossPolicySpans(const std::vector<InsertionPolicy> &policies,
                     const std::vector<std::size_t> &spans);

    /**
     * Cross @p variants with an arbitrary registered config key: one
     * copy of every variant per entry of @p values, labelled
     * "label@key=value", value-major (all variants at the first value,
     * then the next). Throws std::invalid_argument on an unknown key
     * or an out-of-bounds value.
     */
    static std::vector<Variant>
    crossKey(const std::vector<Variant> &variants,
             const std::string &key,
             const std::vector<std::string> &values);

    /** Flatten to units, benchmark-major then variant then seed; each
     *  unit's config is base, then its layout seed, then the variant's
     *  sets. */
    std::vector<RunUnit> expand() const;
};

/** 0 means "all hardware threads"; always returns >= 1. */
unsigned effectiveJobs(unsigned jobs);

/**
 * Execute task(0), ..., task(count-1) on @p jobs workers that claim
 * the next index from one shared atomic cursor (jobs==1 runs inline
 * on the caller). Tasks must be independent; each writes its own
 * result slot. The first exception thrown by a task stops the pool
 * and is rethrown after the join. This is the engine under
 * runUnits(), exposed so the fleet serving engine schedules its
 * tenants on the same pool.
 */
void runTasks(std::size_t count,
              const std::function<void(std::size_t)> &task,
              unsigned jobs);

/**
 * Execute @p units on @p jobs runTasks() workers (jobs==1 runs
 * inline). results[i] corresponds to units[i] regardless of jobs. The
 * first exception thrown by a unit is rethrown after the join.
 */
std::vector<RunResult> runUnits(const std::vector<RunUnit> &units,
                                unsigned jobs);

/** A finished campaign: the spec, its expansion, and all results. */
struct CampaignResult
{
    CampaignSpec spec;
    std::vector<RunUnit> units;
    std::vector<RunResult> results; //!< results[i] is for units[i]

    /** The counter-table row @p row averaged over the layout seeds of
     *  one (benchmark, variant) cell, summed in seed order (so the
     *  value is job-count independent). */
    double mean(std::size_t bench_idx, std::size_t variant_idx,
                std::string_view row = "core.cycles") const;
};

/** Expand and run the whole campaign. */
CampaignResult runCampaign(const CampaignSpec &spec, unsigned jobs = 1);

} // namespace califorms::exp

#endif // CALIFORMS_EXP_CAMPAIGN_HH
