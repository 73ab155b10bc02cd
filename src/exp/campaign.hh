/**
 * @file campaign.hh
 * Deterministic parallel campaign engine.
 *
 * The paper's evaluation is a grid of independent simulations:
 * benchmark x insertion policy x span size x layout seed. A
 * CampaignSpec describes that grid declaratively; expand() flattens it
 * into RunUnits in a fixed submission order; runCampaign() executes the
 * units on a work-stealing std::jthread pool and collects results
 * indexed by submission order, so the output is bit-identical whether
 * the campaign runs on one thread or sixteen. Every bench harness and
 * the `califorms sweep` subcommand drive their grids through this
 * engine (see bench/common.hh and tools/cmd_sweep.cc).
 */

#ifndef CALIFORMS_EXP_CAMPAIGN_HH
#define CALIFORMS_EXP_CAMPAIGN_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "config/config.hh"
#include "workload/runner.hh"

namespace califorms::exp
{

/**
 * One column of a campaign: a named deviation from the base RunConfig.
 * Fields left at their defaults keep the base configuration's value.
 */
struct Variant
{
    Variant() = default;
    /** The classic six-field shape every harness spells out; the
     *  hierarchy axis fields start at their keep-the-base defaults. */
    Variant(std::string label_, InsertionPolicy policy_,
            std::size_t maxSpan_ = 0, std::size_t fixedSpan_ = 0,
            std::optional<bool> cform_ = std::nullopt,
            bool randomized_ = true)
        : label(std::move(label_)), policy(policy_), maxSpan(maxSpan_),
          fixedSpan(fixedSpan_), cform(cform_), randomized(randomized_)
    {}

    std::string label;
    InsertionPolicy policy = InsertionPolicy::None;
    std::size_t maxSpan = 0;   //!< 0 = keep base PolicyParams::maxSpan
    std::size_t fixedSpan = 0; //!< 0 = keep base PolicyParams::fixedSpan
    /** nullopt = keep the base allocators' CFORM setting. */
    std::optional<bool> cform;
    /** False: layout randomization is irrelevant (e.g. the baseline or
     *  a fixed-span policy) — run only the first layout seed. */
    bool randomized = true;

    // Hierarchy grid axis (califorms-campaign/v2): overrides of the
    // base machine's memory hierarchy.
    unsigned levels = 0;              //!< 0 = keep the base depth
    std::optional<std::size_t> l2Kb;  //!< L2 capacity in KB; 0 disables
    std::optional<std::size_t> llcKb; //!< LLC capacity in KB; 0 disables

    /**
     * Registry-key overrides ("core.mlp" = "16", ...): any knob in the
     * config ParamRegistry is a grid dimension. Validated eagerly by
     * crossKey()/withSet(); applied during expand() after the
     * declarative fields and the seed-list assignment (so a
     * layout.seed override really applies — note the campaign seed
     * axis then repeats the same seed). Every knob the declarative
     * fields do not cover (L1 format, extra latency, heap parameters,
     * ...) is a set. Reports embed these as the variant's resolved
     * non-default config (v2 only; variants without sets serialize
     * exactly as before).
     */
    std::vector<std::pair<std::string, std::string>> sets;

    /** Append one validated key=value override; throws
     *  std::invalid_argument on an unknown key or bad value. */
    Variant &withSet(const std::string &key, const std::string &value);
};

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

/** One expanded grid cell, tagged with its position. */
struct RunUnit
{
    std::size_t index = 0; //!< submission order == result slot
    const SpecBenchmark *bench = nullptr;
    std::size_t benchIndex = 0;
    std::size_t variantIndex = 0;
    std::size_t seedIndex = 0;
    RunConfig config{};
};

/** The declarative grid. */
struct CampaignSpec
{
    std::string name; //!< experiment name for reports
    std::vector<const SpecBenchmark *> suite;
    std::vector<Variant> variants;
    /** Layout seeds averaged over for randomized variants; the first
     *  entry doubles as the seed for non-randomized variants. */
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
     * Cross @p variants with a hierarchy-depth axis: one copy of every
     * variant per entry of @p levels, labelled "label@L<n>", levels-
     * major (all variants at the first depth, then the next). A single-
     * entry axis still rewrites the labels — callers that want the
     * plain variants simply do not cross.
     */
    static std::vector<Variant>
    crossLevels(const std::vector<Variant> &variants,
                const std::vector<unsigned> &levels);

    /**
     * Cross @p variants with an arbitrary registered config key: one
     * copy of every variant per entry of @p values, labelled
     * "label@key=value", value-major (all variants at the first value,
     * then the next) — the axis shape of crossLevels, but over any
     * knob in the ParamRegistry. Throws std::invalid_argument on an
     * unknown key or an out-of-bounds value.
     */
    static std::vector<Variant>
    crossKey(const std::vector<Variant> &variants,
             const std::string &key,
             const std::vector<std::string> &values);

    /** Flatten to units, benchmark-major then variant then seed. */
    std::vector<RunUnit> expand() const;
};

/** 0 means "all hardware threads"; always returns >= 1. */
unsigned effectiveJobs(unsigned jobs);

/**
 * Execute task(0), ..., task(count-1) on @p jobs work-stealing
 * workers (jobs==1 runs inline on the caller). Tasks must be
 * independent; each writes its own result slot. The first exception
 * thrown by a task stops the pool and is rethrown after it drains.
 * This is the engine under runUnits(), exposed so other subsystems
 * (the fleet serving engine) schedule on the same deterministic pool.
 */
void runTasks(std::size_t count,
              const std::function<void(std::size_t)> &task,
              unsigned jobs);

/**
 * Execute @p units on @p jobs workers (work-stealing; jobs==1 runs
 * inline). results[i] corresponds to units[i] regardless of jobs. The
 * first exception thrown by a unit is rethrown after the pool drains.
 */
std::vector<RunResult> runUnits(const std::vector<RunUnit> &units,
                                unsigned jobs);

/** A finished campaign: the spec, its expansion, and all results. */
struct CampaignResult
{
    CampaignSpec spec;
    std::vector<RunUnit> units;
    std::vector<RunResult> results; //!< results[i] is for units[i]

    /** Mean cycles over the layout seeds of one (benchmark, variant)
     *  cell, summed in seed order (so the value is job-count
     *  independent). */
    double meanCycles(std::size_t bench_idx,
                      std::size_t variant_idx) const;

    /** The single result of one fully-indexed cell (throws if the cell
     *  was not part of the grid). */
    const RunResult &at(std::size_t bench_idx, std::size_t variant_idx,
                        std::size_t seed_idx = 0) const;
};

/** Expand and run the whole campaign. */
CampaignResult runCampaign(const CampaignSpec &spec, unsigned jobs = 1);

} // namespace califorms::exp

#endif // CALIFORMS_EXP_CAMPAIGN_HH
