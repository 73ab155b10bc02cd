/**
 * @file ablation_design_choices.cc
 * Ablations of the design choices DESIGN.md calls out:
 *
 *  - quarantine threshold: temporal-safety window vs heap growth;
 *  - non-temporal CFORM on free (footnote 3 of Section 6.1): cache
 *    pollution avoided vs regular CFORM;
 *  - inter-object guard size: detection of linear overflows vs memory
 *    overhead;
 *  - clean-before-use heap vs dirty-before-use discipline (CFORM
 *    traffic comparison).
 *
 * All three sweeps are one campaign over perlbench (intelligent
 * policy), so --jobs parallelizes across the ablation axes.
 */

#include <initializer_list>
#include <string>
#include <vector>

#include "bench/common.hh"
#include "sim/stats_dump.hh"

using namespace califorms;
using bench::Options;

namespace
{

/** One ablation point: the intelligent policy with one heap.* key
 *  set, so every other heap knob keeps the user's --set/--config. */
exp::Variant
heapVariant(std::string label, const char *key, const std::string &value)
{
    return exp::policyVariant(std::move(label), InsertionPolicy::Intelligent)
        .withSet(key, value);
}

/** One table of the counter-table @p rows, headed by their run-record
 *  keys, with a line per variant in [first, last). */
void
printRows(const exp::CampaignResult &result, std::size_t first,
          std::size_t last, std::initializer_list<const char *> rows)
{
    std::vector<std::string> header = {"variant"};
    for (const char *row : rows)
        header.emplace_back(statRow(row).key());
    TextTable table(header);
    for (std::size_t v = first; v < last; ++v) {
        const RunRecord record = result.at(0, v).record();
        std::vector<std::string> line = {result.spec.variants[v].label};
        for (const char *row : rows)
            line.push_back(statRow(row).text(record));
        table.addRow(std::move(line));
    }
    std::printf("%s", table.render().c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = Options::parse(argc, argv);
    // Every row reports per-run allocator counters (reuses, peak heap,
    // CFORMs), which cannot be averaged over layouts — so the campaign
    // runs exactly one layout seed, and the banner says so.
    opt.seeds = 1;
    bench::banner("Ablation - allocator & CFORM design choices",
                  "Section 6.1 footnote 3 and quarantine design", opt);

    const double fractions[] = {0.0, 0.1, 0.25, 0.5, 1.0};
    const std::size_t guard_sizes[] = {0, 8, 16, 32};

    exp::CampaignSpec spec;
    spec.name = "ablation_design_choices";
    spec.suite = {&findBenchmark("perlbench")};
    for (const double frac : fractions) {
        const std::string text = TextTable::num(frac, 2);
        spec.variants.push_back(heapVariant(
            "quarantine/" + text, "heap.quarantine_fraction", text));
    }
    const std::size_t nt_base = spec.variants.size();
    spec.variants.push_back(heapVariant(
        "regular CFORM", "heap.non_temporal_cform", "false"));
    spec.variants.push_back(heapVariant(
        "non-temporal CFORM", "heap.non_temporal_cform", "true"));
    const std::size_t guard_base = spec.variants.size();
    for (const std::size_t g : guard_sizes)
        spec.variants.push_back(heapVariant("guard/" + std::to_string(g),
                                            "heap.guard_bytes",
                                            std::to_string(g)));

    const auto result = bench::runCampaign(opt, spec);

    // Quarantine fraction sweep (temporal safety window).
    std::printf("\n-- quarantine fraction (perlbench, intelligent "
                "policy) --\n");
    printRows(result, 0, nt_base,
              {"core.cycles", "heap.reuses", "heap.peakHeapBytes"});
    std::printf("(larger fractions hold freed memory blacklisted "
                "longer — better temporal\nsafety — at the cost of "
                "heap growth)\n");

    // Non-temporal CFORM.
    std::printf("\n-- non-temporal CFORM (footnote 3) --\n");
    printRows(result, nt_base, guard_base, {"core.cycles", "l1d.misses"});
    std::printf("(footnote 3 predicts the streaming variant helps by not "
                "polluting the L1 with\nfreed lines; in this model the "
                "sign depends on whether freed lines are touched\nagain "
                "before eviction — compare the L1 miss columns)\n");

    // Guard bytes sweep.
    std::printf("\n-- inter-object guard size --\n");
    printRows(result, guard_base, spec.variants.size(),
              {"core.cycles", "heap.peakHeapBytes", "heap.cformsIssued"});
    std::printf("(REST-style guards: wider guards raise detection "
                "margin for wild linear\noverflows at a small space "
                "cost; 8B guards catch every +/-1 overflow)\n");
    return 0;
}
