/**
 * @file fig03_struct_density.cc
 * Figure 3: struct density histograms for the SPEC-like and V8-like
 * corpora, plus the kernel structs the workloads actually allocate.
 * The paper reports 45.7% (SPEC) and 41.0% (V8) of structs have at
 * least one padding byte.
 */

#include "bench/common.hh"
#include "layout/corpus.hh"
#include "layout/density.hh"
#include "workload/kernels.hh"

using namespace califorms;
using bench::Options;

namespace
{

void
report(const char *name, const DensityReport &r, double paper_padded)
{
    std::printf("\n-- %s --\n", name);
    std::printf("structs analyzed      : %zu\n", r.structCount);
    std::printf("structs with padding  : %zu (%.1f%%; paper: %.1f%%)\n",
                r.paddedCount, 100.0 * r.paddedFraction(),
                100.0 * paper_padded);
    std::printf("total padding bytes   : %zu (%.1f%% of struct bytes)\n",
                r.totalPaddingBytes,
                100.0 * static_cast<double>(r.totalPaddingBytes) /
                    static_cast<double>(r.totalFieldBytes +
                                        r.totalPaddingBytes));
    std::printf("density histogram (fraction of structs per bin):\n%s",
                r.histogram.render(50).c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = Options::parse(argc, argv, bench::Reads::Nothing);
    bench::banner("Figure 3 - struct density histogram",
                  "45.7% of SPEC structs and 41.0% of V8 structs have "
                  ">=1 padding byte",
                  opt);

    const auto spec = generateCorpus(specCorpusParams(), 42);
    report("SPEC CPU2006-like corpus", analyzeDensity(spec), 0.457);

    const auto v8 = generateCorpus(v8CorpusParams(), 43);
    report("V8-like corpus", analyzeDensity(v8), 0.410);

    // Bonus: the density pass over the structs the workload kernels
    // actually allocate (the types the performance experiments see).
    std::vector<StructDefPtr> kernel_structs;
    for (const auto &b : spec2006Suite())
        for (const auto &def : kernelStructs(b.name))
            kernel_structs.push_back(def);
    report("workload kernel structs", analyzeDensity(kernel_structs),
           0.457);
    return 0;
}
