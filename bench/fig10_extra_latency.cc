/**
 * @file fig10_extra_latency.cc
 * Figure 10: slowdown when both the L2 and L3 caches incur one extra
 * cycle of access latency — the paper's pessimistic assumption for the
 * sentinel conversion hardware. Paper: 0.24% (hmmer) to 1.37%
 * (xalancbmk), average 0.83%. Also prints the Table 3 configuration.
 */

#include "bench/common.hh"
#include "util/stats.hh"

using namespace califorms;
using bench::Options;

int
main(int argc, char **argv)
{
    Options opt = Options::parse(argc, argv);
    if (!opt.quick && !opt.cfg.isSet("run.scale"))
        opt.scale = 1.0; // cheap experiment; run at full scale
    bench::banner("Figure 10 - +1 cycle L2/L3 access latency",
                  "slowdown 0.24%..1.37%, average 0.83%", opt);

    std::printf("\nTable 3 - simulated system configuration:\n%s\n",
                describeParams(MachineParams{}).c_str());

    exp::CampaignSpec spec;
    spec.name = "fig10_extra_latency";
    spec.suite = bench::fullSuite();
    // Original binaries both times; only the cache latency differs.
    spec.variants = {
        {"base", InsertionPolicy::None, 0, 0, false, false, {}},
        {"+1cyc L2/L3", InsertionPolicy::None, 0, 0, false, false,
         [](RunConfig &c) { c.machine.mem.extraL2L3Latency = 1; }},
    };

    const auto result = bench::runCampaign(opt, spec);

    TextTable table({"benchmark", "base cycles", "+1cyc cycles",
                     "slowdown"});
    std::vector<double> base, with;
    for (std::size_t i = 0; i < spec.suite.size(); ++i) {
        const RunResult &r0 = result.at(i, 0);
        const RunResult &r1 = result.at(i, 1);
        base.push_back(static_cast<double>(r0.cycles));
        with.push_back(static_cast<double>(r1.cycles));
        table.addRow({spec.suite[i]->name, std::to_string(r0.cycles),
                      std::to_string(r1.cycles),
                      TextTable::pct(slowdownVs(r0, r1))});
    }
    table.addRow({"AVG", "", "",
                  TextTable::pct(averageSlowdown(base, with))});
    std::printf("%s", table.render().c_str());
    std::printf("\npaper: min 0.24%% (hmmer), max 1.37%% (xalancbmk), "
                "avg 0.83%%\n");
    return 0;
}
