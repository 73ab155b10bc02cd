/**
 * @file table7_l1_variants.cc
 * Tables 2 and 7: synthesis results for the baseline 32KB direct
 * mapped L1 and all three L1 Califorms variants — the 8B dedicated bit
 * vector array (Table 2's L1 Califorms), the 4B in-security-byte
 * variant (Figure 14) and the 1B header-byte variant (Figure 15) —
 * plus Table 2's fill and spill conversion modules.
 *
 * Paper (TSMC 65nm + ARM Artisan): L1 Califorms-8B costs +18.69% area,
 * +1.85% delay and +2.12% power over the baseline; Califorms-4B and -1B
 * incur 49.38% and 22.22% extra L1 hit delay while cutting the area
 * overhead to 6.80% and 2.69%. Fill 8,957 GE 1.43ns 0.18mW, spill
 * 34,562 GE 5.50ns 0.52mW.
 */

#include <cstdio>

#include "bench/common.hh"
#include "vlsi/designs.hh"

using namespace califorms;

int
main(int argc, char **argv)
{
    bench::Options::parse(argc, argv, bench::Reads::Nothing);
    std::printf("Tables 2 and 7 - the three L1 Califorms variants "
                "(structural gate-level model)\n\n");

    CircuitBuilder builder;
    L1Geometry geometry;
    const auto rows = synthesizeAll(builder, geometry);
    const auto &base = rows[0].main;

    TextTable table({"design", "area (GE)", "delay (ns)", "power (mW)",
                     "area ovh", "delay ovh", "power ovh"});
    for (const auto &row : rows) {
        const auto ovh = [&](double value, double baseline) {
            return &row == &rows[0] ? std::string("-")
                                    : TextTable::pct(value / baseline - 1.0);
        };
        table.addRow({row.name, TextTable::num(row.main.areaGe, 0),
                      TextTable::num(row.main.delayNs, 2),
                      TextTable::num(row.main.powerMw, 2),
                      ovh(row.main.areaGe, base.areaGe),
                      ovh(row.main.delayNs, base.delayNs),
                      ovh(row.main.powerMw, base.powerMw)});
    }
    std::printf("%s\n", table.render().c_str());

    const auto &fill = rows[1].fill;
    const auto &spill = rows[1].spill;
    std::printf("fill module : %8.0f GE  %.2fns  %.2fmW  (paper:  8,957 GE "
                "1.43ns 0.18mW)\n",
                fill.areaGe, fill.delayNs, fill.powerMw);
    std::printf("spill module: %8.0f GE  %.2fns  %.2fmW  (paper: 34,562 GE "
                "5.50ns 0.52mW)\n",
                spill.areaGe, spill.delayNs, spill.powerMw);

    std::printf("\npaper Tables 2 and 7 (area / delay / power):\n"
                "  Baseline      347,329 / 1.62 / 15.84\n"
                "  Califorms-8B  412,264 / 1.65 / 16.17  "
                "(+18.69%% area, +1.85%% delay, +2.12%% power)\n"
                "  Califorms-4B  370,972 / 2.42 / 17.95  "
                "(+6.80%% area, +49.38%% delay)\n"
                "  Califorms-1B  356,695 / 1.98 / 16.00  "
                "(+2.69%% area, +22.22%% delay)\n"
                "Relations preserved: 8B > 4B > 1B in area; "
                "4B > 1B > 8B in hit delay; the fill\nlatency fits inside "
                "the L1 access period (%.2fns < %.2fns) and the spill's "
                "four\nsuccessive find-index blocks make it the long pole "
                "(%.1fx the fill delay).\n",
                fill.delayNs, base.delayNs, spill.delayNs / fill.delayNs);
    return 0;
}
