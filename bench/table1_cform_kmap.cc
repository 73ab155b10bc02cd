/**
 * @file table1_cform_kmap.cc
 * Table 1: the CFORM instruction K-map, regenerated by executing the
 * instruction against every (initial state, R2, R3) combination on the
 * functional model and printing the observed transitions.
 */

#include <cstdio>

#include "bench/common.hh"
#include "core/cform.hh"

using namespace califorms;

namespace
{

std::string
outcome(bool initially_security, bool set_bit, bool allowed)
{
    BitVectorLine line;
    if (initially_security)
        line.mask = 1ull << 0;
    CformOp op;
    op.setBits = set_bit ? 1ull : 0ull;
    op.mask = allowed ? 1ull : 0ull;
    const auto fault = applyCform(line, op);
    if (fault)
        return "Exception";
    return line.isSecurityByte(0) ? "Security Byte" : "Regular Byte";
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Options::parse(argc, argv, bench::Reads::Nothing);
    std::printf("Table 1 - K-map for the CFORM instruction\n");
    std::printf("(columns: R3 disallows; R2 unsets, R3 allows; R2 sets, "
                "R3 allows)\n\n");

    TextTable table({"Initial", "X, Disallow", "Unset, Allow",
                     "Set, Allow"});
    table.addRow({"Regular Byte", outcome(false, true, false),
                  outcome(false, false, true),
                  outcome(false, true, true)});
    table.addRow({"Security Byte", outcome(true, true, false),
                  outcome(true, false, true),
                  outcome(true, true, true)});
    std::printf("%s", table.render().c_str());

    std::printf("\npaper Table 1:\n");
    std::printf("  Regular Byte  -> Regular Byte  | Exception    | "
                "Security Byte\n");
    std::printf("  Security Byte -> Security Byte | Regular Byte | "
                "Exception\n");
    std::printf("  (unset on a regular byte and set on a security byte "
                "raise the exception)\n");
    return 0;
}
