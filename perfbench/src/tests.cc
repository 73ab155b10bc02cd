/**
 * @file tests.cc
 * The benchmark's own tests: the oracle catches injected faults, the
 * observed replay loop reproduces the library's replay exactly, every
 * workload still exercises the layer it exists for, and the span
 * histograms report sane percentiles. Exits non-zero on any failure.
 *
 * Run: python3 perfbench/run.py --self-test
 */

#include <cmath>
#include <iostream>
#include <string>

#include "oracle.hh"
#include "spans.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

int failures = 0;

void
expect(bool ok, const std::string &what)
{
    std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
    if (!ok)
        ++failures;
}

/** Issue @p op on core 0 under the oracle's eye. */
void
step(Machine &m, OracleCheck &check, const TraceOp &op)
{
    check.beforeOp(0, op);
    const std::uint64_t value = execute(m, 0, op);
    check.afterOp(0, op, value);
}

void
oracleCatchesWrongValue()
{
    for (const bool inject : {false, true}) {
        Machine m;
        OracleCheck check(m);
        step(m, check, TraceOp::store(0x1000, 8, 0x1122334455667788ull));
        if (inject)
            m.pokeByte(0x1003, 0xee); // corrupt one stored byte
        step(m, check, TraceOp::load(0x1000, 8));
        expect(check.attempted() == 2 && check.failed() == (inject ? 1 : 0),
               inject ? "oracle catches an injected wrong value"
                      : "oracle accepts a correct load");
    }
}

void
oracleCatchesMissingFault()
{
    for (const bool inject : {false, true}) {
        Machine m;
        OracleCheck check(m);
        step(m, check, TraceOp::cformOp(makeSetOp(0x2000, 1ull << 3)));
        // Illegal transition: byte 3 is already a security byte.
        step(m, check, TraceOp::cformOp(makeSetOp(0x2000, 1ull << 3)));
        if (inject)
            m.exceptions().maskExceptions(); // the next fault goes missing
        step(m, check, TraceOp::load(0x2000, 8));
        expect(check.failed() == (inject ? 1 : 0),
               inject ? "oracle catches an injected missing fault"
                      : "oracle expects intended Califorms exceptions");
    }
}

void
oracleChecksLineCrossingAccess()
{
    Machine m;
    OracleCheck check(m);
    step(m, check, TraceOp::cformOp(makeSetOp(0x3040, 1ull << 1)));
    step(m, check, TraceOp::store(0x303c, 8, 0xffffffffffffffffull));
    step(m, check, TraceOp::load(0x303c, 8));
    expect(check.failed() == 0 && m.exceptions().deliveredCount() == 2,
           "oracle models a line-crossing access that faults in its "
           "second line");
}

void
workloadsKeepTheirProperties()
{
    for (const WorkloadSpec &spec : workloads()) {
        const std::uint64_t ops = 400'000;
        Fingerprint library;
        {
            Episode ep(spec, 1, ops, ".");
            std::uint64_t head = 0, rest = 0;
            std::uint64_t sum =
                replayUpTo(ep.machine(), ep.streams(), ops / 4, &head);
            sum ^= replayUpTo(ep.machine(), ep.streams(), ops, &rest);
            library = fingerprint(ep.machine(), head + rest, sum);
        }
        Episode ep(spec, 1, ops, ".");
        OracleCheck check(ep.machine());
        const std::uint64_t sum =
            replayObserved(ep.machine(), ep.streams(), check);
        const Fingerprint observed =
            fingerprint(ep.machine(), check.attempted(), sum);
        expect(observed == library,
               spec.name + ": observed replay matches the library's");
        expect(check.attempted() == ops && check.failed() == 0,
               spec.name + ": every op agrees with the flat oracle");
        const auto violations = propertyViolations(spec, observed);
        for (const auto &v : violations)
            std::cout << "     " << v << "\n";
        expect(violations.empty(), spec.name + ": workload property holds");
    }
}

void
propertyCheckFailsLoudly()
{
    const WorkloadSpec &churn = findWorkload("churn");
    Episode ep(findWorkload("chase"), 1, 50'000, ".");
    std::uint64_t ops = 0;
    const std::uint64_t sum =
        replayUpTo(ep.machine(), ep.streams(), 50'000, &ops);
    expect(propertyViolations(churn, fingerprint(ep.machine(), ops, sum))
                   .size() == 2,
           "churn's properties reject a stream without CFORMs");
}

void
spanPercentiles()
{
    Span span;
    for (std::uint64_t ns = 1; ns <= 1000; ++ns)
        span.add(ns);
    expect(std::abs(span.quantile(0.5) - 500) <= 500.0 / 32 &&
               std::abs(span.quantile(0.99) - 990) <= 990.0 / 32 &&
               span.quantile(0.0) == 1 && Span().quantile(0.5) == 0,
           "span percentiles are within 1/32");
}

} // namespace

int
main()
{
    oracleCatchesWrongValue();
    oracleCatchesMissingFault();
    oracleChecksLineCrossingAccess();
    workloadsKeepTheirProperties();
    propertyCheckFailsLoudly();
    spanPercentiles();
    std::cout << (failures ? "FAILED" : "all passed") << "\n";
    return failures ? 1 : 0;
}
