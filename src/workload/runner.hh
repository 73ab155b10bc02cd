/**
 * @file runner.hh
 * Experiment runner: builds a fresh machine + allocators for one
 * (benchmark, configuration) pair, runs the kernel, and collects every
 * statistic the figures need. The kernel RNG seed is independent of the
 * layout randomization seed, so different policies execute an identical
 * instruction stream over differently laid-out data — the paper's
 * "same ref input, recompiled binary" methodology.
 */

#ifndef CALIFORMS_WORKLOAD_RUNNER_HH
#define CALIFORMS_WORKLOAD_RUNNER_HH

#include <string>
#include <vector>

#include "fleet/fleet_params.hh"
#include "workload/kernels.hh"
#include "workload/synth_params.hh"

namespace califorms
{

/** Full configuration of one experimental run. */
struct RunConfig
{
    MachineParams machine{};
    HeapParams heap{};
    StackParams stack{};
    InsertionPolicy policy = InsertionPolicy::None;
    PolicyParams policyParams{};
    /** Synthetic workload generator knobs (workload.* registry keys);
     *  only the synthSuite() benchmarks consume them. */
    SynthParams synth{};
    /** Fleet serving-engine knobs (fleet.* registry keys); only the
     *  `califorms fleet` path consumes them. */
    FleetParams fleet{};
    /** Attack scenario knobs (attack.* registry keys); only the attack
     *  replay benchmark consumes them. */
    AttackParams attack{};
    /** Layout randomization seed — the paper builds three binaries per
     *  configuration; vary this to model that. */
    std::uint64_t layoutSeed = 7;
    /** Kernel work seed — keep fixed across configurations. */
    std::uint64_t kernelSeed = 0x5eed;
    /** Work multiplier; 1.0 for benches, smaller for unit tests. */
    double scale = 1.0;

    /** Convenience: disable CFORM issue on both allocators. */
    RunConfig &withCform(bool on);
};

/** Everything measured in one run: the machine snapshot plus its
 *  rollups. security.trials stays 0 for every benchmark but the attack
 *  replay; cores is coreSnapshots (empty on one core). */
struct RunResult : RunStats
{
    std::string benchmark;
    HeapStats heap{};
    SecurityRunStats security{};
    std::vector<RunStats> cores;

    /** What the counter table's rows read for this run. */
    RunRecord record() const { return {*this, cores, &heap, &security}; }
};

/** Run @p bench under @p config on a fresh machine. Throws
 *  std::invalid_argument when core.count > 1 and @p bench is not a
 *  synthetic workload (only those fan out per core; silently running
 *  a multi-core machine single-threaded would misreport scaling). */
RunResult runBenchmark(const SpecBenchmark &bench,
                       const RunConfig &config);

} // namespace califorms

#endif // CALIFORMS_WORKLOAD_RUNNER_HH
