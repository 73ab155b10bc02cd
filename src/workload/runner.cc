#include "workload/runner.hh"

#include <stdexcept>

#include "workload/synth.hh"

namespace califorms
{

RunConfig &
RunConfig::withCform(bool on)
{
    heap.useCform = on;
    stack.useCform = on;
    return *this;
}

RunResult
runBenchmark(const SpecBenchmark &bench, const RunConfig &config)
{
    if (config.machine.core.count > 1 && !isSynthWorkload(bench.name))
        throw std::invalid_argument(
            "benchmark '" + bench.name +
            "' cannot honor core.count > 1 (only the synthetic "
            "workloads fan out one stream per core)");

    Machine machine(config.machine, ExceptionUnit::Policy::Record);
    HeapAllocator heap(machine, config.heap);
    StackAllocator stack(machine, config.stack);
    LayoutTransformer transformer(config.policy, config.policyParams,
                                  config.layoutSeed);
    KernelContext ctx(machine, heap, stack, std::move(transformer),
                      config.kernelSeed, config.scale, config.synth,
                      config.attack, config.layoutSeed);

    bench.run(ctx);

    return {snapshot(machine), bench.name, heap.stats(),
            ctx.securityResult(), coreSnapshots(machine)};
}

} // namespace califorms
