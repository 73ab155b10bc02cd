/**
 * @file synth.hh
 * Deterministic synthetic workload generators.
 *
 * Where the SPEC-like kernels (kernels.hh) model specific published
 * benchmarks, these generators span the access-pattern space itself:
 *
 *   zipf        zipfian pointer-chase over a configurable footprint —
 *               a hot set served by the upper hierarchy with a cold
 *               tail reaching DRAM (key/value store flavour)
 *   stream      sequential streaming scan with periodic stores —
 *               bandwidth-bound, prefetch-friendly
 *   stackchurn  call-tree push/pop churn with per-frame CFORM set and
 *               unset traffic — the stack protection hot path
 *   ring        producer-consumer ring buffer with shared control
 *               words — slot reuse at a fixed lag
 *   attackmix   benign traffic interleaved with the Section 7.3
 *               linear-scan probe pattern against CFORM-protected
 *               objects — the only workload that (intentionally)
 *               trips security bytes
 *
 * plus the adversarial replacement stressors (the classic
 * replacement-policy test patterns, aimed at the sim/repl/ policy
 * laboratory rather than the paper's software evaluation):
 *
 *   thrash      cyclic loop over a working set just larger than the
 *               LLC — the LRU worst case
 *   scan        reused hot loop polluted by periodic one-shot
 *               streaming episodes — what scan-resistant policies
 *               (DIP/DRRIP/SHiP) exist to survive
 *   mixed       hot-loop + scan with a quarter of the hot set
 *               CFORM-protected, so califormed-line eviction bias is
 *               directly measurable (repl.cformEvictions)
 *
 * Every generator is a TraceReader: the same op stream can be replayed
 * directly into a Machine (replayStreams), serialized to a text or binary
 * trace (`califorms trace gen --workload`), or run as a campaign
 * benchmark — each workload is registered as a SpecBenchmark
 * (synthSuite()) visible to findBenchmark, `califorms sweep --bench`
 * and exp::CampaignSpec. Streams depend only on SynthParams (the
 * workload.* registry keys) and the requested op count; they use no
 * libm transcendentals, so they are bit-identical across platforms.
 */

#ifndef CALIFORMS_WORKLOAD_SYNTH_HH
#define CALIFORMS_WORKLOAD_SYNTH_HH

#include <memory>
#include <string>
#include <vector>

#include "sim/trace.hh"
#include "workload/kernels.hh"
#include "workload/synth_params.hh"

namespace califorms
{

/** The generator names, in registration order: the classic five
 *  first, then the adversarial stressors. */
const std::vector<std::string> &synthWorkloadNames();

/** How many of synthWorkloadNames() form the classic synthSuite()
 *  (the committed workload/multicore/memlp baselines iterate exactly
 *  these, so the count is part of the baseline contract). */
constexpr std::size_t kClassicWorkloads = 5;

/** True if @p name names a synthetic workload generator. */
bool isSynthWorkload(const std::string &name);

/**
 * Create the generator @p name, producing exactly @p ops operations
 * (including any setup ops such as the attack-mix's CFORM
 * establishment). Throws std::invalid_argument on an unknown name.
 */
std::unique_ptr<TraceReader> makeSynthGenerator(const std::string &name,
                                                const SynthParams &params,
                                                std::uint64_t ops);

/**
 * Fan one synthetic spec into per-core streams for a multi-core
 * machine: core c runs generator @p name with seed
 * params.seed + params.coreSeedStride * c, each producing
 * @p ops_per_core operations (constant work per core). When @p cores >
 * 1 and params.protectLines > 0, core 0's stream is prefixed with a
 * CFORM protect-preamble over the workload's hottest shared lines, so
 * cross-core handoffs of those lines exercise the sentinel conversion
 * path under coherence. With @p cores == 1 the single stream is exactly
 * makeSynthGenerator(name, params, ops_per_core). Feed the result to
 * runTraceInterleaved.
 */
std::vector<std::unique_ptr<TraceReader>>
makeSynthStreams(const std::string &name, const SynthParams &params,
                 std::uint64_t ops_per_core, unsigned cores);

/** The synthetic workloads as campaign benchmarks. Each entry streams
 *  its generator into the context machine with ops scaled by
 *  run.scale; none is part of the paper's software-eval suite. The
 *  spec fans out per core (makeSynthStreams, one stream on a 1-core
 *  machine) and replays through the deterministic round-robin
 *  interleaver. */
const std::vector<SpecBenchmark> &synthSuite();

/** The adversarial replacement stressors (thrash, scan, mixed) as
 *  campaign benchmarks — the workload axis of `bench_anchor repl`.
 *  Kept out of synthSuite() so the historical bench baselines keep
 *  their exact grids. */
const std::vector<SpecBenchmark> &adversarialSuite();

} // namespace califorms

#endif // CALIFORMS_WORKLOAD_SYNTH_HH
