/**
 * @file context.hh
 * Execution context handed to workload kernels.
 *
 * A kernel sees the simulated machine, the Califorms-aware heap and
 * stack allocators, a deterministic RNG, and a layout transformer
 * configured with the experiment's insertion policy. Kernels obtain
 * security-byte-transformed layouts through layoutOf(), so the same
 * kernel code runs the baseline (policy None) and every policy
 * configuration — only the layouts and the CFORM traffic differ,
 * exactly like recompiling a SPEC benchmark with the paper's LLVM pass.
 */

#ifndef CALIFORMS_WORKLOAD_CONTEXT_HH
#define CALIFORMS_WORKLOAD_CONTEXT_HH

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "alloc/heap.hh"
#include "alloc/stack.hh"
#include "layout/policy.hh"
#include "security/scenario_params.hh"
#include "sim/machine.hh"
#include "util/rng.hh"
#include "workload/synth_params.hh"

namespace califorms
{

class KernelContext
{
  public:
    KernelContext(Machine &machine, HeapAllocator &heap,
                  StackAllocator &stack, LayoutTransformer transformer,
                  std::uint64_t kernel_seed, double scale,
                  SynthParams synth = {}, AttackParams attack = {},
                  std::uint64_t layout_seed = 0);

    Machine &machine() { return machine_; }
    HeapAllocator &heap() { return heap_; }
    StackAllocator &stack() { return stack_; }
    Rng &rng() { return rng_; }
    double scale() const { return scale_; }

    /** Knobs of the synthetic workload generators (workload.* keys);
     *  the SPEC-like kernels ignore them. */
    const SynthParams &synth() const { return synth_; }

    /** Knobs of the attack scenarios (attack.* keys); only the attack
     *  replay benchmark consumes them. */
    const AttackParams &attack() const { return attack_; }

    /** The run's layout configuration, exposed so the attack kernel
     *  can respawn victims under per-trial seeds. */
    InsertionPolicy layoutPolicy() const { return transformer_.policy(); }
    const PolicyParams &layoutParams() const
    {
        return transformer_.params();
    }
    std::uint64_t layoutSeed() const { return layoutSeed_; }

    /** Security counters the attack kernel publishes (empty for every
     *  other benchmark, keeping their reports byte-identical). */
    SecurityRunStats &securityResult() { return security_; }

    /** Scale an iteration count by the context's work multiplier. */
    std::size_t
    n(std::size_t base) const
    {
        const auto scaled =
            static_cast<std::size_t>(static_cast<double>(base) * scale_);
        return scaled > 0 ? scaled : 1;
    }

    /** Policy-transformed layout for @p def, cached per definition. */
    std::shared_ptr<const SecureLayout> layoutOf(const StructDefPtr &def);

    // Field access helpers ---------------------------------------------
    /** Load field @p field_idx of the element at @p elem_base. */
    std::uint64_t loadField(Addr elem_base, const SecureLayout &layout,
                            std::size_t field_idx,
                            bool depends_on_prev = false);

    /** Store @p value into field @p field_idx. */
    void storeField(Addr elem_base, const SecureLayout &layout,
                    std::size_t field_idx, std::uint64_t value);

  private:
    Machine &machine_;
    HeapAllocator &heap_;
    StackAllocator &stack_;
    LayoutTransformer transformer_;
    Rng rng_;
    double scale_;
    SynthParams synth_;
    AttackParams attack_;
    std::uint64_t layoutSeed_;
    SecurityRunStats security_;
    /** A cached layout keeps its definition alive: a freed def's
     *  address could otherwise be reused by a new def of another shape
     *  and hit the stale entry. */
    struct CachedLayout
    {
        StructDefPtr def;
        std::shared_ptr<const SecureLayout> layout;
    };
    std::unordered_map<const StructDef *, CachedLayout> layoutCache_;
};

} // namespace califorms

#endif // CALIFORMS_WORKLOAD_CONTEXT_HH
