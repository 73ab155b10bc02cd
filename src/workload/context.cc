#include "workload/context.hh"

#include <algorithm>

namespace califorms
{

KernelContext::KernelContext(Machine &machine, HeapAllocator &heap,
                             StackAllocator &stack,
                             LayoutTransformer transformer,
                             std::uint64_t kernel_seed, double scale,
                             SynthParams synth, AttackParams attack,
                             std::uint64_t layout_seed)
    : machine_(machine), heap_(heap), stack_(stack),
      transformer_(std::move(transformer)), rng_(kernel_seed),
      scale_(scale), synth_(synth), attack_(std::move(attack)),
      layoutSeed_(layout_seed)
{
}

std::shared_ptr<const SecureLayout>
KernelContext::layoutOf(const StructDefPtr &def)
{
    auto it = layoutCache_.find(def.get());
    if (it != layoutCache_.end())
        return it->second.layout;
    auto layout =
        std::make_shared<SecureLayout>(transformer_.transform(*def));
    layoutCache_.emplace(def.get(), CachedLayout{def, layout});
    return layout;
}

std::uint64_t
KernelContext::loadField(Addr elem_base, const SecureLayout &layout,
                         std::size_t field_idx, bool depends_on_prev)
{
    const FieldLayout &f = layout.fields.at(field_idx);
    const auto size =
        static_cast<unsigned>(std::min<std::size_t>(f.size, 8));
    return machine_.load(elem_base + f.offset, size, depends_on_prev);
}

void
KernelContext::storeField(Addr elem_base, const SecureLayout &layout,
                          std::size_t field_idx, std::uint64_t value)
{
    const FieldLayout &f = layout.fields.at(field_idx);
    const auto size =
        static_cast<unsigned>(std::min<std::size_t>(f.size, 8));
    machine_.store(elem_base + f.offset, size, value);
}

} // namespace califorms
