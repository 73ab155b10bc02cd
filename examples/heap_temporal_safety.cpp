/**
 * @file heap_temporal_safety.cpp
 * Temporal memory safety on the heap (Section 6.1): clean-before-use
 * califorming, zero-on-free, and quarantining. Demonstrates that a
 * dangling pointer keeps trapping long after the free, that freed data
 * cannot be leaked, and that recycled memory comes back clean.
 */

#include <cstdio>
#include <memory>

#include "alloc/heap.hh"
#include "layout/policy.hh"
#include "sim/machine.hh"

using namespace califorms;

namespace
{

std::shared_ptr<const SecureLayout>
sessionLayout()
{
    auto def = std::make_shared<StructDef>(
        "session", std::vector<Field>{
                       {"id", Type::longType()},
                       {"key", Type::array(Type::charType(), 32)},
                       {"next", Type::pointer("session")},
                   });
    LayoutTransformer t(InsertionPolicy::Intelligent, PolicyParams{},
                        99);
    return std::make_shared<SecureLayout>(t.transform(*def));
}

} // namespace

int
main()
{
    std::puts("== heap temporal safety ==\n");

    Machine machine;
    HeapParams params;
    params.quarantineFraction = 0.5; // hold half the heap in quarantine
    HeapAllocator heap(machine, params);
    const auto layout = sessionLayout();

    // A session object holding a "secret" key.
    const Addr session = heap.allocate(layout);
    const auto &key = layout->fields[1];
    for (unsigned i = 0; i < 32; ++i)
        machine.store(session + key.offset + i, 1, 0xA0 + i);
    std::printf("session at 0x%llx, key written\n",
                static_cast<unsigned long long>(session));

    // The program frees it...
    heap.free(session);
    std::printf("freed; quarantined bytes: %zu\n",
                heap.quarantinedBytes());

    // ...but a stale pointer dereferences it (use after free).
    const std::uint64_t leaked =
        machine.load(session + key.offset, 8);
    std::printf("\ndangling read of the key returned 0x%llx "
                "(expect 0: zero-on-free)\n",
                static_cast<unsigned long long>(leaked));
    std::printf("delivered exceptions: %zu (the rogue access was "
                "detected)\n",
                machine.exceptions().deliveredCount());

    // A dangling write is also caught and never commits.
    machine.store(session, 8, 0x4141414141414141ull);
    std::printf("dangling write: %zu total exceptions; byte at the "
                "target is 0x%02x (not 0x41)\n",
                machine.exceptions().deliveredCount(),
                machine.peekByte(session));

    // Allocation pressure eventually recycles the block — and it comes
    // back perfectly usable, with fresh security bytes.
    machine.exceptions().clearLogs();
    std::vector<Addr> churn;
    Addr recycled = 0;
    for (int i = 0; i < 64; ++i) {
        const Addr a = heap.allocate(layout);
        churn.push_back(a);
        if (a == session)
            recycled = a;
        heap.free(churn.back());
    }
    std::printf("\nafter churn: %llu reuses, recycled original block: %s\n",
                static_cast<unsigned long long>(heap.stats().reuses),
                recycled ? "yes" : "not yet (still quarantined)");

    const Addr fresh = heap.allocate(layout);
    machine.store(fresh, 8, 7);
    std::printf("fresh allocation at 0x%llx usable: load=%llu, "
                "exceptions=%zu (expect 0)\n",
                static_cast<unsigned long long>(fresh),
                static_cast<unsigned long long>(machine.load(fresh, 8)),
                machine.exceptions().deliveredCount());
    return 0;
}
