/**
 * @file machine.hh
 * The simulated machine façade: N timing cores, each with a private L1
 * side, over one shared L2/LLC/DRAM hierarchy (optionally coherent),
 * plus the privileged exception unit. Workload kernels, the allocator,
 * the examples, and the benchmark harnesses all talk to this class.
 *
 * The historical single-core API (load/store/cform/compute) targets
 * core 0 and is bit-for-bit identical to the pre-multi-core machine
 * when core.count == 1. Per-core traffic goes through the *On(core,
 * ...) variants; the one replay loop that drives them from per-core
 * trace streams, round-robin, lives in sim/trace.hh (replayStreams).
 */

#ifndef CALIFORMS_SIM_MACHINE_HH
#define CALIFORMS_SIM_MACHINE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "core/cform.hh"
#include "os/exception_unit.hh"
#include "sim/core_model.hh"
#include "sim/memsys.hh"
#include "sim/params.hh"
#include "sim/shared_mem.hh"

namespace califorms
{

class Machine
{
  public:
    explicit Machine(const MachineParams &params = MachineParams{},
                     ExceptionUnit::Policy policy =
                         ExceptionUnit::Policy::Record);

    // Timed execution interface (core 0; the historical single-core
    // API) ----------------------------------------------------------
    /** Load @p size bytes; returns the value (blacklisted bytes read 0).
     *  @p depends_on_prev marks pointer-chase loads. */
    std::uint64_t load(Addr addr, unsigned size,
                       bool depends_on_prev = false)
    {
        return loadOn(0, addr, size, depends_on_prev);
    }

    /** Store the low @p size bytes of @p value. */
    void store(Addr addr, unsigned size, std::uint64_t value)
    {
        storeOn(0, addr, size, value);
    }

    /** Execute a CFORM instruction. */
    void cform(const CformOp &op) { cformOn(0, op); }

    /** Account @p ops of pure compute work. */
    void compute(std::uint32_t ops) { computeOn(0, ops); }

    // Per-core timed execution interface -----------------------------
    std::uint64_t loadOn(unsigned core, Addr addr, unsigned size,
                         bool depends_on_prev = false);
    void storeOn(unsigned core, Addr addr, unsigned size,
                 std::uint64_t value);
    void cformOn(unsigned core, const CformOp &op);
    void computeOn(unsigned core, std::uint32_t ops);

    /** Number of cores (MachineParams::core.count). */
    unsigned coreCount() const
    {
        return static_cast<unsigned>(mems_.size());
    }

    // Functional interface (no timing, no checks) --------------------
    // The coherent machine-level view, one path for any core count: a
    // line is read from the first private side holding it (in core
    // order), else from the shared side. A poke writes every private
    // copy and the shared side, leaving dirty bits as they are, so no
    // copy goes stale; like a whitelisted store, it leaves a security
    // byte zero. Never raises exceptions or touches statistics.
    std::uint8_t peekByte(Addr addr) const;
    void pokeByte(Addr addr, std::uint8_t v);
    std::vector<std::uint8_t> peekBytes(Addr addr, std::size_t n) const;
    SecurityMask securityMask(Addr addr) const;

    // Introspection ---------------------------------------------------
    /**
     * Total machine time: the slowest core's OoO critical path, bounded
     * below by the DRAM bandwidth roofline (lines moved x cycles per
     * line — DRAM is shared, so all cores' traffic prices it).
     * Streaming workloads whose latency the windows hide completely are
     * still limited by how fast lines cross the memory bus.
     */
    Cycles cycles() const;
    /** One core's OoO critical path (no roofline). */
    Cycles coreCycles(unsigned core) const;
    std::uint64_t instructions() const;
    std::uint64_t coreInstructions(unsigned core) const;

    /** Whole-machine counters: per-core private sides summed, shared
     *  side added once. */
    MemSysStats memStats() const;
    /** One core's private-side counters (L1, conversions, write-back
     *  queue, faults; shared slots zero). */
    MemSysStats coreMemStats(unsigned core) const;

    ExceptionUnit &exceptions() { return exceptions_; }
    const ExceptionUnit &exceptions() const { return exceptions_; }
    MemorySystem &memorySystem(unsigned core = 0)
    {
        return *mems_.at(core);
    }
    /** The shared side, for tests that read its levels and store. */
    const SharedMemory &sharedMemory() const { return shared_; }
    const MachineParams &params() const { return params_; }

    /** Write everything dirty back to DRAM and drop all cache contents
     *  (every private side first, then the shared levels once). */
    void flushAll();

    /** Reset cycle and statistics counters (state is preserved). */
    void clearStats();

  private:
    /** A line's current content: the first private holder's copy in
     *  core order, else the shared side's. */
    BitVectorLine functionalLine(Addr line_addr) const;

    MachineParams params_;
    ExceptionUnit exceptions_;
    SharedMemory shared_; //!< must outlive the attached private sides
    std::vector<std::unique_ptr<MemorySystem>> mems_;
    std::vector<CoreModel> cores_;
};

} // namespace califorms

#endif // CALIFORMS_SIM_MACHINE_HH
