/**
 * @file workloads.hh
 * The benchmark's three workloads, one set-up of each (an Episode), the
 * replay loops that drive them, and the exact-counter fingerprint a
 * replay leaves behind.
 *
 * Every replay of a workload goes through the library's own entry
 * points (runTrace for one stream, runTraceInterleaved for several),
 * except the traced and oracle passes, which must see each op; they use
 * replayObserved, a copy of the same round-robin order whose results
 * are checked against the untraced replay's fingerprint.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/machine.hh"
#include "sim/trace.hh"

namespace perfbench
{

using namespace califorms;

struct WorkloadSpec
{
    std::string name;      //!< benchmark workload name
    std::string generator; //!< synthetic generator it replays
    MachineParams machine;
    /** Record the stream to a binary trace at set-up and replay the
     *  file (the recorded-trace path) instead of the generator. */
    bool recorded = false;
    /** Ops per episode (all cores together): an untimed warm-up
     *  prefix, then the timed steady-state region. */
    std::uint64_t warmupOps = 0;
    std::uint64_t timedOps = 0;

    std::uint64_t totalOps() const { return warmupOps + timedOps; }
};

const std::vector<WorkloadSpec> &workloads();

/** Throws std::invalid_argument on an unknown name. */
const WorkloadSpec &findWorkload(const std::string &name);

/**
 * One set-up of a workload: a cold machine and its op sources, seeded
 * from @p seed, producing @p ops operations in total. For a recorded
 * workload the stream is written to a binary trace under @p scratch_dir
 * and reopened; the file is removed with the episode.
 */
class Episode
{
  public:
    /** @p gen_ns, when non-null, accumulates the host time spent inside
     *  the generator while recording. */
    Episode(const WorkloadSpec &spec, std::uint64_t seed, std::uint64_t ops,
            const std::string &scratch_dir,
            std::uint64_t *gen_ns = nullptr);

    Episode(const Episode &) = delete;
    Episode &operator=(const Episode &) = delete;

    Machine &machine() { return machine_; }
    /** One source per core, in core order. */
    const std::vector<TraceReader *> &streams() const { return raw_; }
    /** Size of the recorded trace file (0 when not recorded). */
    std::uint64_t traceBytes() const { return traceBytes_; }

  private:
    /** Removes the recorded trace once the reader and stream are gone
     *  (members are destroyed in reverse order). */
    struct TempFile
    {
        std::string path;
        TempFile() = default;
        TempFile(const TempFile &) = delete;
        TempFile &operator=(const TempFile &) = delete;
        ~TempFile();
    };

    Machine machine_;
    TempFile tempFile_;
    std::ifstream traceFile_;
    std::vector<std::unique_ptr<TraceReader>> owned_;
    std::vector<TraceReader *> raw_;
    std::uint64_t traceBytes_ = 0;
};

/** Replay the next @p ops ops (split evenly over the streams) through
 *  the library's replay entry points; returns the load checksum and the
 *  number of ops replayed via @p replayed. */
std::uint64_t replayUpTo(Machine &machine,
                         const std::vector<TraceReader *> &streams,
                         std::uint64_t ops, std::uint64_t *replayed);

/** Issue one op on @p core; returns the loaded value (0 otherwise). */
inline std::uint64_t
execute(Machine &machine, unsigned core, const TraceOp &op)
{
    switch (op.kind) {
    case TraceOp::Kind::Load:
        return machine.loadOn(core, op.addr, op.size, op.dependsOnPrev);
    case TraceOp::Kind::Store:
        machine.storeOn(core, op.addr, op.size, op.value);
        break;
    case TraceOp::Kind::Cform:
        machine.cformOn(core, op.cform);
        break;
    case TraceOp::Kind::Compute:
        machine.computeOn(core, op.computeOps);
        break;
    }
    return 0;
}

/**
 * Replay every remaining op in runTraceInterleaved's order (one op per
 * live stream per round, in core order), calling obs.beforeNext()
 * before pulling an op, obs.beforeOp(core, op) before issuing it and
 * obs.afterOp(core, op, value) after. Returns the load checksum.
 */
template <typename Observer>
std::uint64_t
replayObserved(Machine &machine, const std::vector<TraceReader *> &streams,
               Observer &obs)
{
    std::uint64_t checksum = 0;
    std::vector<bool> alive(streams.size(), true);
    std::size_t live = streams.size();
    TraceOp op;
    while (live) {
        for (unsigned core = 0; core < streams.size(); ++core) {
            if (!alive[core])
                continue;
            obs.beforeNext();
            if (!streams[core]->next(op)) {
                alive[core] = false;
                --live;
                continue;
            }
            obs.beforeOp(core, op);
            const std::uint64_t value = execute(machine, core, op);
            obs.afterOp(core, op, value);
            if (op.kind == TraceOp::Kind::Load)
                checksum ^= value;
        }
    }
    return checksum;
}

/** The exact simulated outcome of one replay: every counter the sim.*
 *  metrics derive from, plus the load checksum. */
struct Fingerprint
{
    std::vector<std::pair<std::string, std::uint64_t>> counts;

    std::uint64_t get(const std::string &name) const;
    bool operator==(const Fingerprint &) const = default;
};

Fingerprint fingerprint(const Machine &machine, std::uint64_t ops,
                        std::uint64_t checksum);

/** The property each workload exists for, checked on its fingerprint;
 *  returns one message per violated property. */
std::vector<std::string> propertyViolations(const WorkloadSpec &spec,
                                            const Fingerprint &fp);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
