#include "workloads.hh"

#include <filesystem>
#include <stdexcept>
#include <unistd.h>

#include "spans.hh"
#include "workload/synth.hh"

namespace perfbench
{

namespace
{

/** The timed coherent machine `guarded` runs on. */
MachineParams
guardedMachine()
{
    MachineParams m;
    m.core.count = 2;
    m.mem.coherence = CoherenceKind::Msi;
    m.mem.mshrEntries = 8;
    m.mem.dramBanks = 8;
    m.mem.wbQueueEntries = 16;
    return m;
}

/** Yields at most a fixed number of ops of another reader. */
class Take final : public TraceReader
{
  public:
    Take(TraceReader &inner, std::uint64_t ops) : inner_(inner), left_(ops)
    {}

    bool
    next(TraceOp &op) override
    {
        if (left_ == 0 || !inner_.next(op))
            return false;
        --left_;
        return true;
    }

  private:
    TraceReader &inner_;
    std::uint64_t left_;
};

double
ratio(std::uint64_t num, std::uint64_t den)
{
    return den ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

} // namespace

const std::vector<WorkloadSpec> &
workloads()
{
    // Episode sizes keep one episode near a second of host time, so a
    // run holds many set-ups and each of the 32 timed chunks lasts
    // 10-30 ms.
    static const std::vector<WorkloadSpec> all = {
        {"churn", "stackchurn", MachineParams{}, false, 1'000'000,
         4'000'000},
        {"chase", "zipf", MachineParams{}, true, 1'000'000, 3'000'000},
        {"guarded", "mixed", guardedMachine(), false, 500'000,
         2'000'000},
    };
    return all;
}

const WorkloadSpec &
findWorkload(const std::string &name)
{
    for (const WorkloadSpec &spec : workloads())
        if (spec.name == name)
            return spec;
    throw std::invalid_argument("unknown workload: " + name);
}

Episode::Episode(const WorkloadSpec &spec, std::uint64_t seed,
                 std::uint64_t ops, const std::string &scratch_dir,
                 std::uint64_t *gen_ns)
    : machine_(spec.machine)
{
    SynthParams params;
    params.seed = seed;
    const unsigned cores = machine_.coreCount();
    if (spec.recorded) {
        if (cores != 1)
            throw std::invalid_argument("recorded workloads are 1-core");
        tempFile_.path = scratch_dir + "/" + spec.name + "-" +
                         std::to_string(::getpid()) + ".trc";
        {
            std::ofstream out(tempFile_.path,
                              std::ios::binary | std::ios::trunc);
            if (!out)
                throw std::runtime_error("cannot create " +
                                         tempFile_.path);
            const auto gen =
                makeSynthGenerator(spec.generator, params, ops);
            const auto writer =
                makeTraceWriter(out, TraceFormat::Binary, ops);
            std::vector<TraceOp> batch(4096);
            for (;;) {
                const auto t0 = Clock::now();
                const std::size_t n = gen->fill(batch.data(), batch.size());
                if (gen_ns)
                    *gen_ns += nanosBetween(t0, Clock::now());
                if (n == 0)
                    break;
                for (std::size_t i = 0; i < n; ++i)
                    writer->put(batch[i]);
            }
            writer->finish();
        }
        traceBytes_ = std::filesystem::file_size(tempFile_.path);
        traceFile_.open(tempFile_.path, std::ios::binary);
        if (!traceFile_)
            throw std::runtime_error("cannot open " + tempFile_.path);
        owned_.push_back(openTraceReader(traceFile_));
    } else if (cores == 1) {
        owned_.push_back(makeSynthGenerator(spec.generator, params, ops));
    } else {
        owned_ = makeSynthStreams(spec.generator, params, ops / cores,
                                  cores);
    }
    for (const auto &s : owned_)
        raw_.push_back(s.get());
}

Episode::TempFile::~TempFile()
{
    if (!path.empty()) {
        std::error_code ignored;
        std::filesystem::remove(path, ignored);
    }
}

std::uint64_t
replayUpTo(Machine &machine, const std::vector<TraceReader *> &streams,
           std::uint64_t ops, std::uint64_t *replayed)
{
    std::vector<Take> takes;
    takes.reserve(streams.size());
    std::vector<TraceReader *> raw;
    for (TraceReader *s : streams) {
        takes.emplace_back(*s, ops / streams.size());
        raw.push_back(&takes.back());
    }
    if (raw.size() == 1)
        return runTrace(machine, *raw[0], replayed);
    return runTraceInterleaved(machine, raw, replayed);
}

std::uint64_t
Fingerprint::get(const std::string &name) const
{
    for (const auto &[key, value] : counts)
        if (key == name)
            return value;
    throw std::invalid_argument("no counter " + name);
}

Fingerprint
fingerprint(const Machine &machine, std::uint64_t ops,
            std::uint64_t checksum)
{
    const MemSysStats s = machine.memStats();
    return {{
        {"ops", ops},
        {"checksum", checksum},
        {"cycles", machine.cycles()},
        {"instructions", machine.instructions()},
        {"l1_hits", s.l1.hits},
        {"l1_misses", s.l1.misses},
        {"l2_hits", s.l2.hits},
        {"l2_misses", s.l2.misses},
        {"l3_hits", s.l3.hits},
        {"l3_misses", s.l3.misses},
        {"dram_accesses", s.dramAccesses},
        {"cform_ops", s.cformOps},
        {"security_faults", s.securityFaults},
        {"exceptions_delivered", machine.exceptions().deliveredCount()},
        {"fills", s.fills},
        {"spills", s.spills},
        {"wbq_hits", s.wbHits},
        {"invalidations", s.invalidationsSent},
        {"dirty_recalls", s.dirtyRecalls},
        {"conv_under_inval", s.convUnderInval},
        {"mshr_allocations", s.mshrAllocations},
        {"mshr_stall_cycles", s.mshrStallCycles},
        {"dram_row_hits", s.dramRowHits},
        {"dram_row_misses", s.dramRowMisses},
        {"dram_row_conflicts", s.dramRowConflicts},
        {"dram_bank_conflict_cycles", s.dramBankConflictCycles},
    }};
}

std::vector<std::string>
propertyViolations(const WorkloadSpec &spec, const Fingerprint &fp)
{
    std::vector<std::string> out;
    const auto missRate = [&fp](const std::string &level) {
        const std::uint64_t misses = fp.get(level + "_misses");
        return ratio(misses, misses + fp.get(level + "_hits"));
    };
    const auto need = [&out, &spec](bool ok, const std::string &what) {
        if (!ok)
            out.push_back(spec.name + ": " + what);
    };
    if (spec.name == "churn") {
        need(ratio(fp.get("cform_ops"), fp.get("ops")) >= 0.40,
             "want >= 40% of ops to be CFORMs");
        need(missRate("l1") < 0.01, "want an L1 miss rate below 1%");
    } else if (spec.name == "chase") {
        for (const char *zero : {"cform_ops", "fills", "spills"})
            need(fp.get(zero) == 0, std::string("want zero ") + zero);
        need(missRate("l3") > 0.50, "want an LLC miss rate above 50%");
    } else if (spec.name == "guarded") {
        for (const char *busy :
             {"fills", "spills", "dirty_recalls", "conv_under_inval",
              "mshr_allocations", "dram_row_conflicts"})
            need(fp.get(busy) > 0, std::string("want non-zero ") + busy);
    }
    return out;
}

} // namespace perfbench
