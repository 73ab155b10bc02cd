/**
 * @file main.cc
 * The measuring half of the benchmark: replays one workload for a fixed
 * host-time budget and prints one JSON line with every metric it took,
 * the oracle's verdict and the exact-counter fingerprint. run.py builds
 * this program, runs it, compares the fingerprint with the committed
 * baseline and prints the benchmark's result.
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *             --scratch DIR [--fingerprint]
 *
 * A run repeats episodes (set-up, untimed warm-up, timed steady-state
 * region) until S seconds have passed. The timed regions are measured in
 * chunks; ops_per_s is the rate of the fastest chunk and setup_s the
 * fastest set-up. Host interference on a shared machine only ever slows
 * a chunk, in bursts of seconds, so the best of many short measurements
 * tracks the simulator's own speed where a median tracks the neighbours.
 * With --trace 1 the run spends half of S on these untraced episodes
 * and half on traced ones, whose spans give the per-layer metrics. Then an untimed verification pass
 * replays the same stream against the flat oracle. --fingerprint runs
 * one untimed episode and prints only its fingerprint.
 */

#include <sys/resource.h>

#include <algorithm>
#include <iomanip>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/cform.hh"
#include "core/sentinel.hh"
#include "oracle.hh"
#include "spans.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string scratch = ".";
    bool fingerprintOnly = false;
};

/** Every replay of the run must leave the same fingerprint. */
struct Replays
{
    std::optional<Fingerprint> fp;
    bool consistent = true;

    void
    note(const Fingerprint &f)
    {
        if (!fp)
            fp = f;
        else if (*fp != f)
            consistent = false;
    }
};

/** Aggregated spans and counts of every traced episode. */
struct TraceTotals
{
    Span source;
    Span kind[4]; //!< indexed by TraceOp::Kind
    Span loadHit, loadMiss, storeHit, storeMiss;
    Span cformApply, spill, fill;
    std::uint64_t recordedNs = 0; //!< traced region, shadow work excluded
    std::uint64_t genNs = 0, genOps = 0;
    std::uint64_t traceBytes = 0, tracedOps = 0;
    std::vector<double> rates; //!< traced chunk rates, tracing included
};

double
seconds(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** The @p q quantile of @p v, interpolating between neighbours. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double
share(std::uint64_t part, std::uint64_t whole)
{
    return whole ? static_cast<double>(part) / static_cast<double>(whole)
                 : 0.0;
}

/** Rate samples per episode's timed region. */
constexpr unsigned kTimedChunks = 32;
/** Repetitions per shadow measurement: single calls of the codec and
 *  CFORM semantics are too close to the clock's own cost to time. */
constexpr unsigned kShadowReps = 32;
/** Every this many CFORMs of the traced region gets a shadow apply. */
constexpr std::uint64_t kShadowEvery = 8;
/** At most this many califormed lines feed the sentinel shadow. */
constexpr std::size_t kShadowLines = 1024;

BitVectorLine
peekLine(const Machine &machine, Addr line_addr)
{
    BitVectorLine line;
    const auto bytes = machine.peekBytes(line_addr, lineBytes);
    std::copy(bytes.begin(), bytes.end(), line.data.bytes.begin());
    line.mask = machine.securityMask(line_addr);
    return line;
}

/**
 * The traced run's observer. Spans: the op source's next(), each
 * machine call by op kind (loads and stores split by whether the L1
 * missed, from the core's l1.misses delta), and shadow calls of the
 * CFORM semantics and sentinel codec on copies of lines the run made.
 * Spans start after the warm-up prefix.
 */
class Tracer
{
  public:
    Tracer(Machine &machine, std::uint64_t warmup, std::uint64_t chunk,
           TraceTotals &totals)
        : machine_(machine), warmup_(warmup), chunk_(chunk),
          totals_(totals), prevMisses_(machine.coreCount(), 0)
    {
        if (warmup_ == 0)
            start();
    }

    void
    beforeNext()
    {
        if (on_)
            t0_ = Clock::now();
    }

    void
    beforeOp(unsigned, const TraceOp &op)
    {
        const bool cform = op.kind == TraceOp::Kind::Cform;
        if (cform && (op.cform.setBits & op.cform.mask) &&
            califormed_.size() < kShadowLines)
            califormed_.insert(op.cform.lineAddr);
        if (!on_)
            return;
        t1_ = Clock::now();
        totals_.source.add(nanosBetween(t0_, t1_));
        if (cform && cformsSeen_++ % kShadowEvery == 0) {
            shadowCform(op.cform);
            const auto now = Clock::now();
            shadowNs_ += nanosBetween(t1_, now);
            t1_ = now;
        }
    }

    void
    afterOp(unsigned core, const TraceOp &op, std::uint64_t)
    {
        if (!on_) {
            if (++warmSeen_ == warmup_)
                start();
            return;
        }
        const auto t2 = Clock::now();
        const std::uint64_t ns = nanosBetween(t1_, t2);
        totals_.kind[static_cast<unsigned>(op.kind)].add(ns);
        const std::uint64_t misses = machine_.coreMemStats(core).l1.misses;
        const bool miss = misses != prevMisses_[core];
        prevMisses_[core] = misses;
        if (op.kind == TraceOp::Kind::Load)
            (miss ? totals_.loadMiss : totals_.loadHit).add(ns);
        else if (op.kind == TraceOp::Kind::Store)
            (miss ? totals_.storeMiss : totals_.storeHit).add(ns);
        if (++ops_ % chunk_ == 0) {
            totals_.rates.push_back(chunk_ / seconds(chunkStart_, t2));
            chunkStart_ = t2;
        }
    }

    /** Close the traced region and run the sentinel shadow on the
     *  califormed lines the run produced. */
    void
    finish()
    {
        totals_.recordedNs += nanosBetween(start_, Clock::now()) - shadowNs_;
        totals_.tracedOps += ops_;
        for (const Addr la : califormed_) {
            const BitVectorLine line = peekLine(machine_, la);
            if (!line.califormed())
                continue;
            SentinelLine spilled;
            auto t = Clock::now();
            for (unsigned i = 0; i < kShadowReps; ++i)
                spilled = spillLine(line);
            auto u = Clock::now();
            totals_.spill.add(nanosBetween(t, u) / kShadowReps);
            BitVectorLine filled;
            for (unsigned i = 0; i < kShadowReps; ++i)
                filled = fillLine(spilled);
            t = Clock::now();
            totals_.fill.add(nanosBetween(u, t) / kShadowReps);
        }
    }

    std::uint64_t opsSeen() const { return warmSeen_ + ops_; }

  private:
    void
    start()
    {
        on_ = true;
        for (unsigned c = 0; c < machine_.coreCount(); ++c)
            prevMisses_[c] = machine_.coreMemStats(c).l1.misses;
        start_ = chunkStart_ = Clock::now();
    }

    void
    shadowCform(const CformOp &op)
    {
        const BitVectorLine before = peekLine(machine_, op.lineAddr);
        const auto t = Clock::now();
        for (unsigned i = 0; i < kShadowReps; ++i) {
            BitVectorLine copy = before;
            applyCform(copy, op);
        }
        totals_.cformApply.add(nanosBetween(t, Clock::now()) /
                               kShadowReps);
    }

    Machine &machine_;
    std::uint64_t warmup_, chunk_;
    TraceTotals &totals_;
    std::vector<std::uint64_t> prevMisses_;
    std::unordered_set<Addr> califormed_;
    bool on_ = false;
    std::uint64_t warmSeen_ = 0, ops_ = 0, cformsSeen_ = 0;
    std::uint64_t shadowNs_ = 0;
    Clock::time_point start_, chunkStart_, t0_, t1_;
};

void
untracedEpisode(const WorkloadSpec &spec, const Args &args, Replays &replays,
                std::vector<double> &rates, std::vector<double> &setups)
{
    // Set-up runs from the start of the episode to its first timed op:
    // machine and source construction (with chase's recording) and the
    // warm-up prefix.
    const auto t0 = Clock::now();
    Episode ep(spec, args.seed, spec.totalOps(), args.scratch);
    std::uint64_t ops = 0;
    std::uint64_t checksum =
        replayUpTo(ep.machine(), ep.streams(), spec.warmupOps, &ops);
    setups.push_back(seconds(t0, Clock::now()));
    for (unsigned i = 0; i < kTimedChunks; ++i) {
        std::uint64_t n = 0;
        const auto t1 = Clock::now();
        checksum ^= replayUpTo(ep.machine(), ep.streams(),
                               spec.timedOps / kTimedChunks, &n);
        rates.push_back(n / seconds(t1, Clock::now()));
        ops += n;
    }
    replays.note(fingerprint(ep.machine(), ops, checksum));
}

void
tracedEpisode(const WorkloadSpec &spec, const Args &args, Replays &replays,
              TraceTotals &totals)
{
    std::uint64_t gen_ns = 0;
    Episode ep(spec, args.seed, spec.totalOps(), args.scratch,
               spec.recorded ? &gen_ns : nullptr);
    if (spec.recorded) {
        totals.genNs += gen_ns;
        totals.genOps += spec.totalOps();
        totals.traceBytes = ep.traceBytes();
    }
    Tracer tracer(ep.machine(), spec.warmupOps,
                  spec.timedOps / kTimedChunks, totals);
    const std::uint64_t checksum =
        replayObserved(ep.machine(), ep.streams(), tracer);
    tracer.finish();
    replays.note(fingerprint(ep.machine(), tracer.opsSeen(), checksum));
}

/** Run @p episode until @p budget seconds have passed (at least three
 *  times). */
template <typename F>
void
repeatFor(double budget, F &&episode)
{
    const auto start = Clock::now();
    unsigned done = 0;
    do {
        episode();
        ++done;
    } while (done < 3 || seconds(start, Clock::now()) < budget);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

void
addSimMetrics(std::map<std::string, double> &m, const Fingerprint &fp)
{
    const auto get = [&fp](const char *name) {
        return static_cast<double>(fp.get(name));
    };
    const auto rate = [](double num, double den) {
        return den ? num / den : 0.0;
    };
    const auto missRate = [&](const std::string &level) {
        const double misses = get((level + "_misses").c_str());
        return rate(misses, misses + get((level + "_hits").c_str()));
    };
    const double kops = get("ops") / 1000.0;
    m["sim.cycles"] = get("cycles");
    m["sim.instructions"] = get("instructions");
    m["sim.ipc"] = rate(get("instructions"), get("cycles"));
    m["sim.cform_per_kop"] = rate(get("cform_ops"), kops);
    m["sim.faults"] = get("security_faults");
    m["sim.fills_per_kop"] = rate(get("fills"), kops);
    m["sim.spills_per_kop"] = rate(get("spills"), kops);
    m["sim.l1d_miss_rate"] = missRate("l1");
    m["sim.l2_miss_rate"] = missRate("l2");
    m["sim.l3_miss_rate"] = missRate("l3");
    m["sim.wbq_hits"] = get("wbq_hits");
    m["sim.dram_per_kop"] = rate(get("dram_accesses"), kops);
    m["sim.dirty_recalls"] = get("dirty_recalls");
    m["sim.conv_under_inval"] = get("conv_under_inval");
    m["sim.invalidations"] = get("invalidations");
    m["sim.mshr_allocations"] = get("mshr_allocations");
    m["sim.mshr_stall_cycles"] = get("mshr_stall_cycles");
    m["sim.dram_row_hit_rate"] =
        rate(get("dram_row_hits"), get("dram_row_hits") +
                                       get("dram_row_misses") +
                                       get("dram_row_conflicts"));
    m["sim.dram_bank_conflict_cycles"] = get("dram_bank_conflict_cycles");
}

void
addTraceMetrics(std::map<std::string, double> &m, const WorkloadSpec &spec,
                const TraceTotals &t, double untraced_rate)
{
    const double source_ns = share(t.source.totalNs(), t.source.calls());
    m["workload.gen_ns_per_op"] =
        spec.recorded ? share(t.genNs, t.genOps) : source_ns;
    m["trace.decode_ns_per_op"] = spec.recorded ? source_ns : 0.0;
    m["trace.bytes_per_op"] =
        spec.recorded ? share(t.traceBytes, spec.totalOps()) : 0.0;
    static const char *kinds[4] = {"load", "store", "cform", "compute"};
    double machine_share = 0;
    for (unsigned k = 0; k < 4; ++k) {
        const std::string base = std::string("machine.") + kinds[k];
        m[base + "_ns_p50"] = t.kind[k].quantile(0.50);
        m[base + "_ns_p99"] = t.kind[k].quantile(0.99);
        const double s = share(t.kind[k].totalNs(), t.recordedNs);
        m[std::string("machine.share.") + kinds[k]] = s;
        machine_share += s;
    }
    m["machine.load_l1hit_ns_p50"] = t.loadHit.quantile(0.50);
    m["machine.load_l1miss_ns_p50"] = t.loadMiss.quantile(0.50);
    m["machine.store_l1hit_ns_p50"] = t.storeHit.quantile(0.50);
    m["machine.store_l1miss_ns_p50"] = t.storeMiss.quantile(0.50);
    m["source.share"] = share(t.source.totalNs(), t.recordedNs);
    m["loop.share"] = 1.0 - m["source.share"] - machine_share;
    m["cform.apply_ns_p50"] = t.cformApply.quantile(0.50);
    m["sentinel.spill_ns_p50"] = t.spill.quantile(0.50);
    m["sentinel.fill_ns_p50"] = t.fill.quantile(0.50);
    m["trace.overhead"] =
        untraced_rate ? quantile(t.rates, 1.0) / untraced_rate : 0.0;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

/** Write name/value pairs as one JSON object. */
template <typename Pairs>
void
writeObject(std::ostream &os, const Pairs &pairs)
{
    os << "{";
    const char *sep = "";
    for (const auto &[name, value] : pairs) {
        os << sep << jsonString(name) << ": " << value;
        sep = ", ";
    }
    os << "}";
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--fingerprint") {
            a.fingerprintOnly = true;
            continue;
        }
        if (i + 1 >= argc)
            throw std::invalid_argument("missing value for " + flag);
        const std::string value = argv[++i];
        std::size_t used = 0;
        if (flag == "--workload") {
            a.workload = value;
        } else if (flag == "--scratch") {
            a.scratch = value;
        } else if (flag == "--seed") {
            a.seed = std::stoull(value, &used);
        } else if (flag == "--seconds") {
            a.seconds = std::stod(value, &used);
            if (!(a.seconds >= 0))
                throw std::invalid_argument("--seconds must be >= 0");
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                throw std::invalid_argument("--trace takes 0 or 1");
            a.trace = value == "1";
        } else {
            throw std::invalid_argument("unknown flag " + flag);
        }
        if (used && used != value.size())
            throw std::invalid_argument("bad number for " + flag);
    }
    if (a.workload.empty())
        throw std::invalid_argument("--workload is required");
    return a;
}

int
run(const Args &args)
{
    const WorkloadSpec &spec = findWorkload(args.workload);
    Replays replays;
    std::vector<double> rates, setups;
    if (args.fingerprintOnly) {
        untracedEpisode(spec, args, replays, rates, setups);
        writeObject(std::cout, replays.fp->counts);
        std::cout << "\n";
        return 0;
    }

    // A traced run splits its time between an untraced and a traced
    // series, so trace.overhead compares two measurements of one run.
    const double budget = args.trace ? args.seconds / 2 : args.seconds;
    repeatFor(budget, [&] {
        untracedEpisode(spec, args, replays, rates, setups);
    });
    TraceTotals totals;
    if (args.trace)
        repeatFor(budget,
                  [&] { tracedEpisode(spec, args, replays, totals); });
    // Sampled before the oracle pass, whose flat map is the benchmark's
    // memory, not the simulator's.
    const double rss = peakRssMb();

    Episode ep(spec, args.seed, spec.totalOps(), args.scratch);
    OracleCheck check(ep.machine());
    const std::uint64_t checksum =
        replayObserved(ep.machine(), ep.streams(), check);
    replays.note(fingerprint(ep.machine(), check.attempted(), checksum));
    const auto violations = propertyViolations(spec, *replays.fp);

    std::map<std::string, double> metrics;
    metrics["ops_per_s"] = quantile(rates, 1.0);
    metrics["ops_per_s_median"] = quantile(rates, 0.5);
    metrics["setup_s"] = quantile(setups, 0.0);
    metrics["setup_s_median"] = quantile(setups, 0.5);
    metrics["peak_rss_mb"] = rss;
    metrics["failed_op_share"] = share(check.failed(), check.attempted());
    addSimMetrics(metrics, *replays.fp);
    if (args.trace)
        addTraceMetrics(metrics, spec, totals, metrics["ops_per_s"]);

    std::map<std::string, std::uint64_t> samples = {
        {"episodes", setups.size()},
        {"chunks", rates.size()},
        {"traced_chunks", totals.rates.size()},
        {"traced_ops", totals.tracedOps},
        {"machine.load", totals.kind[0].calls()},
        {"machine.store", totals.kind[1].calls()},
        {"machine.cform", totals.kind[2].calls()},
        {"machine.compute", totals.kind[3].calls()},
        {"cform.apply", totals.cformApply.calls()},
        {"sentinel.lines", totals.spill.calls()},
    };

    std::ostringstream os;
    os << std::setprecision(17);
    os << "{\"workload\": " << jsonString(spec.name)
       << ", \"seed\": " << args.seed << ", \"correct\": "
       << (check.failed() == 0 && violations.empty() ? "true" : "false")
       << ", \"consistent\": " << (replays.consistent ? "true" : "false")
       << ", \"attempted\": " << check.attempted()
       << ", \"failed\": " << check.failed() << ", \"violations\": [";
    for (std::size_t i = 0; i < violations.size(); ++i)
        os << (i ? ", " : "") << jsonString(violations[i]);
    os << "], \"samples\": ";
    writeObject(os, samples);
    os << ", \"metrics\": ";
    writeObject(os, metrics);
    os << ", \"fingerprint\": ";
    writeObject(os, replays.fp->counts);
    os << "}\n";
    std::cout << os.str();
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(parseArgs(argc, argv));
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
