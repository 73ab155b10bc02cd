#include "exp/report.hh"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "config/config.hh"
#include "layout/policy.hh"
#include "sim/stats_dump.hh"
#include "util/jsonout.hh"

namespace califorms::exp
{

namespace
{

std::string
u64(std::uint64_t v)
{
    return std::to_string(v);
}

/** RFC 4180 quoting for fields that may carry delimiters. */
std::string
csvField(const std::string &s)
{
    if (s.find_first_of(",\"\n\r") == std::string::npos)
        return s;
    std::string out = "\"";
    for (const char c : s) {
        out += c;
        if (c == '"')
            out += '"';
    }
    out += '"';
    return out;
}

/**
 * The resolved non-default configuration of a registry-axis variant as
 * a JSON object (typed values, registry key order). Only variants with
 * explicit key=value sets have one — every other variant serializes
 * exactly as it did before the config registry existed.
 */
std::string
variantConfigJson(const Variant &variant)
{
    config::Config cfg;
    for (const auto &[key, value] : variant.sets)
        cfg.set(key, value); // validated at withSet/expand time
    std::string out = "{";
    bool first = true;
    for (const auto &[key, text] : cfg.entries()) {
        const config::ParamSpec *spec =
            config::ParamRegistry::instance().find(key);
        out += first ? "" : ", ";
        out += jsonString(key) + ": ";
        out += spec->type == config::ParamType::Enum
                   ? jsonString(text)
                   : text;
        first = false;
    }
    out += "}";
    return out;
}

void
runJson(std::ostringstream &os, const RunUnit &unit,
        const RunResult &r, const CampaignSpec &spec)
{
    const Variant &variant = spec.variants[unit.variantIndex];
    os << "    {\"benchmark\": " << jsonString(r.benchmark)
       << ", \"variant\": " << jsonString(variant.label)
       << ", \"variantIndex\": " << unit.variantIndex
       << ", \"layoutSeed\": " << u64(unit.config.layoutSeed)
       << ", \"levels\": " << unit.config.machine.mem.levels
       << ",\n     \"cycles\": " << u64(r.cycles)
       << ", \"instructions\": " << u64(r.instructions)
       << ", \"ipc\": "
       << jsonNumber(r.cycles ? static_cast<double>(r.instructions) /
                                    static_cast<double>(r.cycles)
                              : 0.0);
    for (const StatBlock block : kStatBlocks) {
        const std::string json =
            statBlockJson(r.mem, unit.config.machine, block);
        if (!json.empty())
            os << ",\n     " << json;
        // Multi-core runs follow the coherence block with a per-core
        // private breakdown (r.cores is empty on single-core runs).
        if (block != StatBlock::Coherence || r.cores.empty())
            continue;
        os << ",\n     \"cores\": [";
        for (std::size_t c = 0; c < r.cores.size(); ++c) {
            const CoreRunStats &core = r.cores[c];
            os << (c ? ",\n               " : "") << "{\"core\": " << c
               << ", \"cycles\": " << u64(core.cycles)
               << ", \"instructions\": " << u64(core.instructions)
               << ", \"l1dHits\": " << u64(core.mem.l1.hits)
               << ", \"l1dMisses\": " << u64(core.mem.l1.misses)
               << ", \"spills\": " << u64(core.mem.spills)
               << ", \"fills\": " << u64(core.mem.fills)
               << ", \"cformOps\": " << u64(core.mem.cformOps)
               << ", \"securityFaults\": "
               << u64(core.mem.securityFaults) << "}";
        }
        os << "]";
    }
    // Attack replay runs carry the scenario rollup; every other
    // benchmark leaves trials at 0 and omits the block under the same
    // byte-identity convention.
    if (r.security.trials > 0) {
        os << ",\n     \"security\": {\"scenario\": "
           << jsonString(r.security.scenario)
           << ", \"trials\": " << u64(r.security.trials)
           << ", \"successes\": " << u64(r.security.successes)
           << ", \"successProbability\": "
           << jsonNumber(static_cast<double>(r.security.successes) /
                         static_cast<double>(r.security.trials))
           << ", \"detections\": " << u64(r.security.detections)
           << ", \"probes\": " << u64(r.security.probes)
           << ", \"bytesTouched\": " << u64(r.security.bytesTouched)
           << ", \"crashes\": " << u64(r.security.crashes)
           << ", \"detectionLatencyCycles\": "
           << u64(r.security.detectionLatencyCycles) << "}";
    }
    os << ",\n     \"heap\": {\"allocs\": " << u64(r.heap.allocs)
       << ", \"frees\": " << u64(r.heap.frees)
       << ", \"reuses\": " << u64(r.heap.reuses)
       << ", \"cformsIssued\": " << u64(r.heap.cformsIssued)
       << ", \"bytesAllocated\": " << u64(r.heap.bytesAllocated)
       << ", \"peakHeapBytes\": " << u64(r.heap.peakHeapBytes)
       << "},\n     \"exceptions\": {\"delivered\": "
       << u64(r.exceptionsDelivered)
       << ", \"suppressed\": " << u64(r.exceptionsSuppressed) << "}}";
}

} // namespace

std::string
campaignJson(const CampaignResult &result, const ReportTiming &timing)
{
    const CampaignSpec &spec = result.spec;
    std::ostringstream os;
    os << "{\n";
    os << "  \"schema\": \"califorms-campaign/v2\",\n";
    os << "  \"campaign\": " << jsonString(spec.name) << ",\n";
    os << "  \"scale\": " << jsonNumber(spec.base.scale) << ",\n";
    const MemSysParams &mem = spec.base.machine.mem;
    os << "  \"hierarchy\": {\"levels\": " << mem.levels
       << ", \"l1KB\": " << mem.l1Size / 1024
       << ", \"l2KB\": " << mem.l2Size / 1024
       << ", \"llcKB\": " << mem.l3Size / 1024
       << ",\n                \"l1Latency\": " << mem.l1Latency
       << ", \"l2Latency\": " << mem.l2Latency
       << ", \"llcLatency\": " << mem.l3Latency
       << ", \"dramLatency\": " << mem.dramLatency
       << ",\n                \"fillConvLatency\": "
       << mem.fillConvLatency
       << ", \"spillConvLatency\": " << mem.spillConvLatency
       << ", \"wbQueueEntries\": " << mem.wbQueueEntries << "},\n";
    os << "  \"layoutSeeds\": [";
    for (std::size_t i = 0; i < spec.layoutSeeds.size(); ++i)
        os << (i ? ", " : "") << u64(spec.layoutSeeds[i]);
    os << "],\n";
    os << "  \"benchmarks\": [";
    for (std::size_t i = 0; i < spec.suite.size(); ++i)
        os << (i ? ", " : "") << jsonString(spec.suite[i]->name);
    os << "],\n";
    os << "  \"variants\": [\n";
    for (std::size_t i = 0; i < spec.variants.size(); ++i) {
        const Variant &v = spec.variants[i];
        os << "    {\"label\": " << jsonString(v.label)
           << ", \"policy\": " << jsonString(policyName(v.policy))
           << ", \"maxSpan\": " << v.maxSpan
           << ", \"fixedSpan\": " << v.fixedSpan << ", \"cform\": "
           << (v.cform ? (*v.cform ? "true" : "false") : "null")
           << ", \"randomized\": " << (v.randomized ? "true" : "false")
           << ", \"levels\": ";
        if (v.levels)
            os << v.levels;
        else
            os << "null";
        os << ", \"l2KB\": ";
        if (v.l2Kb)
            os << *v.l2Kb;
        else
            os << "null";
        os << ", \"llcKB\": ";
        if (v.llcKb)
            os << *v.llcKb;
        else
            os << "null";
        if (!v.sets.empty())
            os << ", \"config\": " << variantConfigJson(v);
        os << "}" << (i + 1 < spec.variants.size() ? "," : "") << "\n";
    }
    os << "  ],\n";
    if (timing.include) {
        os << "  \"timing\": {\"jobs\": " << timing.jobs
           << ", \"elapsedMs\": " << jsonNumber(timing.elapsedMs)
           << "},\n";
    }
    os << "  \"runs\": [\n";
    for (std::size_t i = 0; i < result.units.size(); ++i) {
        runJson(os, result.units[i], result.results[i], spec);
        os << (i + 1 < result.units.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    return os.str();
}

std::string
campaignCsv(const CampaignResult &result)
{
    std::ostringstream os;
    // v2 columns are appended after the v1 set so positional consumers
    // of the old header keep working.
    os << "benchmark,variant,policy,maxSpan,fixedSpan,layoutSeed,cycles,"
          "instructions,l1dMisses,l2Misses,l3Misses,dramAccesses,"
          "spills,fills,cformOps,securityFaults,heapAllocs,"
          "heapCformsIssued,peakHeapBytes,exceptionsDelivered,"
          "exceptionsSuppressed,levels,fillConvCycles,spillConvCycles,"
          "wbqHits\n";
    for (std::size_t i = 0; i < result.units.size(); ++i) {
        const RunUnit &unit = result.units[i];
        const RunResult &r = result.results[i];
        const Variant &v = result.spec.variants[unit.variantIndex];
        os << csvField(r.benchmark) << ',' << csvField(v.label) << ','
           << policyName(v.policy) << ',' << v.maxSpan << ','
           << v.fixedSpan << ','
           << u64(unit.config.layoutSeed) << ',' << u64(r.cycles) << ','
           << u64(r.instructions) << ',' << u64(r.mem.l1.misses) << ','
           << u64(r.mem.l2.misses) << ',' << u64(r.mem.l3.misses) << ','
           << u64(r.mem.dramAccesses) << ',' << u64(r.mem.spills) << ','
           << u64(r.mem.fills) << ',' << u64(r.mem.cformOps) << ','
           << u64(r.mem.securityFaults) << ',' << u64(r.heap.allocs)
           << ',' << u64(r.heap.cformsIssued) << ','
           << u64(r.heap.peakHeapBytes) << ','
           << u64(r.exceptionsDelivered) << ','
           << u64(r.exceptionsSuppressed) << ','
           << unit.config.machine.mem.levels << ','
           << u64(r.mem.fillConvCycles) << ','
           << u64(r.mem.spillConvCycles) << ','
           << u64(r.mem.wbHits) << '\n';
    }
    return os.str();
}

void
writeReportFile(const std::string &path, const std::string &content)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        throw std::runtime_error("cannot open report file " + path);
    out << content;
    if (!out.flush())
        throw std::runtime_error("cannot write report file " + path);
}

CampaignResult
runCampaignWithReports(const CampaignSpec &spec, unsigned jobs,
                       const std::string &json_path,
                       const std::string &csv_path)
{
    // Fail on unwritable destinations up front — but probe in append
    // mode so a failed campaign does not truncate a previous good
    // report at the same path.
    for (const std::string &path : {json_path, csv_path})
        if (!path.empty()) {
            std::ofstream probe(path,
                                std::ios::binary | std::ios::app);
            if (!probe)
                throw std::runtime_error("cannot open report file " +
                                         path);
        }
    const auto t0 = std::chrono::steady_clock::now();
    CampaignResult result = runCampaign(spec, jobs);
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    writeReports(result, {true, jobs, elapsed_ms}, json_path,
                 csv_path);
    return result;
}

void
writeReports(const CampaignResult &result, const ReportTiming &timing,
             const std::string &json_path, const std::string &csv_path)
{
    if (!json_path.empty()) {
        writeReportFile(json_path, campaignJson(result, timing));
        std::fprintf(stderr, "json report: %s\n", json_path.c_str());
    }
    if (!csv_path.empty()) {
        writeReportFile(csv_path, campaignCsv(result));
        std::fprintf(stderr, "csv report: %s\n", csv_path.c_str());
    }
}

} // namespace califorms::exp
