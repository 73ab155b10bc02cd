#include "exp/report.hh"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "config/config.hh"
#include "layout/policy.hh"
#include "sim/stats_dump.hh"
#include "util/jsonout.hh"

namespace califorms::exp
{

namespace
{

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

/** The CSV columns after the six unit columns: a header and the
 *  counter-table row it prints; a null row is the run's depth. v2
 *  columns follow the v1 set so positional consumers keep working. */
constexpr std::pair<const char *, const char *> kCsvColumns[] = {
    {"cycles", "core.cycles"}, {"instructions", "core.instructions"},
    {"l1dMisses", "l1d.misses"}, {"l2Misses", "l2.misses"},
    {"l3Misses", "l3.misses"}, {"dramAccesses", "dram.accesses"},
    {"spills", "califorms.spills"}, {"fills", "califorms.fills"},
    {"cformOps", "califorms.cformOps"},
    {"securityFaults", "califorms.securityFaults"},
    {"heapAllocs", "heap.allocs"}, {"heapCformsIssued", "heap.cformsIssued"},
    {"peakHeapBytes", "heap.peakHeapBytes"},
    {"exceptionsDelivered", "exceptions.delivered"},
    {"exceptionsSuppressed", "exceptions.suppressed"}, {"levels", nullptr},
    {"fillConvCycles", "califorms.fillConvCycles"},
    {"spillConvCycles", "califorms.spillConvCycles"},
    {"wbqHits", "wbq.hits"}};

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
        os << (i ? ", " : "") << spec.layoutSeeds[i];
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
        const RunUnit &unit = result.units[i];
        const RunResult &r = result.results[i];
        os << "    {\"benchmark\": " << jsonString(r.benchmark)
           << ", \"variant\": "
           << jsonString(spec.variants[unit.variantIndex].label)
           << ", \"variantIndex\": " << unit.variantIndex
           << ", \"layoutSeed\": " << unit.config.layoutSeed
           << ", \"levels\": " << unit.config.machine.mem.levels
           << ",\n     " << runJson(r.record(), unit.config.machine) << "}"
           << (i + 1 < result.units.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    return os.str();
}

std::string
campaignCsv(const CampaignResult &result)
{
    std::ostringstream os;
    os << "benchmark,variant,policy,maxSpan,fixedSpan,layoutSeed";
    for (const auto &[header, row] : kCsvColumns)
        os << ',' << header;
    os << '\n';
    for (std::size_t i = 0; i < result.units.size(); ++i) {
        const RunUnit &unit = result.units[i];
        const RunResult &r = result.results[i];
        const Variant &v = result.spec.variants[unit.variantIndex];
        os << csvField(r.benchmark) << ',' << csvField(v.label) << ','
           << policyName(v.policy) << ',' << v.maxSpan << ','
           << v.fixedSpan << ',' << unit.config.layoutSeed;
        for (const auto &[header, row] : kCsvColumns)
            os << ','
               << (row ? jsonNumber(statValue(r.record(), row))
                       : std::to_string(unit.config.machine.mem.levels));
        os << '\n';
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
