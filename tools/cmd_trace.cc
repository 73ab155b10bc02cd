/**
 * @file cmd_trace.cc
 * `califorms trace`: generate, replay, and convert machine traces in
 * the text and binary formats of src/sim/trace.hh, so downstream users
 * can drive the machine model without writing C++.
 *
 *   trace gen   stream one of the src/workload generators (zipf,
 *               stream, stackchurn, ring, attackmix, tunable via
 *               --set workload.key=value) to stdout (or --out FILE);
 *               the default, attackmix, issues CFORMs, so a default
 *               replay exercises the security path; --format bin
 *               writes the compact binary format
 *   trace run   replay a trace file ('-' = stdin), auto-detecting
 *               text vs binary, and report the replay checksum plus
 *               every counter-table row the run emits (--stats adds
 *               the flat gem5-style dump); the binary path
 *               streams, so multi-million-op traces replay in
 *               constant memory
 *   trace conv  convert a trace between the two formats; binary ->
 *               text -> binary round-trips byte-identically (text
 *               comments are not carried into binary)
 */

#include "cli.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <vector>

#include "sim/stats_dump.hh"
#include "sim/trace.hh"
#include "workload/synth.hh"

namespace califorms::cli
{
namespace
{

void
usage()
{
    std::string workloads;
    for (const std::string &name : synthWorkloadNames())
        workloads += (workloads.empty() ? "" : "|") + name;
    std::printf(
        "usage: califorms trace gen [--ops N] [--seed N] [--out FILE]\n"
        "                           [--format text|bin] [--workload "
        "%s]\n"
        "                           [--set workload.key=value] "
        "[--config FILE]\n"
        "       califorms trace run <FILE|-> [FILE...] [--stats] "
        "[--set key=value] [--config FILE]\n"
        "       califorms trace conv <IN|-> <OUT|-> --to text|bin\n"
        "\n"
        "trace gen streams one workload generator (default attackmix, "
        "which issues\nCFORMs); --ops defaults to workload.ops.\n"
        "trace run auto-detects the trace format and replays on the "
        "registry-default\nmachine; --set and --config (plus the "
        "legacy alias flags, e.g. --levels,\n--l2-kb, --cores) "
        "reconfigure it. On a multi-core machine (--set\n"
        "core.count=N) trace run takes exactly N trace files, one "
        "stream per core,\ninterleaved round-robin; at most one of "
        "them may be '-' (stdin).\n",
        workloads.c_str());
}

/** Parse --format/--to values. */
bool
parseFormat(const std::string &text, TraceFormat &format)
{
    if (text == "text") {
        format = TraceFormat::Text;
        return true;
    }
    if (text == "bin" || text == "binary") {
        format = TraceFormat::Binary;
        return true;
    }
    return false;
}

/** Strictly parse an unsigned flag value in [min, max]; prints the
 *  diagnostic and returns std::nullopt on failure (negative, garbage,
 *  or out-of-range input must not silently wrap into a huge count). */
std::optional<std::uint64_t>
parseCount(const char *flag, const std::string &text,
           std::uint64_t min, std::uint64_t max)
{
    const auto v = parseU64(text);
    if (!v || *v < min || *v > max) {
        std::fprintf(stderr,
                     "califorms trace: %s expects an integer in "
                     "[%llu, %llu], got '%s'\n",
                     flag, static_cast<unsigned long long>(min),
                     static_cast<unsigned long long>(max),
                     text.c_str());
        return std::nullopt;
    }
    return v;
}

/** Open @p path for reading in binary mode; '-' is stdin. Returns
 *  nullptr after printing a diagnostic. */
std::istream *
openInput(const std::string &path, std::ifstream &file)
{
    if (path == "-")
        return &std::cin;
    file.open(path, std::ios::binary);
    if (!file) {
        std::fprintf(stderr, "califorms trace: cannot read '%s'\n",
                     path.c_str());
        return nullptr;
    }
    return &file;
}

/** Open @p path for writing in binary mode; '-' or "" is stdout.
 *  Returns nullptr after printing a diagnostic. */
std::ostream *
openOutput(const std::string &path, std::ofstream &file)
{
    if (path.empty() || path == "-")
        return &std::cout;
    file.open(path, std::ios::binary);
    if (!file) {
        std::fprintf(stderr, "califorms trace: cannot write '%s'\n",
                     path.c_str());
        return nullptr;
    }
    return &file;
}

int
traceGen(int argc, char **argv)
{
    std::optional<std::size_t> ops;
    std::optional<std::uint64_t> seed;
    std::string out;
    std::string workload = "attackmix";
    TraceFormat format = TraceFormat::Text;
    config::Config cfg;

    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        switch (config::parseCliArg(cfg, arg, argc, argv, i,
                                    "califorms trace")) {
        case config::CliArg::Consumed:
            continue;
        case config::CliArg::Error:
            return 2;
        case config::CliArg::NotMine:
            break;
        }
        if (arg == "--ops") {
            // Same bound as the workload.ops registry knob.
            const auto v = parseCount("--ops", flagValue(argc, argv, i),
                                      1, 1u << 30);
            if (!v)
                return 2;
            ops = static_cast<std::size_t>(*v);
        } else if (arg == "--seed") {
            const auto v =
                parseCount("--seed", flagValue(argc, argv, i), 0,
                           std::numeric_limits<std::uint64_t>::max());
            if (!v)
                return 2;
            seed = *v;
        } else if (arg == "--out") {
            out = flagValue(argc, argv, i);
        } else if (arg == "--workload") {
            workload = flagValue(argc, argv, i);
            if (!isSynthWorkload(workload)) {
                std::fprintf(stderr,
                             "califorms trace: unknown workload '%s' "
                             "(try --help)\n",
                             workload.c_str());
                return 2;
            }
        } else if (arg == "--format") {
            if (!parseFormat(flagValue(argc, argv, i), format)) {
                std::fprintf(stderr, "califorms trace: --format "
                                     "expects text or bin\n");
                return 2;
            }
        } else if (arg == "--help") {
            usage();
            return 0;
        } else {
            usage();
            return 2;
        }
    }

    // The machine is chosen at replay time, so generation consumes
    // only the generator's knobs.
    const config::KeyScope scope{config::kTraceGenScope,
                                 "trace generation"};
    if (scope.reportInert(cfg, "califorms trace"))
        return 2;

    std::ofstream file;
    std::ostream *const os = openOutput(out, file);
    if (!os)
        return 1;

    std::size_t written = 0;
    try {
        SynthParams params = cfg.makeRunConfig().synth;
        if (seed)
            params.seed = *seed;
        const std::size_t total = ops.value_or(params.ops);
        if (format == TraceFormat::Text)
            *os << "# califorms trace: workload=" << workload
                << " ops=" << total << " seed=" << params.seed << "\n";
        const auto gen = makeSynthGenerator(workload, params, total);
        const auto writer = makeTraceWriter(*os, format, total);
        std::vector<TraceOp> batch(4096);
        while (const std::size_t n = gen->fill(batch.data(), batch.size())) {
            for (std::size_t i = 0; i < n; ++i)
                writer->put(batch[i]);
            written += n;
        }
        writer->finish();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "califorms trace: %s\n", e.what());
        return 1;
    }
    if (!out.empty())
        std::printf("wrote %zu ops to %s\n", written, out.c_str());
    return 0;
}

int
traceRun(int argc, char **argv)
{
    std::vector<std::string> paths;
    bool stats = false;
    config::Config cfg;

    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        switch (config::parseCliArg(cfg, arg, argc, argv, i,
                                    "califorms trace")) {
        case config::CliArg::Consumed:
            continue;
        case config::CliArg::Error:
            return 2;
        case config::CliArg::NotMine:
            break;
        }
        if (arg == "--stats")
            stats = true;
        else if (arg == "--help") {
            usage();
            return 0;
        } else if (arg == "-" || arg[0] != '-')
            paths.push_back(arg);
        else {
            usage();
            return 2;
        }
    }
    if (paths.empty()) {
        usage();
        return 2;
    }
    // Two cores reading one stdin would alternate over a single
    // stream, each seeing every other op: refuse instead.
    if (std::count(paths.begin(), paths.end(), "-") > 1) {
        std::fprintf(stderr, "califorms trace: stdin ('-') given more "
                             "than once; each core needs its own "
                             "stream\n");
        return 2;
    }

    // The trace itself decides everything but the machine model.
    const config::KeyScope scope{config::kMachineScope, "a trace replay"};
    if (scope.reportInert(cfg, "califorms trace"))
        return 2;

    Machine machine(cfg.makeRunConfig().machine);
    if (paths.size() != machine.coreCount()) {
        std::fprintf(stderr,
                     "califorms trace: %zu trace file(s) for a "
                     "%u-core machine (trace run takes exactly one "
                     "stream per core; set --set core.count=%zu or "
                     "pass %u file(s))\n",
                     paths.size(), machine.coreCount(), paths.size(),
                     machine.coreCount());
        return 2;
    }
    std::uint64_t replayed = 0;
    std::uint64_t checksum = 0;
    try {
        std::vector<std::ifstream> files(paths.size());
        std::vector<std::unique_ptr<TraceReader>> readers;
        std::vector<TraceReader *> streams;
        for (std::size_t c = 0; c < paths.size(); ++c) {
            std::istream *const is = openInput(paths[c], files[c]);
            if (!is)
                return 1;
            readers.push_back(openTraceReader(*is));
            streams.push_back(readers.back().get());
        }
        checksum = runTraceInterleaved(machine, streams, &replayed);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "califorms trace: %s\n", e.what());
        return 1;
    }
    const RunStats run = snapshot(machine);
    const std::vector<RunStats> cores = coreSnapshots(machine);
    std::printf("replayed %llu ops: checksum=%016llx\n%s",
                static_cast<unsigned long long>(replayed),
                static_cast<unsigned long long>(checksum),
                statLines({run, cores}, machine.params()).c_str());
    if (stats)
        std::fputs(dumpStats({run}, machine.params()).c_str(), stdout);
    return 0;
}

int
traceConv(int argc, char **argv)
{
    std::string in_path, out_path;
    TraceFormat to = TraceFormat::Binary;
    bool to_set = false;

    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--to") {
            if (!parseFormat(flagValue(argc, argv, i), to)) {
                std::fprintf(stderr, "califorms trace: --to expects "
                                     "text or bin\n");
                return 2;
            }
            to_set = true;
        } else if (arg == "--help") {
            usage();
            return 0;
        } else if (in_path.empty()) {
            in_path = arg;
        } else if (out_path.empty()) {
            out_path = arg;
        } else {
            usage();
            return 2;
        }
    }
    if (in_path.empty() || out_path.empty() || !to_set) {
        usage();
        return 2;
    }

    Trace trace;
    try {
        std::ifstream file;
        std::istream *const is = openInput(in_path, file);
        if (!is)
            return 1;
        const auto reader = openTraceReader(*is);
        TraceOp op;
        while (reader->next(op))
            trace.push_back(op);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "califorms trace: %s\n", e.what());
        return 1;
    }

    try {
        std::ofstream file;
        std::ostream *const os = openOutput(out_path, file);
        if (!os)
            return 1;
        if (to == TraceFormat::Binary)
            writeTraceBinary(*os, trace);
        else
            writeTrace(*os, trace);
        if (!*os) {
            std::fprintf(stderr, "califorms trace: write error on "
                                 "'%s'\n",
                         out_path.c_str());
            return 1;
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "califorms trace: %s\n", e.what());
        return 1;
    }
    std::fprintf(stderr, "converted %zu ops to %s\n", trace.size(),
                 to == TraceFormat::Binary ? "binary" : "text");
    return 0;
}

} // namespace

int
cmdTrace(int argc, char **argv)
{
    if (argc < 1) {
        usage();
        return 2;
    }
    const std::string mode = argv[0];
    if (mode == "gen")
        return traceGen(argc - 1, argv + 1);
    if (mode == "run")
        return traceRun(argc - 1, argv + 1);
    if (mode == "conv")
        return traceConv(argc - 1, argv + 1);
    if (mode == "--help") {
        usage();
        return 0;
    }
    usage();
    return 2;
}

} // namespace califorms::cli
