/**
 * @file cli_common.cc
 * Shared argument parsing helpers for the califorms CLI subcommands.
 * Knob parsing itself lives in src/config (the ParamRegistry and
 * config::parseCliArg); only the truly CLI-local helpers remain here.
 */

#include "cli.hh"

#include <cstdio>
#include <cstdlib>

namespace califorms::cli
{

std::optional<InsertionPolicy>
parsePolicy(const std::string &name)
{
    return parsePolicyName(name);
}

const char *
flagValue(int argc, char **argv, int &i)
{
    if (i + 1 >= argc) {
        std::fprintf(stderr, "califorms: %s requires a value\n", argv[i]);
        std::exit(2);
    }
    return argv[++i];
}

bool
setOrReport(config::Config &cfg, const char *prog,
            const std::string &flag, const std::string &key,
            const std::string &text)
{
    if (const auto error = cfg.set(key, text)) {
        std::fprintf(stderr, "%s: %s: %s\n", prog, flag.c_str(),
                     error->c_str());
        return false;
    }
    return true;
}

std::optional<unsigned>
countOrReport(const char *prog, const std::string &flag,
              const std::string &text, unsigned lo, unsigned hi)
{
    const auto v = parseU64(text);
    if (!v || *v < lo || *v > hi) {
        std::fprintf(stderr,
                     "%s: %s expects an integer in [%u, %u], got '%s'\n",
                     prog, flag.c_str(), lo, hi, text.c_str());
        return std::nullopt;
    }
    return static_cast<unsigned>(*v);
}

} // namespace califorms::cli
