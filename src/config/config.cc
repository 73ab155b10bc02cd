#include "config/config.hh"

#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>

namespace califorms::config
{

namespace
{

std::string
trim(const std::string &s)
{
    const std::size_t first = s.find_first_not_of(" \t\r");
    if (first == std::string::npos)
        return "";
    const std::size_t last = s.find_last_not_of(" \t\r");
    return s.substr(first, last - first + 1);
}

} // namespace

std::optional<std::string>
Config::set(const std::string &key, const std::string &text)
{
    const ParamRegistry &registry = ParamRegistry::instance();
    const ParamSpec *spec = registry.find(key);
    if (!spec)
        return "unknown config key '" + key +
               "' (see 'califorms config --schema' for the full set)";
    std::string error;
    const auto value = registry.parse(*spec, text, error);
    if (!value)
        return error;
    values_[key] = *value;
    return std::nullopt;
}

std::optional<std::string>
Config::setPair(const std::string &pair)
{
    const std::size_t eq = pair.find('=');
    if (eq == std::string::npos || eq == 0)
        return "expected key=value, got '" + pair + "'";
    return set(trim(pair.substr(0, eq)), trim(pair.substr(eq + 1)));
}

std::optional<std::string>
Config::loadText(const std::string &text)
{
    std::istringstream in(text);
    std::string line;
    for (std::size_t lineno = 1; std::getline(in, line); ++lineno) {
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        line = trim(line);
        if (line.empty())
            continue;
        const std::size_t eq = line.find('=');
        if (eq == std::string::npos)
            return "line " + std::to_string(lineno) +
                   ": expected 'key = value', got '" + line + "'";
        if (const auto error =
                set(trim(line.substr(0, eq)), trim(line.substr(eq + 1))))
            return "line " + std::to_string(lineno) + ": " + *error;
    }
    return std::nullopt;
}

std::optional<std::string>
Config::loadFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return "cannot open config file '" + path + "'";
    std::ostringstream ss;
    ss << in.rdbuf();
    if (const auto error = loadText(ss.str()))
        return path + ": " + *error;
    return std::nullopt;
}

bool
Config::isSet(const std::string &key) const
{
    return values_.count(key) != 0;
}

const ParamValue *
Config::get(const std::string &key) const
{
    const auto it = values_.find(key);
    return it == values_.end() ? nullptr : &it->second;
}

void
Config::applyTo(RunConfig &rc) const
{
    for (const ParamSpec &spec : ParamRegistry::instance().specs())
        if (const ParamValue *value = get(spec.key))
            spec.apply(rc, *value);
}

RunConfig
Config::makeRunConfig() const
{
    RunConfig rc;
    applyTo(rc);
    return rc;
}

std::string
Config::serialize(bool only_non_default) const
{
    std::ostringstream os;
    unsigned domain = 0;
    for (const ParamSpec &spec : ParamRegistry::instance().specs()) {
        const bool explicit_set = isSet(spec.key);
        if (only_non_default && !explicit_set)
            continue;
        if (spec.ns != domain) {
            if (domain)
                os << "\n";
            domain = spec.ns;
        }
        os << spec.key << " = "
           << renderValue(explicit_set ? *get(spec.key) : spec.def);
        if (explicit_set && !only_non_default)
            os << "  # set";
        os << "\n";
    }
    return os.str();
}

std::vector<std::pair<std::string, std::string>>
Config::entries() const
{
    std::vector<std::pair<std::string, std::string>> out;
    for (const ParamSpec &spec : ParamRegistry::instance().specs())
        if (const ParamValue *value = get(spec.key))
            out.emplace_back(spec.key, renderValue(*value));
    return out;
}

std::optional<std::string>
KeyScope::firstInert(const Config &base,
                     const std::vector<std::string> &axes) const
{
    const auto inert =
        [&](const std::string &key) -> std::optional<std::string> {
        const ParamSpec *spec = ParamRegistry::instance().find(key);
        if (spec && (spec->ns & namespaces))
            return std::nullopt;
        std::string only;
        for (std::size_t n = 0; n < std::size(kNamespaceNames); ++n)
            if (namespaces & (1u << n))
                only += (only.empty() ? "" : ", ") +
                        std::string(kNamespaceNames[n]) + ".*";
        return key + " has no effect on " + target +
               (only.empty() ? " (no config key applies)"
                             : " (only " + only + " apply)");
    };
    for (const auto &[key, value] : base.entries()) {
        if (auto error = inert(key))
            return error;
        if (gridOwned && gridOwned(key))
            return key + " is owned by " + target +
                   " (its policy, span and seed axes); a base set "
                   "would be silently overridden";
    }
    for (const std::string &key : axes)
        if (auto error = inert(key))
            return error;
    return std::nullopt;
}

bool
KeyScope::reportInert(const Config &base, const char *prog,
                      const std::vector<std::string> &axes) const
{
    const auto error = firstInert(base, axes);
    if (error)
        std::fprintf(stderr, "%s: %s\n", prog, error->c_str());
    return error.has_value();
}

CliArg
parseCliArg(Config &cfg, const std::string &arg, int argc, char **argv,
            int &i, const char *prog)
{
    const auto value_of = [&](const char *&out) {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "%s: %s requires a value\n", prog,
                         arg.c_str());
            return false;
        }
        out = argv[++i];
        return true;
    };

    if (arg == "--set") {
        const char *pair = nullptr;
        if (!value_of(pair))
            return CliArg::Error;
        if (const auto error = cfg.setPair(pair)) {
            std::fprintf(stderr, "%s: --set: %s\n", prog,
                         error->c_str());
            return CliArg::Error;
        }
        return CliArg::Consumed;
    }
    if (arg == "--config") {
        const char *path = nullptr;
        if (!value_of(path))
            return CliArg::Error;
        if (const auto error = cfg.loadFile(path)) {
            std::fprintf(stderr, "%s: --config: %s\n", prog,
                         error->c_str());
            return CliArg::Error;
        }
        return CliArg::Consumed;
    }
    const ParamSpec *spec = ParamRegistry::instance().findFlag(arg);
    if (!spec)
        return CliArg::NotMine;
    const char *text = nullptr;
    if (!value_of(text))
        return CliArg::Error;
    if (const auto error = cfg.set(spec->key, text)) {
        std::fprintf(stderr, "%s: %s: %s\n", prog, arg.c_str(),
                     error->c_str());
        return CliArg::Error;
    }
    return CliArg::Consumed;
}

const std::string &
cliUsage()
{
    static const std::string usage = [] {
        std::string out =
            "  --set key=value override any registered knob "
            "(repeatable; run\n"
            "                  'califorms config --schema' for the "
            "full key set)\n"
            "  --config FILE   load 'key = value' assignments from "
            "FILE";
        for (const ParamSpec &spec :
             ParamRegistry::instance().specs()) {
            if (spec.flag.empty())
                continue;
            std::string head =
                "  " + spec.flag +
                (spec.type == ParamType::Enum ? " F" : " N");
            if (head.size() < 18)
                head.resize(18, ' ');
            out += "\n" + head + spec.doc;
            if (spec.type == ParamType::Enum) {
                out += ": ";
                for (std::size_t c = 0; c < spec.choices.size(); ++c)
                    out += (c ? "|" : "") + spec.choices[c];
            }
            out += " [= " + renderValue(spec.def) + "]";
        }
        return out;
    }();
    return usage;
}

} // namespace califorms::config
