#include "fleet/tenant.hh"

#include <fstream>
#include <set>
#include <sstream>

#include "workload/synth.hh"

namespace califorms::fleet
{

std::string
TenantSpec::source() const
{
    return workload.empty() ? "trace=" + tracePath
                            : "workload=" + workload;
}

bool
TenantSpec::overlaySets(const std::string &key) const
{
    for (const auto &[k, v] : sets)
        if (k == key)
            return true;
    return false;
}

std::optional<std::string>
parseTenantSpec(const std::string &line, TenantSpec &out)
{
    out = TenantSpec{};
    std::istringstream ss(line);
    std::string token;
    if (!(ss >> token))
        return "empty tenant spec";
    if (token.find('=') != std::string::npos)
        return "tenant spec must start with an id, got '" + token +
               "'";
    out.id = token;

    if (!(ss >> token))
        return "tenant '" + out.id +
               "': missing source (workload=<name> or trace=<path>)";
    if (token.rfind("workload=", 0) == 0) {
        out.workload = token.substr(9);
        if (!isSynthWorkload(out.workload)) {
            std::string known;
            for (const std::string &name : synthWorkloadNames())
                known += (known.empty() ? "" : ", ") + name;
            return "tenant '" + out.id + "': unknown workload '" +
                   out.workload + "' (known: " + known + ")";
        }
    } else if (token.rfind("trace=", 0) == 0) {
        out.tracePath = token.substr(6);
        if (out.tracePath.empty())
            return "tenant '" + out.id + "': empty trace path";
    } else {
        return "tenant '" + out.id + "': expected workload=<name> or "
               "trace=<path>, got '" + token + "'";
    }

    // Overlay: registry-validated key=value pairs, restricted to the
    // tenant's scope. A scratch Config performs the value validation
    // so diagnostics match --set exactly.
    config::Config scratch;
    while (ss >> token) {
        const std::size_t eq = token.find('=');
        if (eq == std::string::npos || eq == 0)
            return "tenant '" + out.id + "': expected key=value, got '" +
                   token + "'";
        const std::string key = token.substr(0, eq);
        const std::string value = token.substr(eq + 1);
        if (auto error = scratch.set(key, value))
            return "tenant '" + out.id + "': " + *error;
        out.sets.emplace_back(key, value);
    }
    return overlayScope(out).firstInert(scratch);
}

std::optional<std::string>
parseManifest(const std::string &text, std::vector<TenantSpec> &out)
{
    std::istringstream ss(text);
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(ss, line)) {
        ++lineno;
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.resize(hash);
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue;
        TenantSpec tenant;
        if (auto error = parseTenantSpec(line, tenant))
            return "manifest line " + std::to_string(lineno) + ": " +
                   *error;
        out.push_back(std::move(tenant));
    }
    return std::nullopt;
}

std::optional<std::string>
loadManifest(const std::string &path, std::vector<TenantSpec> &out)
{
    std::ifstream is(path);
    if (!is)
        return "cannot open manifest '" + path + "'";
    std::ostringstream text;
    text << is.rdbuf();
    return parseManifest(text.str(), out);
}

config::KeyScope
baseScope(const std::vector<TenantSpec> &tenants)
{
    config::KeyScope scope{config::ns::Mem | config::ns::Fleet,
                           "a fleet replay"};
    for (const TenantSpec &tenant : tenants)
        if (!tenant.workload.empty())
            scope.namespaces |= config::ns::Workload;
    return scope;
}

config::KeyScope
overlayScope(const TenantSpec &tenant)
{
    return {config::ns::Mem |
                (tenant.workload.empty() ? 0u : config::ns::Workload),
            "tenant '" + tenant.id + "'"};
}

std::optional<std::string>
validateTenants(const std::vector<TenantSpec> &tenants)
{
    if (tenants.empty())
        return std::string(
            "fleet has no tenants (give --manifest and/or --tenant)");
    std::set<std::string> seen;
    for (const TenantSpec &tenant : tenants)
        if (!seen.insert(tenant.id).second)
            return "duplicate tenant id '" + tenant.id + "'";
    return std::nullopt;
}

} // namespace califorms::fleet
