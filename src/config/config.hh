/**
 * @file config.hh
 * The Config object: an ordered set of explicit `key = value`
 * assignments over the ParamRegistry, validated at set() time. One
 * Config is the single configuration carrier of the whole stack:
 *
 *  - the CLI subcommands fill one from `--set key=value`, `--config
 *    FILE`, and the legacy alias flags (parseCliArg below);
 *  - the bench harnesses fill one the same way (bench/common.hh);
 *  - applyTo() materializes it onto a RunConfig — only explicitly set
 *    keys are written, so a Config composes with per-command and
 *    per-harness defaults, and an empty Config is a strict no-op
 *    (the default Config materializes the pre-registry machine
 *    bit for bit);
 *  - serialize() emits the full resolved configuration (or only the
 *    non-default part) as a reloadable config file;
 *  - fromRunConfig() recovers the explicit-set view of an existing
 *    RunConfig by diffing it against the registry defaults.
 *
 * Config file format: one `key = value` per line; '#' starts a
 * comment (full-line or trailing); blank lines are ignored; on
 * duplicate keys the last assignment wins, same as repeated --set
 * flags.
 */

#ifndef CALIFORMS_CONFIG_CONFIG_HH
#define CALIFORMS_CONFIG_CONFIG_HH

#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "config/registry.hh"

namespace califorms::config
{

class Config
{
  public:
    /** Set @p key from text, validating against the registry. Returns
     *  a diagnostic on failure (unknown key, bad value, out of
     *  bounds), std::nullopt on success. */
    std::optional<std::string> set(const std::string &key,
                                   const std::string &text);

    /** Set from one "key=value" token (the --set argument shape). */
    std::optional<std::string> setPair(const std::string &pair);

    /** Parse config-file text; diagnostics carry the line number. */
    std::optional<std::string> loadText(const std::string &text);

    /** Load a `key = value` file from disk. */
    std::optional<std::string> loadFile(const std::string &path);

    bool isSet(const std::string &key) const;

    /** The explicitly set value of @p key, or nullptr. */
    const ParamValue *get(const std::string &key) const;

    /** The resolved value of @p key: the explicit set if present,
     *  the registry default otherwise (throws on unknown key). */
    ParamValue resolved(const std::string &key) const;

    /** Write every explicitly set key into @p rc (registry order). */
    void applyTo(RunConfig &rc) const;

    /** Materialize a RunConfig: defaults plus the explicit sets. */
    RunConfig makeRunConfig() const;

    /**
     * Render as a reloadable config file: every registered key in
     * registration order with its resolved value; explicit sets are
     * marked with a trailing "# set" comment. @p only_non_default
     * restricts the dump to the explicitly set keys.
     */
    std::string serialize(bool only_non_default = false) const;

    /** The explicit sets as (key, rendered value) pairs, registry
     *  order. */
    std::vector<std::pair<std::string, std::string>> entries() const;

    /** Number of explicitly set keys. */
    std::size_t setCount() const { return values_.size(); }

    /**
     * The explicit-set view of an existing RunConfig: every key whose
     * value differs from the registry default. (Keys equal to their
     * default are not marked set — applying the result to a default
     * RunConfig reproduces @p rc exactly.)
     */
    static Config fromRunConfig(const RunConfig &rc);

  private:
    std::map<std::string, ParamValue> values_;
};

/**
 * The key namespaces one consumer applies, and what it calls the thing
 * the keys configure. Each consumer declares one: the fixed sets are
 * below; exp::suiteScope and fleet::baseScope/overlayScope compute the
 * input-dependent ones. A key outside the scope is rejected, never
 * silently ignored.
 */
struct KeyScope
{
    unsigned namespaces = 0; //!< ns:: bits whose keys take effect
    std::string target;      //!< e.g. "a trace replay"
    /** Keys a campaign grid assigns to every cell (exp::gridOwnedKey),
     *  so a base set of one would be overridden; null off a grid. */
    bool (*gridOwned)(const std::string &key) = nullptr;

    /** The diagnostic for the first key of @p base, then of @p axes,
     *  that cannot take effect ("<key> has no effect on <target> (only
     *  mem.*, core.* apply)"; a grid-owned key is inert only as a base
     *  set), or std::nullopt when every key applies. */
    std::optional<std::string>
    firstInert(const Config &base,
               const std::vector<std::string> &axes = {}) const;

    /** firstInert() printed as "<prog>: <diagnostic>" to stderr; true
     *  when a key was reported. */
    bool reportInert(const Config &base, const char *prog,
                     const std::vector<std::string> &axes = {}) const;
};

/** describeParams() and `califorms trace run`: the machine model. */
inline constexpr unsigned kMachineScope = ns::Mem | ns::Core;
/** `califorms trace gen`: the generator's knobs. */
inline constexpr unsigned kTraceGenScope = ns::Workload;
/** `califorms attack`: machine, victim layout, heap, scenario. */
inline constexpr unsigned kAttackScope =
    ns::Mem | ns::Core | ns::Layout | ns::Heap | ns::Attack;

/** Result of offering one CLI argument to parseCliArg. */
enum class CliArg
{
    NotMine,  //!< not a config argument; caller handles it
    Consumed, //!< applied (possibly consuming the following value)
    Error,    //!< diagnostic already printed to stderr
};

/**
 * Recognize and apply one registry-backed CLI argument: `--set
 * key=value`, `--config FILE`, or any legacy alias flag registered in
 * the ParamRegistry (--levels, --l2-kb, --llc-kb, --l2-lat,
 * --llc-lat, --fill-conv, --spill-conv, --wb-queue, --l1, --policy).
 * @p i is advanced past consumed value arguments; diagnostics are
 * printed to stderr prefixed with @p prog.
 */
CliArg parseCliArg(Config &cfg, const std::string &arg, int argc,
                   char **argv, int &i, const char *prog);

/** The usage lines for the shared configuration arguments: --set,
 *  --config, and every registered legacy alias flag (rendered from
 *  the registry, so usage text cannot drift from the knob set). */
const std::string &cliUsage();

} // namespace califorms::config

#endif // CALIFORMS_CONFIG_CONFIG_HH
