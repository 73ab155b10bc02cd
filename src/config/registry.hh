/**
 * @file registry.hh
 * The typed simulator parameter registry: every tunable knob of the
 * Califorms machine — memory hierarchy, core model, layout policy,
 * allocators, run control — is registered here exactly once, under a
 * dotted key ("mem.l2_size_kb", "core.mlp", "layout.policy") with its
 * type, default, bounds, documentation string, and (where one exists)
 * its legacy CLI flag.
 *
 * Everything that consumes a knob renders it from this table: the
 * `--set key=value` / `--config FILE` surface of every CLI subcommand,
 * the legacy flag aliases (`--l2-kb` is the alias of mem.l2_size_kb),
 * the bench harness options, campaign sweep axes over arbitrary keys,
 * the `califorms config` schema dump, and the describeParams() machine
 * listing. Registering a knob here is the single step that makes it
 * exist everywhere; a knob that is not registered cannot be configured.
 *
 * Defaults are not written down twice: each ParamSpec captures its
 * default by reading a default-constructed RunConfig through its own
 * accessor, so the default Config materializes the pre-registry
 * Table 3 machine bit for bit, by construction.
 */

#ifndef CALIFORMS_CONFIG_REGISTRY_HH
#define CALIFORMS_CONFIG_REGISTRY_HH

#include <cstdint>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <functional>
#include <optional>
#include <variant>
#include <vector>

#include "workload/runner.hh"

namespace califorms::config
{

/**
 * Name <-> value table of a config-surface enum. Every enum knob
 * (mem.l1_format, mem.coherence, mem.repl_policy, ...) registers
 * through one of these instead of a hand-rolled name()/fromName()
 * pair, so the choices list shown in the schema, the parser, and the
 * renderer cannot drift from each other: they are all views of the
 * same entries. value() rejects unknown names with the full candidate
 * list in the error.
 */
template <typename E>
class EnumTable
{
  public:
    struct Entry
    {
        const char *name;
        E value;
    };

    EnumTable(const char *what, std::initializer_list<Entry> entries)
        : what_(what), entries_(entries)
    {
    }

    /** Config-surface name of @p value ("?" only if the table is
     *  incomplete, which the registry round-trip tests catch). */
    const char *
    name(E value) const
    {
        for (const Entry &e : entries_)
            if (e.value == value)
                return e.name;
        return "?";
    }

    /** Parse @p text; throws with the candidate list when unknown. */
    E
    value(const std::string &text) const
    {
        for (const Entry &e : entries_)
            if (text == e.name)
                return e.value;
        throw std::invalid_argument("unknown " + std::string(what_) +
                                    " '" + text + "' (expected one of " +
                                    choiceList() + ")");
    }

    /** The choices vocabulary, in table order (feeds ParamSpec). */
    std::vector<std::string>
    names() const
    {
        std::vector<std::string> out;
        for (const Entry &e : entries_)
            out.emplace_back(e.name);
        return out;
    }

    /** "{a, b, c}" for diagnostics. */
    std::string
    choiceList() const
    {
        std::string out = "{";
        for (std::size_t i = 0; i < entries_.size(); ++i)
            out += (i ? ", " : "") + std::string(entries_[i].name);
        return out + "}";
    }

  private:
    const char *what_;
    std::vector<Entry> entries_;
};

/** The key namespaces, one bit each, in kNamespaceNames order. The
 *  registry derives each key's bit from its prefix at registration;
 *  an unknown prefix fails it. */
namespace ns
{
enum : unsigned
{
    Mem = 1u << 0,
    Core = 1u << 1,
    Layout = 1u << 2,
    Heap = 1u << 3,
    Stack = 1u << 4,
    Run = 1u << 5,
    Workload = 1u << 6,
    Attack = 1u << 7,
    Fleet = 1u << 8,
};
} // namespace ns

/** The key prefix of namespace bit n ("mem" for ns::Mem). */
inline constexpr const char *kNamespaceNames[] = {
    "mem", "core", "layout", "heap", "stack",
    "run", "workload", "attack", "fleet"};

/** The value space of a registered parameter. */
enum class ParamType
{
    UInt,   //!< unsigned integer with [min, max] bounds
    Double, //!< finite double with [min, max] bounds
    Bool,   //!< true/false (also 1/0, on/off, yes/no)
    Enum,   //!< one of a fixed set of names
};

/** A typed parameter value; Enum values are stored as their name. */
using ParamValue =
    std::variant<std::uint64_t, double, bool, std::string>;

/** One registered knob. */
struct ParamSpec
{
    std::string key;  //!< dotted name, e.g. "mem.l2_size_kb"
    unsigned ns = 0;  //!< the key prefix's ns:: bit
    ParamType type = ParamType::UInt;
    ParamValue def{}; //!< captured from a default RunConfig
    std::uint64_t minU = 0, maxU = 0;   //!< UInt bounds (inclusive)
    double minD = 0, maxD = 0;          //!< Double bounds (inclusive)
    std::vector<std::string> choices;   //!< Enum vocabulary
    std::string doc;  //!< one-line description for schema/usage dumps
    /** Legacy CLI flag this key aliases ("--l2-kb"), or "" if the knob
     *  predates no flag and is reached via --set only. */
    std::string flag;
    /** Write the value into a RunConfig. */
    std::function<void(RunConfig &, const ParamValue &)> apply;
    /** Read the value back out of a RunConfig. */
    std::function<ParamValue(const RunConfig &)> read;
};

/** Render @p value as config-file / CLI text (round-trips through
 *  ParamRegistry::parse for the owning spec). */
std::string renderValue(const ParamValue &value);

/** Human name of a ParamType for diagnostics and the schema dump. */
const char *paramTypeName(ParamType type);

/**
 * The process-wide registry. Immutable after construction; lookups are
 * by key or by legacy flag. Iteration order is registration order,
 * which every dump (schema, config file, describeParams) follows.
 */
class ParamRegistry
{
  public:
    static const ParamRegistry &instance();

    const std::vector<ParamSpec> &specs() const { return specs_; }

    /** Find a spec by dotted key; nullptr if unknown. */
    const ParamSpec *find(const std::string &key) const;

    /** Find a spec by its legacy flag ("--l2-kb"); nullptr if none. */
    const ParamSpec *findFlag(const std::string &flag) const;

    /**
     * Parse and validate @p text against @p spec. On failure returns
     * std::nullopt and sets @p error to a complete diagnostic
     * (mentioning the key, the expected type/bounds, and the text).
     */
    std::optional<ParamValue> parse(const ParamSpec &spec,
                                    const std::string &text,
                                    std::string &error) const;

    /** The machine-readable schema of every registered knob, as
     *  deterministic JSON (golden-pinned by tests/golden/
     *  config_schema.json; `califorms config --schema` prints it). */
    std::string schemaJson() const;

  private:
    ParamRegistry();

    std::vector<ParamSpec> specs_;
};

} // namespace califorms::config

#endif // CALIFORMS_CONFIG_REGISTRY_HH
