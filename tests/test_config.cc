/**
 * @file test_config.cc
 * The typed parameter registry and Config API: registry invariants
 * (unique keys/flags, documented bounds), bit-for-bit default
 * materialization of the Table 3 machine, set/serialize/reload round
 * trips, unknown-key and out-of-bounds rejection, legacy-flag alias
 * equivalence (--l2-kb 256 == --set mem.l2_size_kb=256), config-file
 * edge cases (comments, blank lines, duplicate keys), the golden-
 * pinned schema dump (regen via CALIFORMS_REGEN_GOLDEN=1), and the
 * campaign-side registry axis (crossKey over a knob that previously
 * had no axis, e.g. core.mlp).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>

#include "config/config.hh"
#include "exp/campaign.hh"
#include "exp/report.hh"
#include "fleet/tenant.hh"
#include "sim/machine.hh"
#include "util/parse.hh"

#ifndef CALIFORMS_GOLDEN_DIR
#error "build must define CALIFORMS_GOLDEN_DIR"
#endif

namespace califorms
{
namespace
{

using config::Config;
using config::ParamRegistry;
using config::ParamSpec;
using config::ParamType;

TEST(Registry, KeysAndFlagsAreUniqueAndDocumented)
{
    std::set<std::string> keys, flags;
    for (const ParamSpec &spec : ParamRegistry::instance().specs()) {
        EXPECT_TRUE(keys.insert(spec.key).second)
            << "duplicate key " << spec.key;
        EXPECT_NE(spec.key.find('.'), std::string::npos)
            << spec.key << " is not dotted";
        EXPECT_FALSE(spec.doc.empty()) << spec.key << " lacks a doc";
        if (!spec.flag.empty()) {
            EXPECT_TRUE(flags.insert(spec.flag).second)
                << "duplicate flag " << spec.flag;
        }
        if (spec.type == ParamType::UInt) {
            EXPECT_LE(spec.minU, spec.maxU) << spec.key;
        }
        if (spec.type == ParamType::Double) {
            EXPECT_LE(spec.minD, spec.maxD) << spec.key;
        }
        if (spec.type == ParamType::Enum) {
            EXPECT_FALSE(spec.choices.empty()) << spec.key;
        }
        // The default must satisfy the spec's own validation.
        std::string error;
        EXPECT_TRUE(ParamRegistry::instance().parse(
            spec, config::renderValue(spec.def), error))
            << spec.key << ": " << error;
    }
    // The legacy CLI surface is fully covered.
    for (const char *flag :
         {"--levels", "--l2-kb", "--llc-kb", "--l2-lat", "--llc-lat",
          "--fill-conv", "--spill-conv", "--wb-queue", "--l1",
          "--policy"})
        EXPECT_NE(ParamRegistry::instance().findFlag(flag), nullptr)
            << flag;
    // Every advertised layout.policy choice must actually parse (the
    // apply lambda dereferences parsePolicyName's optional), and every
    // policy enum value must round-trip through its canonical name.
    const ParamSpec *policy =
        ParamRegistry::instance().find("layout.policy");
    ASSERT_NE(policy, nullptr);
    for (const std::string &choice : policy->choices)
        EXPECT_TRUE(parsePolicyName(choice).has_value()) << choice;
    for (const InsertionPolicy p :
         {InsertionPolicy::None, InsertionPolicy::Opportunistic,
          InsertionPolicy::Full, InsertionPolicy::Intelligent,
          InsertionPolicy::FullFixed})
        EXPECT_EQ(parsePolicyName(policyName(p)), p);
}

TEST(Registry, EveryEnumChoiceAppliesAndReadsBackCanonically)
{
    // Each advertised choice of every enum knob must survive
    // apply-then-read: a choice added to the list without the matching
    // name-table branch throws here instead of silently misconfiguring
    // the machine (e.g. an unknown L1 format falling back to
    // bitvector).
    for (const ParamSpec &spec : ParamRegistry::instance().specs()) {
        if (spec.type != ParamType::Enum)
            continue;
        for (const std::string &choice : spec.choices) {
            RunConfig rc;
            ASSERT_NO_THROW(spec.apply(rc, config::ParamValue{choice}))
                << spec.key << " = " << choice;
            const std::string canonical =
                std::get<std::string>(spec.read(rc));
            EXPECT_NE(std::find(spec.choices.begin(),
                                spec.choices.end(), canonical),
                      spec.choices.end())
                << spec.key << ": " << choice << " read back as "
                << canonical;
        }
    }
}

TEST(Registry, DefaultConfigMaterializesTheTable3Machine)
{
    // The pre-registry MachineParams literals, spelled out: an empty
    // Config must materialize exactly this machine.
    const RunConfig rc = Config{}.makeRunConfig();
    EXPECT_EQ(rc.machine.mem.l1Size, 32u * 1024);
    EXPECT_EQ(rc.machine.mem.l1Ways, 8u);
    EXPECT_EQ(rc.machine.mem.l1Latency, 4u);
    EXPECT_EQ(rc.machine.mem.l2Size, 256u * 1024);
    EXPECT_EQ(rc.machine.mem.l2Ways, 8u);
    EXPECT_EQ(rc.machine.mem.l2Latency, 7u);
    EXPECT_EQ(rc.machine.mem.l3Size, 2u * 1024 * 1024);
    EXPECT_EQ(rc.machine.mem.l3Ways, 16u);
    EXPECT_EQ(rc.machine.mem.l3Latency, 27u);
    EXPECT_EQ(rc.machine.mem.dramLatency, 120u);
    EXPECT_EQ(rc.machine.mem.levels, 3u);
    EXPECT_EQ(rc.machine.mem.extraL2L3Latency, 0u);
    EXPECT_EQ(rc.machine.mem.fillConvLatency, 0u);
    EXPECT_EQ(rc.machine.mem.spillConvLatency, 0u);
    EXPECT_EQ(rc.machine.mem.wbQueueEntries, 0u);
    EXPECT_EQ(rc.machine.mem.wbHitLatency, 1u);
    EXPECT_EQ(rc.machine.mem.l1Format, L1Format::BitVector8B);
    EXPECT_FALSE(rc.machine.mem.nextLinePrefetch);
    EXPECT_EQ(rc.machine.core.issueWidth, 4u);
    EXPECT_EQ(rc.machine.core.mlp, 12u);
    EXPECT_DOUBLE_EQ(rc.machine.core.storeMissWeight, 0.2);
    EXPECT_DOUBLE_EQ(rc.machine.core.cformMissWeight, 0.3);
    EXPECT_DOUBLE_EQ(rc.machine.core.dramCyclesPerLine, 7.0);
    EXPECT_EQ(rc.policy, InsertionPolicy::None);
    EXPECT_EQ(rc.policyParams.minSpan, 1u);
    EXPECT_EQ(rc.policyParams.maxSpan, 7u);
    EXPECT_EQ(rc.policyParams.fixedSpan, 1u);
    EXPECT_EQ(rc.layoutSeed, 7u);
    EXPECT_EQ(rc.kernelSeed, 0x5eedu);
    EXPECT_DOUBLE_EQ(rc.scale, 1.0);
    EXPECT_EQ(rc.heap.guardBytes, 8u);
    EXPECT_DOUBLE_EQ(rc.heap.quarantineFraction, 0.25);
    EXPECT_TRUE(rc.heap.useCform);
    EXPECT_FALSE(rc.heap.nonTemporalCform);
    EXPECT_TRUE(rc.stack.useCform);
}

TEST(Config, SetAppliesWithUnitScalingAndTypes)
{
    Config cfg;
    EXPECT_FALSE(cfg.set("mem.l2_size_kb", "128"));
    EXPECT_FALSE(cfg.set("core.mlp", "4"));
    EXPECT_FALSE(cfg.set("layout.policy", "intelligent"));
    EXPECT_FALSE(cfg.set("heap.use_cform", "false"));
    EXPECT_FALSE(cfg.set("core.dram_cycles_per_line", "3.5"));
    const RunConfig rc = cfg.makeRunConfig();
    EXPECT_EQ(rc.machine.mem.l2Size, 128u * 1024);
    EXPECT_EQ(rc.machine.core.mlp, 4u);
    EXPECT_EQ(rc.policy, InsertionPolicy::Intelligent);
    EXPECT_FALSE(rc.heap.useCform);
    EXPECT_DOUBLE_EQ(rc.machine.core.dramCyclesPerLine, 3.5);
    // Untouched knobs keep their defaults.
    EXPECT_EQ(rc.machine.mem.l1Size, 32u * 1024);
}

TEST(Config, RejectsUnknownKeysAndBadValues)
{
    Config cfg;
    const auto unknown = cfg.set("mem.no_such_knob", "1");
    ASSERT_TRUE(unknown);
    EXPECT_NE(unknown->find("unknown config key"), std::string::npos);

    const auto oob = cfg.set("mem.levels", "4");
    ASSERT_TRUE(oob);
    EXPECT_NE(oob->find("[1, 3]"), std::string::npos);

    EXPECT_TRUE(cfg.set("mem.l2_size_kb", "-3"));
    EXPECT_TRUE(cfg.set("mem.l2_size_kb", "12x"));
    EXPECT_TRUE(cfg.set("core.store_miss_weight", "1.5"));
    EXPECT_TRUE(cfg.set("heap.use_cform", "maybe"));
    EXPECT_TRUE(cfg.set("layout.policy", "bogus"));
    EXPECT_TRUE(cfg.setPair("no-equals-sign"));
    // Nothing was recorded by the failed sets.
    EXPECT_EQ(cfg.setCount(), 0u);
}

TEST(Config, ReplPolicyKeysParseAndRejectUnknownNames)
{
    Config cfg;
    EXPECT_FALSE(cfg.set("mem.repl_policy", "drrip"));
    EXPECT_FALSE(cfg.set("mem.l2_repl_policy", "ship"));
    EXPECT_FALSE(cfg.set("mem.llc_repl_policy", "inherit"));
    const RunConfig rc = cfg.makeRunConfig();
    EXPECT_EQ(rc.machine.mem.replPolicy, ReplPolicy::Drrip);
    EXPECT_EQ(rc.machine.mem.l2ReplPolicy, ReplPolicy::Ship);
    EXPECT_EQ(rc.machine.mem.llcReplPolicy, ReplPolicy::Inherit);
    EXPECT_EQ(resolvedReplPolicy(rc.machine.mem, 1), ReplPolicy::Drrip);
    EXPECT_EQ(resolvedReplPolicy(rc.machine.mem, 2), ReplPolicy::Ship);
    EXPECT_EQ(resolvedReplPolicy(rc.machine.mem, 3), ReplPolicy::Drrip);

    // Unknown names list the candidates; the base key has no
    // "inherit" (there is nothing above it to inherit from).
    const auto bad = cfg.set("mem.repl_policy", "plru");
    ASSERT_TRUE(bad);
    EXPECT_NE(bad->find("expects one of"), std::string::npos);
    EXPECT_NE(bad->find("drrip"), std::string::npos);
    EXPECT_TRUE(cfg.set("mem.repl_policy", "inherit"));
}

TEST(Config, SerializeReloadRoundTripsTheResolvedConfig)
{
    Config cfg;
    ASSERT_FALSE(cfg.set("mem.l2_size_kb", "96"));
    ASSERT_FALSE(cfg.set("mem.l1_format", "cal4b"));
    ASSERT_FALSE(cfg.set("core.store_miss_weight", "0.35"));
    ASSERT_FALSE(cfg.set("stack.use_cform", "false"));
    ASSERT_FALSE(cfg.set("layout.seed", "123456789012345"));

    const std::string dump = cfg.serialize();
    Config reloaded;
    const auto error = reloaded.loadText(dump);
    EXPECT_FALSE(error) << *error;
    // The reloaded resolved config is identical, key for key...
    for (const ParamSpec &spec : ParamRegistry::instance().specs())
        EXPECT_EQ(config::renderValue(cfg.resolved(spec.key)),
                  config::renderValue(reloaded.resolved(spec.key)))
            << spec.key;
    // ...and so is the machine it materializes.
    const std::string a =
        Config::fromRunConfig(cfg.makeRunConfig()).serialize(true);
    const std::string b =
        Config::fromRunConfig(reloaded.makeRunConfig()).serialize(true);
    EXPECT_EQ(a, b);
    EXPECT_NE(a.find("mem.l2_size_kb = 96"), std::string::npos);
}

TEST(Config, FileParsingHandlesCommentsBlanksAndDuplicates)
{
    Config cfg;
    const auto error = cfg.loadText("# full-line comment\n"
                                    "\n"
                                    "   \t \n"
                                    "mem.l2_size_kb = 64\n"
                                    "core.mlp=5   # trailing comment\n"
                                    "  mem.l2_size_kb   =  192  \n");
    EXPECT_FALSE(error) << *error;
    // Duplicate keys: the last assignment wins, like repeated --set.
    const RunConfig rc = cfg.makeRunConfig();
    EXPECT_EQ(rc.machine.mem.l2Size, 192u * 1024);
    EXPECT_EQ(rc.machine.core.mlp, 5u);
    EXPECT_EQ(cfg.setCount(), 2u);
}

TEST(Config, FileParsingReportsTheOffendingLine)
{
    Config cfg;
    const auto missing_eq =
        cfg.loadText("mem.levels = 2\njust some words\n");
    ASSERT_TRUE(missing_eq);
    EXPECT_NE(missing_eq->find("line 2"), std::string::npos);

    const auto bad_value = cfg.loadText("\n\nmem.levels = 99\n");
    ASSERT_TRUE(bad_value);
    EXPECT_NE(bad_value->find("line 3"), std::string::npos);

    EXPECT_TRUE(cfg.loadFile("/nonexistent/path/x.conf"));
}

/** Drive parseCliArg over a synthetic argv; returns the Config. */
Config
parseArgs(std::vector<std::string> args)
{
    Config cfg;
    std::vector<char *> argv;
    for (std::string &arg : args)
        argv.push_back(arg.data());
    const int argc = static_cast<int>(argv.size());
    for (int i = 0; i < argc; ++i) {
        const auto r = config::parseCliArg(cfg, argv[i], argc,
                                           argv.data(), i, "test");
        EXPECT_NE(r, config::CliArg::Error) << args[0];
        EXPECT_NE(r, config::CliArg::NotMine) << args[0];
    }
    return cfg;
}

TEST(Config, LegacyFlagsAreRegistryAliases)
{
    // --l2-kb 256 must be byte-identical to --set mem.l2_size_kb=256,
    // and likewise for every aliased flag (ISSUE 4 acceptance).
    const struct
    {
        std::vector<std::string> flag;
        std::vector<std::string> set;
    } cases[] = {
        {{"--l2-kb", "256"}, {"--set", "mem.l2_size_kb=256"}},
        {{"--levels", "2"}, {"--set", "mem.levels=2"}},
        {{"--llc-kb", "1024"}, {"--set", "mem.llc_size_kb=1024"}},
        {{"--l2-lat", "9"}, {"--set", "mem.l2_latency=9"}},
        {{"--llc-lat", "31"}, {"--set", "mem.llc_latency=31"}},
        {{"--fill-conv", "2"}, {"--set", "mem.fill_conv_latency=2"}},
        {{"--spill-conv", "3"}, {"--set", "mem.spill_conv_latency=3"}},
        {{"--wb-queue", "8"}, {"--set", "mem.wb_queue_entries=8"}},
        {{"--l1", "cal1b"}, {"--set", "mem.l1_format=cal1b"}},
        {{"--policy", "full"}, {"--set", "layout.policy=full"}},
    };
    for (const auto &c : cases) {
        const std::string via_flag =
            parseArgs(c.flag).serialize(true);
        const std::string via_set = parseArgs(c.set).serialize(true);
        EXPECT_EQ(via_flag, via_set) << c.flag[0];
        EXPECT_FALSE(via_flag.empty()) << c.flag[0];
    }
}

TEST(Config, FromRunConfigDiffsAgainstDefaults)
{
    EXPECT_EQ(Config::fromRunConfig(RunConfig{}).setCount(), 0u);

    RunConfig rc;
    rc.machine.core.mlp = 6;
    rc.machine.mem.l2Size = 64 * 1024;
    const Config cfg = Config::fromRunConfig(rc);
    EXPECT_EQ(cfg.setCount(), 2u);
    EXPECT_EQ(cfg.serialize(true),
              "mem.l2_size_kb = 64\n\ncore.mlp = 6\n");
    // Applying the diff to a fresh RunConfig reproduces the original.
    const RunConfig back = cfg.makeRunConfig();
    EXPECT_EQ(back.machine.core.mlp, 6u);
    EXPECT_EQ(back.machine.mem.l2Size, 64u * 1024);
}

TEST(Config, DescribeParamsRendersEveryMachineKnob)
{
    // The Table 3 listing is generated from the registry: every
    // mem.*/core.* key appears, so the listing cannot drift from the
    // knob set.
    const std::string listing = describeParams(MachineParams{});
    for (const ParamSpec &spec : ParamRegistry::instance().specs()) {
        if (spec.ns & config::kMachineScope) {
            EXPECT_NE(listing.find(spec.key), std::string::npos)
                << spec.key;
        }
    }
    // Non-default values are flagged.
    MachineParams tweaked;
    tweaked.mem.wbQueueEntries = 8;
    EXPECT_NE(describeParams(tweaked).find("* mem.wb_queue_entries"),
              std::string::npos);
}

TEST(Config, KeyScopeMatrixPinsEveryConsumer)
{
    // Every key's namespace is derived from its prefix, one bit each.
    for (const ParamSpec &spec : ParamRegistry::instance().specs()) {
        ASSERT_TRUE(std::has_single_bit(spec.ns)) << spec.key;
        EXPECT_EQ(spec.key.substr(0, spec.key.find('.')),
                  config::kNamespaceNames[std::countr_zero(spec.ns)]);
    }

    // One key per namespace, in ns:: bit order. layout.min_span is a
    // layout key no campaign grid owns.
    const char *const keys[] = {
        "mem.levels",   "core.mlp",     "layout.min_span",
        "heap.use_cform", "stack.use_cform", "run.scale",
        "workload.ops", "attack.seeds", "fleet.tenant_seed_stride"};
    ASSERT_EQ(std::size(keys), std::size(config::kNamespaceNames));

    const auto suite = [](std::initializer_list<const char *> names) {
        std::vector<const SpecBenchmark *> out;
        for (const char *name : names)
            out.push_back(&findBenchmark(name));
        return out;
    };
    fleet::TenantSpec gen;
    gen.id = "web";
    gen.workload = "zipf";
    fleet::TenantSpec trace;
    trace.id = "db";
    trace.tracePath = "db.trc";

    // consumer -> the namespaces it applies, as its diagnostic lists
    // them. Each row is the declaration the consumer itself uses.
    struct Row
    {
        const char *consumer;
        config::KeyScope scope;
        std::string only;
    };
    const auto fixed = [](unsigned namespaces, const char *target) {
        return config::KeyScope{namespaces, target};
    };
    const std::string machine = "mem.*, core.*";
    const std::string bench =
        "mem.*, core.*, layout.*, heap.*, stack.*, run.*";
    const Row rows[] = {
        {"run mcf", exp::suiteScope(suite({"mcf"}), "benchmark 'mcf'", false),
         bench},
        {"run zipf",
         exp::suiteScope(suite({"zipf"}), "benchmark 'zipf'", false),
         bench + ", workload.*"},
        {"run attack",
         exp::suiteScope(suite({"attack"}), "benchmark 'attack'", false),
         bench + ", attack.*"},
        {"sweep/bench grid",
         exp::suiteScope(suite({"mcf", "gcc"}), "the sweep grid", true),
         bench},
        {"sweep/bench grid with synthetic and attack entries",
         exp::suiteScope(suite({"mcf", "scan", "attack"}),
                         "this harness's grid", true),
         bench + ", workload.*, attack.*"},
        {"harness without a config", fixed(0, "this harness"), ""},
        {"trace run", fixed(config::kMachineScope, "a trace replay"), machine},
        {"trace gen", fixed(config::kTraceGenScope, "trace generation"),
         "workload.*"},
        {"attack", fixed(config::kAttackScope, "the attack scenarios"),
         "mem.*, core.*, layout.*, heap.*, attack.*"},
        {"fleet base with a generator tenant",
         fleet::baseScope({trace, gen}), "mem.*, workload.*, fleet.*"},
        {"fleet base with trace tenants only", fleet::baseScope({trace}),
         "mem.*, fleet.*"},
        {"generator tenant overlay", fleet::overlayScope(gen),
         "mem.*, workload.*"},
        {"trace tenant overlay", fleet::overlayScope(trace), "mem.*"},
        {"describeParams", fixed(config::kMachineScope, "describeParams"),
         machine},
    };

    const std::string listing = describeParams(MachineParams{});
    for (const Row &row : rows) {
        SCOPED_TRACE(row.consumer);
        for (std::size_t n = 0; n < std::size(keys); ++n) {
            const std::string key = keys[n];
            SCOPED_TRACE(key);
            const bool applies =
                (", " + row.only + ",")
                    .find(", " + std::string(config::kNamespaceNames[n]) +
                          ".*,") != std::string::npos;
            EXPECT_EQ((row.scope.namespaces >> n) & 1u, applies ? 1u : 0u);
            Config base;
            ASSERT_FALSE(base.set(
                key, config::renderValue(
                         ParamRegistry::instance().find(key)->def)));
            const auto as_base = row.scope.firstInert(base);
            const auto as_axis = row.scope.firstInert(Config{}, {key});
            if (applies) {
                EXPECT_FALSE(as_base) << *as_base;
                EXPECT_FALSE(as_axis) << *as_axis;
            } else {
                const std::string expected =
                    key + " has no effect on " + row.scope.target +
                    (row.only.empty() ? " (no config key applies)"
                                      : " (only " + row.only + " apply)");
                EXPECT_EQ(as_base.value_or(""), expected);
                EXPECT_EQ(as_axis.value_or(""), expected);
            }
            if (std::string(row.consumer) == "describeParams") {
                EXPECT_EQ(listing.find("  " + key + " ") !=
                              std::string::npos,
                          applies);
            }
        }
    }

    // A grid owns policy, spans and seeds: a base set is rejected, an
    // axis over one is how it is swept. Elsewhere they are plain keys.
    Config owned;
    ASSERT_FALSE(owned.set("layout.seed", "9"));
    const config::KeyScope grid =
        exp::suiteScope(suite({"mcf"}), "this harness's grid", true);
    EXPECT_EQ(grid.firstInert(owned).value_or(""),
              "layout.seed is owned by this harness's grid (its policy, "
              "span and seed axes); a base set would be silently "
              "overridden");
    EXPECT_FALSE(grid.firstInert(Config{}, {"layout.seed"}));
    EXPECT_FALSE(exp::suiteScope(suite({"mcf"}), "benchmark 'mcf'", false)
                     .firstInert(owned));
    const config::KeyScope attack{config::kAttackScope,
                                  "the attack scenarios"};
    EXPECT_FALSE(attack.firstInert(owned));
}

TEST(ConfigGolden, SchemaMatchesCheckedInExpectation)
{
    const std::string path =
        std::string(CALIFORMS_GOLDEN_DIR) + "/config_schema.json";
    const std::string json =
        ParamRegistry::instance().schemaJson();
    if (std::getenv("CALIFORMS_REGEN_GOLDEN")) {
        exp::writeReportFile(path, json);
        GTEST_SKIP() << "regenerated " << path;
    }
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    ASSERT_FALSE(ss.str().empty())
        << "missing golden file " << path
        << " (run with CALIFORMS_REGEN_GOLDEN=1 to create it)";
    EXPECT_EQ(json, ss.str())
        << "registry schema drifted: every knob change must ship its "
           "schema (CALIFORMS_REGEN_GOLDEN=1 after review)";
}

// ---------------------------------------------------------------------
// The campaign-side registry axis: any knob is a grid dimension.
// ---------------------------------------------------------------------

TEST(CampaignAxis, CrossKeySweepsAKnobWithNoDedicatedAxis)
{
    // core.mlp never had a Variant field or CLI axis; the registry
    // makes it sweepable anyway (ISSUE 4 acceptance).
    exp::CampaignSpec spec;
    spec.name = "mlp_axis";
    spec.suite = {&findBenchmark("mcf")};
    spec.base.scale = 0.02;
    spec.variants = exp::CampaignSpec::crossKey(
        {exp::policyVariant("base", InsertionPolicy::None, 0, false),
         exp::policyVariant("full/3", InsertionPolicy::Full, 3, true)},
        "core.mlp", {"1", "12"});
    ASSERT_EQ(spec.variants.size(), 4u);
    EXPECT_EQ(spec.variants[0].label, "base@core.mlp=1");
    EXPECT_EQ(spec.variants[3].label, "full/3@core.mlp=12");

    const auto units = spec.expand();
    for (const exp::RunUnit &unit : units) {
        const unsigned expected =
            unit.variantIndex < 2 ? 1u : 12u;
        EXPECT_EQ(unit.config.machine.core.mlp, expected);
    }

    // An MLP-1 machine exposes every miss serially; the same workload
    // must be slower than at the default MLP of 12.
    const exp::CampaignResult result = exp::runCampaign(spec, 2);
    EXPECT_GT(result.mean(0, 0), result.mean(0, 2));

    // The report embeds the variant's resolved non-default config.
    exp::ReportTiming timing;
    timing.include = false;
    const std::string json = exp::campaignJson(result, timing);
    EXPECT_NE(json.find("\"config\": {\"core.mlp\": 1, "
                        "\"layout.policy\": \"none\""),
              std::string::npos);
    EXPECT_NE(json.find("\"config\": {\"core.mlp\": 12, "
                        "\"layout.policy\": \"full\""),
              std::string::npos);
}

TEST(CampaignAxis, LayoutSeedOverrideBeatsTheSeedList)
{
    // A layout.seed set must actually apply — the report embeds it as
    // the variant's config, so the implicit campaign seed axis may not
    // silently overwrite it.
    exp::CampaignSpec spec;
    spec.suite = {&findBenchmark("mcf")};
    spec.layoutSeeds = {1000, 1001};
    exp::Variant pinned =
        exp::policyVariant("pinned", InsertionPolicy::Full, 3, true);
    pinned.withSet("layout.seed", "42");
    spec.variants = {pinned};
    for (const exp::RunUnit &unit : spec.expand())
        EXPECT_EQ(unit.config.layoutSeed, 42u);
}

TEST(CampaignAxis, CrossKeyAndWithSetRejectBadInput)
{
    const std::vector<exp::Variant> base = {exp::Variant{"base", {}}};
    EXPECT_THROW(exp::CampaignSpec::crossKey(base, "nope.key", {"1"}),
                 std::invalid_argument);
    EXPECT_THROW(
        exp::CampaignSpec::crossKey(base, "core.mlp", {"0"}),
        std::invalid_argument);
    exp::Variant v;
    EXPECT_THROW(v.withSet("core.mlp", "banana"),
                 std::invalid_argument);
    v.withSet("core.mlp", "8");
    EXPECT_EQ(v.sets.size(), 1u);
}

// ---------------------------------------------------------------------
// Satellite: the strict list-parsing contract (malformed != empty).
// ---------------------------------------------------------------------

TEST(ParseList, MalformedInputIsDistinguishableFromEmpty)
{
    EXPECT_EQ(parseSizeList("3,5,7"),
              (std::vector<std::size_t>{3, 5, 7}));
    EXPECT_EQ(parseSizeList("42"), std::vector<std::size_t>{42});
    // The old contract returned {} for all of these — callers could
    // not tell a parse error from an empty list. Now they are errors.
    EXPECT_EQ(parseSizeList(""), std::nullopt);
    EXPECT_EQ(parseSizeList("3,,5"), std::nullopt);
    EXPECT_EQ(parseSizeList("3,x"), std::nullopt);
    EXPECT_EQ(parseSizeList("-3"), std::nullopt);
    EXPECT_EQ(parseSizeList("3,5,"), std::nullopt);
    EXPECT_EQ(parseSizeList("1e3"), std::nullopt);
}

TEST(ParseList, ScalarParsersAreStrict)
{
    EXPECT_EQ(parseU64("0"), 0u);
    EXPECT_EQ(parseU64("18446744073709551615"),
              std::numeric_limits<std::uint64_t>::max());
    EXPECT_EQ(parseU64("18446744073709551616"), std::nullopt);
    EXPECT_EQ(parseU64(" 3"), std::nullopt);
    EXPECT_EQ(parseU64("+3"), std::nullopt);
    EXPECT_EQ(parseDouble("0.25"), 0.25);
    EXPECT_EQ(parseDouble("1e2"), 100.0);
    EXPECT_EQ(parseDouble("nan"), std::nullopt);
    EXPECT_EQ(parseDouble("inf"), std::nullopt);
    EXPECT_EQ(parseDouble("1.5x"), std::nullopt);
    EXPECT_EQ(parseBool("true"), true);
    EXPECT_EQ(parseBool("off"), false);
    EXPECT_EQ(parseBool("TRUE"), std::nullopt);
}

} // namespace
} // namespace califorms
