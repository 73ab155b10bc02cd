#include "config/registry.hh"

#include <iterator>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "layout/policy.hh"
#include "security/scenarios.hh"
#include "security/victims.hh"
#include "util/jsonout.hh"
#include "util/parse.hh"

namespace califorms::config
{

namespace
{

/** A UInt knob: @p get/@p set view the field as uint64 (unit scaling,
 *  e.g. KB <-> bytes, lives inside the accessors). */
template <typename Get, typename Set>
ParamSpec
uintKnob(const char *key, std::uint64_t min, std::uint64_t max,
         const char *flag, const char *doc, Get get, Set set)
{
    ParamSpec s;
    s.key = key;
    s.type = ParamType::UInt;
    s.minU = min;
    s.maxU = max;
    s.flag = flag;
    s.doc = doc;
    s.apply = [set](RunConfig &rc, const ParamValue &v) {
        set(rc, std::get<std::uint64_t>(v));
    };
    s.read = [get](const RunConfig &rc) {
        return ParamValue{static_cast<std::uint64_t>(get(rc))};
    };
    return s;
}

template <typename Get, typename Set>
ParamSpec
doubleKnob(const char *key, double min, double max, const char *doc,
           Get get, Set set)
{
    ParamSpec s;
    s.key = key;
    s.type = ParamType::Double;
    s.minD = min;
    s.maxD = max;
    s.doc = doc;
    s.apply = [set](RunConfig &rc, const ParamValue &v) {
        set(rc, std::get<double>(v));
    };
    s.read = [get](const RunConfig &rc) {
        return ParamValue{static_cast<double>(get(rc))};
    };
    return s;
}

template <typename Get, typename Set>
ParamSpec
boolKnob(const char *key, const char *doc, Get get, Set set)
{
    ParamSpec s;
    s.key = key;
    s.type = ParamType::Bool;
    s.doc = doc;
    s.apply = [set](RunConfig &rc, const ParamValue &v) {
        set(rc, std::get<bool>(v));
    };
    s.read = [get](const RunConfig &rc) {
        return ParamValue{static_cast<bool>(get(rc))};
    };
    return s;
}

/** An Enum knob: @p get renders the current name, @p set consumes a
 *  validated member of @p choices. */
template <typename Get, typename Set>
ParamSpec
enumKnob(const char *key, std::vector<std::string> choices,
         const char *flag, const char *doc, Get get, Set set)
{
    ParamSpec s;
    s.key = key;
    s.type = ParamType::Enum;
    s.choices = std::move(choices);
    s.flag = flag;
    s.doc = doc;
    s.apply = [set](RunConfig &rc, const ParamValue &v) {
        set(rc, std::get<std::string>(v));
    };
    s.read = [get](const RunConfig &rc) {
        return ParamValue{std::string(get(rc))};
    };
    return s;
}

/** One registration path for every enum knob: the EnumTable is the
 *  single source of the choices vocabulary, the renderer, and the
 *  parser (which rejects unknown names with the candidate list). @p
 *  table must have static lifetime — the lambdas keep a reference. */
template <typename E, typename Get, typename Set>
ParamSpec
enumSpec(const char *key, const EnumTable<E> &table, const char *flag,
         const char *doc, Get get, Set set)
{
    return enumKnob(
        key, table.names(), flag, doc,
        [&table, get](const RunConfig &rc) {
            return table.name(get(rc));
        },
        [&table, set](RunConfig &rc, const std::string &name) {
            set(rc, table.value(name));
        });
}

const EnumTable<L1Format> &
l1FormatTable()
{
    static const EnumTable<L1Format> table(
        "L1 format", {{"bitvector", L1Format::BitVector8B},
                      {"cal4b", L1Format::Cal4B},
                      {"cal1b", L1Format::Cal1B}});
    return table;
}

const EnumTable<CoherenceKind> &
coherenceTable()
{
    static const EnumTable<CoherenceKind> table(
        "coherence kind",
        {{"none", CoherenceKind::None}, {"msi", CoherenceKind::Msi}});
    return table;
}

/** Names derive from replPolicyName() so the config vocabulary cannot
 *  drift from the sim-side table. The machine-wide knob excludes
 *  "inherit"; the per-level overrides include it. */
const EnumTable<ReplPolicy> &
replPolicyTable()
{
    static const EnumTable<ReplPolicy> table(
        "replacement policy",
        {{replPolicyName(ReplPolicy::Lru), ReplPolicy::Lru},
         {replPolicyName(ReplPolicy::Random), ReplPolicy::Random},
         {replPolicyName(ReplPolicy::Dip), ReplPolicy::Dip},
         {replPolicyName(ReplPolicy::Drrip), ReplPolicy::Drrip},
         {replPolicyName(ReplPolicy::Ship), ReplPolicy::Ship}});
    return table;
}

const EnumTable<ReplPolicy> &
replPolicyOverrideTable()
{
    static const EnumTable<ReplPolicy> table(
        "replacement policy",
        {{replPolicyName(ReplPolicy::Inherit), ReplPolicy::Inherit},
         {replPolicyName(ReplPolicy::Lru), ReplPolicy::Lru},
         {replPolicyName(ReplPolicy::Random), ReplPolicy::Random},
         {replPolicyName(ReplPolicy::Dip), ReplPolicy::Dip},
         {replPolicyName(ReplPolicy::Drrip), ReplPolicy::Drrip},
         {replPolicyName(ReplPolicy::Ship), ReplPolicy::Ship}});
    return table;
}

} // namespace

std::string
renderValue(const ParamValue &value)
{
    struct Render
    {
        std::string operator()(std::uint64_t v) const
        {
            return std::to_string(v);
        }
        std::string operator()(double v) const
        {
            return jsonNumber(v);
        }
        std::string operator()(bool v) const
        {
            return v ? "true" : "false";
        }
        std::string operator()(const std::string &v) const { return v; }
    };
    return std::visit(Render{}, value);
}

const char *
paramTypeName(ParamType type)
{
    switch (type) {
    case ParamType::UInt:
        return "uint";
    case ParamType::Double:
        return "double";
    case ParamType::Bool:
        return "bool";
    case ParamType::Enum:
        return "enum";
    }
    return "?";
}

const ParamRegistry &
ParamRegistry::instance()
{
    static const ParamRegistry registry;
    return registry;
}

ParamRegistry::ParamRegistry()
{
    // ----------------------------------------------------------------
    // mem.* — cache hierarchy and DRAM (MemSysParams, Table 3).
    // ----------------------------------------------------------------
    specs_.push_back(uintKnob(
        "mem.levels", 1, 3, "--levels",
        "cache hierarchy depth: 1 = L1 only, 2 = +L2, 3 = +L2+LLC",
        [](const RunConfig &rc) { return rc.machine.mem.levels; },
        [](RunConfig &rc, std::uint64_t v) {
            rc.machine.mem.levels = static_cast<unsigned>(v);
        }));
    specs_.push_back(uintKnob(
        "mem.l1_size_kb", 1, 1 << 20, "",
        "L1 data cache capacity in KB",
        [](const RunConfig &rc) { return rc.machine.mem.l1Size / 1024; },
        [](RunConfig &rc, std::uint64_t v) {
            rc.machine.mem.l1Size = static_cast<std::size_t>(v) * 1024;
        }));
    specs_.push_back(uintKnob(
        "mem.l1_ways", 1, 64, "", "L1 data cache associativity",
        [](const RunConfig &rc) { return rc.machine.mem.l1Ways; },
        [](RunConfig &rc, std::uint64_t v) {
            rc.machine.mem.l1Ways = static_cast<unsigned>(v);
        }));
    specs_.push_back(uintKnob(
        "mem.l1_latency", 1, 10000, "",
        "L1 load-to-use hit latency in cycles",
        [](const RunConfig &rc) { return rc.machine.mem.l1Latency; },
        [](RunConfig &rc, std::uint64_t v) {
            rc.machine.mem.l1Latency = static_cast<Cycles>(v);
        }));
    specs_.push_back(enumSpec(
        "mem.l1_format", l1FormatTable(), "--l1",
        "L1 metadata organization (Table 7 / Appendix A variants)",
        [](const RunConfig &rc) { return rc.machine.mem.l1Format; },
        [](RunConfig &rc, L1Format v) {
            rc.machine.mem.l1Format = v;
        }));
    specs_.push_back(uintKnob(
        "mem.l2_size_kb", 0, 1 << 20, "--l2-kb",
        "L2 capacity in KB; 0 disables the L2",
        [](const RunConfig &rc) { return rc.machine.mem.l2Size / 1024; },
        [](RunConfig &rc, std::uint64_t v) {
            rc.machine.mem.l2Size = static_cast<std::size_t>(v) * 1024;
        }));
    specs_.push_back(uintKnob(
        "mem.l2_ways", 1, 64, "", "L2 associativity",
        [](const RunConfig &rc) { return rc.machine.mem.l2Ways; },
        [](RunConfig &rc, std::uint64_t v) {
            rc.machine.mem.l2Ways = static_cast<unsigned>(v);
        }));
    specs_.push_back(uintKnob(
        "mem.l2_latency", 1, 10000, "--l2-lat",
        "L2 hit latency in cycles",
        [](const RunConfig &rc) { return rc.machine.mem.l2Latency; },
        [](RunConfig &rc, std::uint64_t v) {
            rc.machine.mem.l2Latency = static_cast<Cycles>(v);
        }));
    specs_.push_back(uintKnob(
        "mem.llc_size_kb", 0, 1 << 20, "--llc-kb",
        "LLC capacity in KB; 0 disables the LLC",
        [](const RunConfig &rc) { return rc.machine.mem.l3Size / 1024; },
        [](RunConfig &rc, std::uint64_t v) {
            rc.machine.mem.l3Size = static_cast<std::size_t>(v) * 1024;
        }));
    specs_.push_back(uintKnob(
        "mem.llc_ways", 1, 64, "", "LLC associativity",
        [](const RunConfig &rc) { return rc.machine.mem.l3Ways; },
        [](RunConfig &rc, std::uint64_t v) {
            rc.machine.mem.l3Ways = static_cast<unsigned>(v);
        }));
    specs_.push_back(uintKnob(
        "mem.llc_latency", 1, 10000, "--llc-lat",
        "LLC hit latency in cycles",
        [](const RunConfig &rc) { return rc.machine.mem.l3Latency; },
        [](RunConfig &rc, std::uint64_t v) {
            rc.machine.mem.l3Latency = static_cast<Cycles>(v);
        }));
    specs_.push_back(uintKnob(
        "mem.dram_latency", 1, 100000, "",
        "average DRAM load latency in cycles",
        [](const RunConfig &rc) { return rc.machine.mem.dramLatency; },
        [](RunConfig &rc, std::uint64_t v) {
            rc.machine.mem.dramLatency = static_cast<Cycles>(v);
        }));
    specs_.push_back(uintKnob(
        "mem.extra_l2l3_latency", 0, 10000, "",
        "extra cycles on every L2/LLC access (Figure 10 pessimism)",
        [](const RunConfig &rc) {
            return rc.machine.mem.extraL2L3Latency;
        },
        [](RunConfig &rc, std::uint64_t v) {
            rc.machine.mem.extraL2L3Latency = static_cast<Cycles>(v);
        }));
    specs_.push_back(uintKnob(
        "mem.fill_conv_latency", 0, 10000, "--fill-conv",
        "cycles charged per sentinel->bitvector fill conversion",
        [](const RunConfig &rc) {
            return rc.machine.mem.fillConvLatency;
        },
        [](RunConfig &rc, std::uint64_t v) {
            rc.machine.mem.fillConvLatency = static_cast<Cycles>(v);
        }));
    specs_.push_back(uintKnob(
        "mem.spill_conv_latency", 0, 10000, "--spill-conv",
        "cycles charged per bitvector->sentinel spill conversion",
        [](const RunConfig &rc) {
            return rc.machine.mem.spillConvLatency;
        },
        [](RunConfig &rc, std::uint64_t v) {
            rc.machine.mem.spillConvLatency = static_cast<Cycles>(v);
        }));
    // Queue lookups are linear scans on the miss path; depths far
    // beyond any realistic victim buffer are rejected rather than
    // silently turning the simulator quadratic.
    specs_.push_back(uintKnob(
        "mem.wb_queue_entries", 0, 512, "--wb-queue",
        "dirty write-back queue depth (0 = immediate write-back)",
        [](const RunConfig &rc) {
            return rc.machine.mem.wbQueueEntries;
        },
        [](RunConfig &rc, std::uint64_t v) {
            rc.machine.mem.wbQueueEntries = static_cast<unsigned>(v);
        }));
    specs_.push_back(uintKnob(
        "mem.wb_hit_latency", 1, 10000, "",
        "latency of an L1 miss served from the write-back queue",
        [](const RunConfig &rc) { return rc.machine.mem.wbHitLatency; },
        [](RunConfig &rc, std::uint64_t v) {
            rc.machine.mem.wbHitLatency = static_cast<Cycles>(v);
        }));
    specs_.push_back(uintKnob(
        "mem.mshr_entries", 0, 512, "--mshrs",
        "miss-status holding registers between the L1 and the shared "
        "side (0 = legacy blocking miss path)",
        [](const RunConfig &rc) { return rc.machine.mem.mshrEntries; },
        [](RunConfig &rc, std::uint64_t v) {
            rc.machine.mem.mshrEntries = static_cast<unsigned>(v);
        }));
    specs_.push_back(uintKnob(
        "mem.dram_banks", 0, 64, "--dram-banks",
        "DRAM banks with per-bank open-row timing (0 = flat "
        "mem.dram_latency model)",
        [](const RunConfig &rc) { return rc.machine.mem.dramBanks; },
        [](RunConfig &rc, std::uint64_t v) {
            rc.machine.mem.dramBanks = static_cast<unsigned>(v);
        }));
    specs_.push_back(uintKnob(
        "mem.dram_row_kb", 1, 1024, "",
        "DRAM row-buffer (page) size per bank in KB",
        [](const RunConfig &rc) {
            return rc.machine.mem.dramRowBytes / 1024;
        },
        [](RunConfig &rc, std::uint64_t v) {
            rc.machine.mem.dramRowBytes =
                static_cast<std::size_t>(v) * 1024;
        }));
    specs_.push_back(uintKnob(
        "mem.dram_row_hit_latency", 1, 100000, "",
        "banked DRAM: latency of an access hitting the open row",
        [](const RunConfig &rc) {
            return rc.machine.mem.dramRowHitLatency;
        },
        [](RunConfig &rc, std::uint64_t v) {
            rc.machine.mem.dramRowHitLatency = static_cast<Cycles>(v);
        }));
    specs_.push_back(uintKnob(
        "mem.dram_row_miss_latency", 1, 100000, "",
        "banked DRAM: latency of an access to a bank with no open row",
        [](const RunConfig &rc) {
            return rc.machine.mem.dramRowMissLatency;
        },
        [](RunConfig &rc, std::uint64_t v) {
            rc.machine.mem.dramRowMissLatency = static_cast<Cycles>(v);
        }));
    specs_.push_back(uintKnob(
        "mem.dram_row_conflict_latency", 1, 100000, "",
        "banked DRAM: latency when another row is open (precharge + "
        "activate)",
        [](const RunConfig &rc) {
            return rc.machine.mem.dramRowConflictLatency;
        },
        [](RunConfig &rc, std::uint64_t v) {
            rc.machine.mem.dramRowConflictLatency =
                static_cast<Cycles>(v);
        }));
    specs_.push_back(boolKnob(
        "mem.next_line_prefetch",
        "next-line prefetch into the L2 on L1 misses",
        [](const RunConfig &rc) {
            return rc.machine.mem.nextLinePrefetch;
        },
        [](RunConfig &rc, bool v) {
            rc.machine.mem.nextLinePrefetch = v;
        }));
    specs_.push_back(enumSpec(
        "mem.coherence", coherenceTable(), "",
        "inter-core coherence below the private L1s: none = legacy "
        "single-requester semantics, msi = invalidation-based MSI "
        "directory (only meaningful when core.count > 1)",
        [](const RunConfig &rc) { return rc.machine.mem.coherence; },
        [](RunConfig &rc, CoherenceKind v) {
            rc.machine.mem.coherence = v;
        }));
    specs_.push_back(enumSpec(
        "mem.repl_policy", replPolicyTable(), "",
        "victim-selection policy of every cache level (sim/repl/): "
        "lru = historical true-LRU machine, random = seeded "
        "deterministic, dip = LIP vs LRU set dueling, drrip = "
        "SRRIP vs BRRIP set dueling, ship = SHiP-lite signature "
        "predictor",
        [](const RunConfig &rc) { return rc.machine.mem.replPolicy; },
        [](RunConfig &rc, ReplPolicy v) {
            rc.machine.mem.replPolicy = v;
        }));
    specs_.push_back(enumSpec(
        "mem.l2_repl_policy", replPolicyOverrideTable(), "",
        "L2 override of mem.repl_policy (inherit = follow it)",
        [](const RunConfig &rc) {
            return rc.machine.mem.l2ReplPolicy;
        },
        [](RunConfig &rc, ReplPolicy v) {
            rc.machine.mem.l2ReplPolicy = v;
        }));
    specs_.push_back(enumSpec(
        "mem.llc_repl_policy", replPolicyOverrideTable(), "",
        "LLC override of mem.repl_policy (inherit = follow it)",
        [](const RunConfig &rc) {
            return rc.machine.mem.llcReplPolicy;
        },
        [](RunConfig &rc, ReplPolicy v) {
            rc.machine.mem.llcReplPolicy = v;
        }));

    // ----------------------------------------------------------------
    // core.* — out-of-order core approximation (CoreParams).
    // ----------------------------------------------------------------
    specs_.push_back(uintKnob(
        "core.count", 1, 32, "--cores",
        "number of homogeneous cores; each owns a private L1 and "
        "shares L2/LLC/DRAM (1 = the legacy single-requester machine)",
        [](const RunConfig &rc) { return rc.machine.core.count; },
        [](RunConfig &rc, std::uint64_t v) {
            rc.machine.core.count = static_cast<unsigned>(v);
        }));
    specs_.push_back(uintKnob(
        "core.issue_width", 1, 64, "", "max ops retired per cycle",
        [](const RunConfig &rc) { return rc.machine.core.issueWidth; },
        [](RunConfig &rc, std::uint64_t v) {
            rc.machine.core.issueWidth = static_cast<unsigned>(v);
        }));
    specs_.push_back(uintKnob(
        "core.mlp", 1, 1024, "",
        "overlap factor for independent misses",
        [](const RunConfig &rc) { return rc.machine.core.mlp; },
        [](RunConfig &rc, std::uint64_t v) {
            rc.machine.core.mlp = static_cast<unsigned>(v);
        }));
    specs_.push_back(doubleKnob(
        "core.store_miss_weight", 0.0, 1.0,
        "fraction of store miss latency exposed to the window",
        [](const RunConfig &rc) {
            return rc.machine.core.storeMissWeight;
        },
        [](RunConfig &rc, double v) {
            rc.machine.core.storeMissWeight = v;
        }));
    specs_.push_back(doubleKnob(
        "core.cform_miss_weight", 0.0, 1.0,
        "fraction of CFORM miss latency exposed (Section 5.3)",
        [](const RunConfig &rc) {
            return rc.machine.core.cformMissWeight;
        },
        [](RunConfig &rc, double v) {
            rc.machine.core.cformMissWeight = v;
        }));
    specs_.push_back(doubleKnob(
        "core.dram_cycles_per_line", 0.0, 1000.0,
        "DRAM bandwidth roofline: core cycles per line moved",
        [](const RunConfig &rc) {
            return rc.machine.core.dramCyclesPerLine;
        },
        [](RunConfig &rc, double v) {
            rc.machine.core.dramCyclesPerLine = v;
        }));

    // ----------------------------------------------------------------
    // layout.* — security byte insertion (InsertionPolicy +
    // PolicyParams + the layout randomization seed).
    // ----------------------------------------------------------------
    // Choices derive from policyName() (plus the historical CLI
    // spelling "fixed"), so the vocabulary cannot drift from the
    // parsePolicyName table in src/layout/policy.cc.
    specs_.push_back(enumKnob(
        "layout.policy",
        {policyName(InsertionPolicy::None),
         policyName(InsertionPolicy::Opportunistic),
         policyName(InsertionPolicy::Full),
         policyName(InsertionPolicy::Intelligent), "fixed",
         policyName(InsertionPolicy::FullFixed)},
        "--policy", "security byte insertion policy (Listing 1)",
        [](const RunConfig &rc) { return policyName(rc.policy); },
        [](RunConfig &rc, const std::string &name) {
            // value() (not *) so a choices/parse table mismatch is a
            // loud exception instead of undefined behaviour.
            rc.policy = parsePolicyName(name).value();
        }));
    specs_.push_back(uintKnob(
        "layout.min_span", 1, 64, "",
        "minimum random security span size in bytes",
        [](const RunConfig &rc) { return rc.policyParams.minSpan; },
        [](RunConfig &rc, std::uint64_t v) {
            rc.policyParams.minSpan = static_cast<std::size_t>(v);
        }));
    specs_.push_back(uintKnob(
        "layout.max_span", 1, 64, "",
        "maximum random security span size in bytes (Section 8.2 "
        "sweeps 3/5/7)",
        [](const RunConfig &rc) { return rc.policyParams.maxSpan; },
        [](RunConfig &rc, std::uint64_t v) {
            rc.policyParams.maxSpan = static_cast<std::size_t>(v);
        }));
    specs_.push_back(uintKnob(
        "layout.fixed_span", 1, 64, "",
        "span size for the full-fixed policy (Figure 4)",
        [](const RunConfig &rc) { return rc.policyParams.fixedSpan; },
        [](RunConfig &rc, std::uint64_t v) {
            rc.policyParams.fixedSpan = static_cast<std::size_t>(v);
        }));
    specs_.push_back(uintKnob(
        "layout.seed", 0, std::numeric_limits<std::uint64_t>::max(),
        "", "layout randomization seed (one seed = one compiled binary)",
        [](const RunConfig &rc) { return rc.layoutSeed; },
        [](RunConfig &rc, std::uint64_t v) { rc.layoutSeed = v; }));

    // ----------------------------------------------------------------
    // heap.* / stack.* — allocator behaviour (HeapParams/StackParams).
    // ----------------------------------------------------------------
    specs_.push_back(uintKnob(
        "heap.guard_bytes", 0, 4096, "",
        "inter-object guard bytes on each side of a heap allocation",
        [](const RunConfig &rc) { return rc.heap.guardBytes; },
        [](RunConfig &rc, std::uint64_t v) {
            rc.heap.guardBytes = static_cast<std::size_t>(v);
        }));
    specs_.push_back(doubleKnob(
        "heap.quarantine_fraction", 0.0, 1.0,
        "freed-block quarantine as a fraction of peak heap (0 "
        "disables)",
        [](const RunConfig &rc) { return rc.heap.quarantineFraction; },
        [](RunConfig &rc, double v) {
            rc.heap.quarantineFraction = v;
        }));
    specs_.push_back(boolKnob(
        "heap.use_cform",
        "issue CFORM instructions for heap security bytes",
        [](const RunConfig &rc) { return rc.heap.useCform; },
        [](RunConfig &rc, bool v) { rc.heap.useCform = v; }));
    specs_.push_back(boolKnob(
        "heap.non_temporal_cform",
        "use the streaming (non-temporal) CFORM variant on the heap",
        [](const RunConfig &rc) { return rc.heap.nonTemporalCform; },
        [](RunConfig &rc, bool v) { rc.heap.nonTemporalCform = v; }));
    specs_.push_back(boolKnob(
        "stack.use_cform",
        "issue CFORM instructions for stack-local security bytes",
        [](const RunConfig &rc) { return rc.stack.useCform; },
        [](RunConfig &rc, bool v) { rc.stack.useCform = v; }));

    // ----------------------------------------------------------------
    // run.* — experiment control.
    // ----------------------------------------------------------------
    specs_.push_back(doubleKnob(
        "run.scale", 0.001, 100.0,
        "workload iteration multiplier (1.0 = full bench size)",
        [](const RunConfig &rc) { return rc.scale; },
        [](RunConfig &rc, double v) { rc.scale = v; }));
    specs_.push_back(uintKnob(
        "run.kernel_seed", 0,
        std::numeric_limits<std::uint64_t>::max(), "",
        "kernel work seed (keep fixed across configurations)",
        [](const RunConfig &rc) { return rc.kernelSeed; },
        [](RunConfig &rc, std::uint64_t v) { rc.kernelSeed = v; }));

    // ----------------------------------------------------------------
    // workload.* — synthetic workload generators (SynthParams; only
    // the synthetic benchmarks — the classic synthSuite() five (zipf,
    // stream, stackchurn, ring, attackmix) and the adversarialSuite()
    // replacement stressors (thrash, scan, mixed) — consume these).
    // ----------------------------------------------------------------
    specs_.push_back(uintKnob(
        "workload.ops", 1, 1u << 30, "",
        "base generator operation count (scaled by run.scale)",
        [](const RunConfig &rc) { return rc.synth.ops; },
        [](RunConfig &rc, std::uint64_t v) {
            rc.synth.ops = static_cast<std::size_t>(v);
        }));
    specs_.push_back(uintKnob(
        "workload.footprint_kb", 4, 1u << 20, "",
        "working set of the address-stream workloads in KB",
        [](const RunConfig &rc) { return rc.synth.footprintKb; },
        [](RunConfig &rc, std::uint64_t v) {
            rc.synth.footprintKb = static_cast<std::size_t>(v);
        }));
    specs_.push_back(doubleKnob(
        "workload.zipf_alpha", 0.0, 4.0,
        "zipfian skew: 0 = uniform, 1 = classic zipf, larger = hotter",
        [](const RunConfig &rc) { return rc.synth.zipfAlpha; },
        [](RunConfig &rc, double v) { rc.synth.zipfAlpha = v; }));
    specs_.push_back(uintKnob(
        "workload.stride_bytes", 8, 4096, "",
        "element stride in bytes (rounded up to a multiple of 8)",
        [](const RunConfig &rc) { return rc.synth.strideBytes; },
        [](RunConfig &rc, std::uint64_t v) {
            rc.synth.strideBytes = static_cast<std::size_t>(v);
        }));
    specs_.push_back(uintKnob(
        "workload.ring_slots", 2, 1u << 20, "",
        "producer-consumer ring: number of slots",
        [](const RunConfig &rc) { return rc.synth.ringSlots; },
        [](RunConfig &rc, std::uint64_t v) {
            rc.synth.ringSlots = static_cast<std::size_t>(v);
        }));
    specs_.push_back(uintKnob(
        "workload.ring_burst", 1, 256, "",
        "producer-consumer ring: slots written/read per burst",
        [](const RunConfig &rc) { return rc.synth.ringBurst; },
        [](RunConfig &rc, std::uint64_t v) {
            rc.synth.ringBurst = static_cast<std::size_t>(v);
        }));
    specs_.push_back(uintKnob(
        "workload.stack_depth", 1, 256, "",
        "stack-churn call tree: maximum frame depth",
        [](const RunConfig &rc) { return rc.synth.stackDepth; },
        [](RunConfig &rc, std::uint64_t v) {
            rc.synth.stackDepth = static_cast<std::size_t>(v);
        }));
    specs_.push_back(uintKnob(
        "workload.stack_fanout", 1, 64, "",
        "stack-churn call tree: branching factor (pop depth spread)",
        [](const RunConfig &rc) { return rc.synth.stackFanout; },
        [](RunConfig &rc, std::uint64_t v) {
            rc.synth.stackFanout = static_cast<std::size_t>(v);
        }));
    specs_.push_back(uintKnob(
        "workload.attack_period", 8, 1u << 20, "",
        "attack-mix: benign ops between attack probes",
        [](const RunConfig &rc) { return rc.synth.attackPeriod; },
        [](RunConfig &rc, std::uint64_t v) {
            rc.synth.attackPeriod = static_cast<std::size_t>(v);
        }));
    specs_.push_back(uintKnob(
        "workload.seed", 0,
        std::numeric_limits<std::uint64_t>::max(), "",
        "generator stream seed (independent of the layout seed)",
        [](const RunConfig &rc) { return rc.synth.seed; },
        [](RunConfig &rc, std::uint64_t v) { rc.synth.seed = v; }));
    specs_.push_back(uintKnob(
        "workload.core_seed_stride", 0,
        std::numeric_limits<std::uint64_t>::max(), "",
        "multi-core fan-out: core c's stream seed is workload.seed + "
        "stride * c (0 = every core replays the identical stream)",
        [](const RunConfig &rc) { return rc.synth.coreSeedStride; },
        [](RunConfig &rc, std::uint64_t v) {
            rc.synth.coreSeedStride = v;
        }));
    specs_.push_back(uintKnob(
        "workload.protect_lines", 0, 4096, "",
        "multi-core fan-out: CFORM-protect this many of the "
        "workload's hottest shared lines before the streams start "
        "(0 disables the preamble)",
        [](const RunConfig &rc) { return rc.synth.protectLines; },
        [](RunConfig &rc, std::uint64_t v) {
            rc.synth.protectLines = static_cast<std::size_t>(v);
        }));
    specs_.push_back(uintKnob(
        "workload.thrash_kb", 64, 1u << 20, "",
        "thrash: cyclic working set in KB (default just over the 2MB "
        "LLC, the LRU worst case)",
        [](const RunConfig &rc) { return rc.synth.thrashKb; },
        [](RunConfig &rc, std::uint64_t v) {
            rc.synth.thrashKb = static_cast<std::size_t>(v);
        }));
    specs_.push_back(uintKnob(
        "workload.hot_kb", 4, 1u << 20, "",
        "scan/mixed: reused hot working set in KB",
        [](const RunConfig &rc) { return rc.synth.hotKb; },
        [](RunConfig &rc, std::uint64_t v) {
            rc.synth.hotKb = static_cast<std::size_t>(v);
        }));
    specs_.push_back(uintKnob(
        "workload.scan_kb", 4, 1u << 20, "",
        "scan/mixed: one-shot streaming episode size in KB (fresh "
        "lines every episode, never revisited)",
        [](const RunConfig &rc) { return rc.synth.scanKb; },
        [](RunConfig &rc, std::uint64_t v) {
            rc.synth.scanKb = static_cast<std::size_t>(v);
        }));
    specs_.push_back(uintKnob(
        "workload.scan_period", 1, 1u << 20, "",
        "scan/mixed: hot-set operations between scan episodes",
        [](const RunConfig &rc) { return rc.synth.scanPeriod; },
        [](RunConfig &rc, std::uint64_t v) {
            rc.synth.scanPeriod = static_cast<std::size_t>(v);
        }));

    // ----------------------------------------------------------------
    // fleet.* — multi-tenant serving engine (FleetParams; only
    // `califorms fleet` consumes these, including the fleet anchor
    // bench/fleet.manifest). The pool runs one task per tenant, so
    // scheduling has no knob here.
    // ----------------------------------------------------------------
    specs_.push_back(uintKnob(
        "fleet.tenant_seed_stride", 0,
        std::numeric_limits<std::uint64_t>::max(), "",
        "tenant t's generator seed is workload.seed + stride * t "
        "unless the tenant overlay pins workload.seed (0 = identical "
        "streams for same-workload tenants)",
        [](const RunConfig &rc) { return rc.fleet.tenantSeedStride; },
        [](RunConfig &rc, std::uint64_t v) {
            rc.fleet.tenantSeedStride = v;
        }));

    // ----------------------------------------------------------------
    // attack.* — red-team scenario suite (AttackParams; only the
    // attack replay benchmark and `califorms attack` consume these).
    // ----------------------------------------------------------------
    specs_.push_back(enumKnob(
        "attack.scenario", attackScenarioNames(), "",
        "which registered attack scenario the replay runs",
        [](const RunConfig &rc) { return rc.attack.scenario; },
        [](RunConfig &rc, const std::string &v) {
            rc.attack.scenario = v;
        }));
    specs_.push_back(enumKnob(
        "attack.victim", attackVictimNames(), "",
        "victim struct from the named corpus (security/victims)",
        [](const RunConfig &rc) { return rc.attack.victim; },
        [](RunConfig &rc, const std::string &v) {
            rc.attack.victim = v;
        }));
    specs_.push_back(uintKnob(
        "attack.seeds", 1, 1u << 16, "",
        "independent attacker/layout trials per run unit",
        [](const RunConfig &rc) { return rc.attack.seeds; },
        [](RunConfig &rc, std::uint64_t v) { rc.attack.seeds = v; }));
    specs_.push_back(uintKnob(
        "attack.objects", 1, 1u << 16, "--objects",
        "victim heap population for scan/probe",
        [](const RunConfig &rc) { return rc.attack.objects; },
        [](RunConfig &rc, std::uint64_t v) { rc.attack.objects = v; }));
    specs_.push_back(uintKnob(
        "attack.crash_budget", 0, 1u << 20, "--crashes",
        "respawns the attacker may consume before giving up",
        [](const RunConfig &rc) { return rc.attack.crashBudget; },
        [](RunConfig &rc, std::uint64_t v) {
            rc.attack.crashBudget = v;
        }));
    specs_.push_back(uintKnob(
        "attack.probe_budget", 1, 1u << 24, "",
        "probe budget for the blind random-probe scenario",
        [](const RunConfig &rc) { return rc.attack.probeBudget; },
        [](RunConfig &rc, std::uint64_t v) {
            rc.attack.probeBudget = v;
        }));
    specs_.push_back(uintKnob(
        "attack.spray_count", 2, 1u << 12, "",
        "attacker allocations sprayed around the victim (heapspray)",
        [](const RunConfig &rc) { return rc.attack.sprayCount; },
        [](RunConfig &rc, std::uint64_t v) {
            rc.attack.sprayCount = v;
        }));
    specs_.push_back(uintKnob(
        "attack.uaf_churn", 1, 1u << 16, "",
        "allocate/free rounds pushing freed chunks through the "
        "quarantine (uaf)",
        [](const RunConfig &rc) { return rc.attack.uafChurn; },
        [](RunConfig &rc, std::uint64_t v) { rc.attack.uafChurn = v; }));
    specs_.push_back(boolKnob(
        "attack.brop_rerandomize",
        "re-randomize the victim layout on every BROP respawn (the "
        "paper's mitigation)",
        [](const RunConfig &rc) { return rc.attack.bropRerandomize; },
        [](RunConfig &rc, bool v) { rc.attack.bropRerandomize = v; }));

    // Defaults are captured from a default RunConfig through each
    // spec's own accessor: the registry cannot disagree with the
    // params structs about what the Table 3 machine is. Namespaces
    // are derived from the key prefixes, never written per knob.
    const RunConfig defaults{};
    for (ParamSpec &spec : specs_) {
        spec.def = spec.read(defaults);
        const std::string prefix = spec.key.substr(0, spec.key.find('.'));
        for (std::size_t n = 0; n < std::size(kNamespaceNames); ++n)
            if (prefix == kNamespaceNames[n])
                spec.ns = 1u << n;
        if (!spec.ns)
            throw std::logic_error(spec.key + " is in no known namespace");
    }
}

const ParamSpec *
ParamRegistry::find(const std::string &key) const
{
    for (const ParamSpec &spec : specs_)
        if (spec.key == key)
            return &spec;
    return nullptr;
}

const ParamSpec *
ParamRegistry::findFlag(const std::string &flag) const
{
    if (flag.empty())
        return nullptr;
    for (const ParamSpec &spec : specs_)
        if (spec.flag == flag)
            return &spec;
    return nullptr;
}

std::optional<ParamValue>
ParamRegistry::parse(const ParamSpec &spec, const std::string &text,
                     std::string &error) const
{
    switch (spec.type) {
    case ParamType::UInt: {
        const auto v = parseU64(text);
        if (!v || *v < spec.minU || *v > spec.maxU) {
            error = spec.key + " expects an integer in [" +
                    std::to_string(spec.minU) + ", " +
                    std::to_string(spec.maxU) + "], got '" + text +
                    "'";
            return std::nullopt;
        }
        return ParamValue{*v};
    }
    case ParamType::Double: {
        const auto v = parseDouble(text);
        if (!v || *v < spec.minD || *v > spec.maxD) {
            error = spec.key + " expects a number in [" +
                    jsonNumber(spec.minD) + ", " +
                    jsonNumber(spec.maxD) + "], got '" + text +
                    "'";
            return std::nullopt;
        }
        return ParamValue{*v};
    }
    case ParamType::Bool: {
        const auto v = parseBool(text);
        if (!v) {
            error = spec.key + " expects true/false, got '" + text +
                    "'";
            return std::nullopt;
        }
        return ParamValue{*v};
    }
    case ParamType::Enum: {
        for (const std::string &choice : spec.choices)
            if (text == choice)
                return ParamValue{text};
        error = spec.key + " expects one of {";
        for (std::size_t i = 0; i < spec.choices.size(); ++i)
            error += (i ? ", " : "") + spec.choices[i];
        error += "}, got '" + text + "'";
        return std::nullopt;
    }
    }
    error = "unreachable";
    return std::nullopt;
}

std::string
ParamRegistry::schemaJson() const
{
    std::ostringstream os;
    os << "{\n  \"schema\": \"califorms-config/v1\",\n"
       << "  \"params\": [\n";
    for (std::size_t i = 0; i < specs_.size(); ++i) {
        const ParamSpec &spec = specs_[i];
        os << "    {\"key\": " << jsonString(spec.key)
           << ", \"type\": \"" << paramTypeName(spec.type) << "\""
           << ", \"default\": ";
        if (spec.type == ParamType::Enum)
            os << jsonString(renderValue(spec.def));
        else
            os << renderValue(spec.def);
        if (spec.type == ParamType::UInt)
            os << ", \"min\": " << spec.minU
               << ", \"max\": " << spec.maxU;
        else if (spec.type == ParamType::Double)
            os << ", \"min\": " << jsonNumber(spec.minD)
               << ", \"max\": " << jsonNumber(spec.maxD);
        if (spec.type == ParamType::Enum) {
            os << ", \"choices\": [";
            for (std::size_t c = 0; c < spec.choices.size(); ++c)
                os << (c ? ", " : "") << jsonString(spec.choices[c]);
            os << "]";
        }
        os << ",\n     \"flag\": "
           << (spec.flag.empty() ? std::string("null")
                                 : jsonString(spec.flag))
           << ", \"doc\": " << jsonString(spec.doc) << "}"
           << (i + 1 < specs_.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    return os.str();
}

} // namespace califorms::config
