/**
 * @file cli.hh
 * The unified `califorms` command line driver. One entrypoint shared by
 * CI, the benches, and users, with five subcommands:
 *
 *   run     execute a workload through the full machine model
 *   attack  replay the Section 7.3 security scenarios
 *   sweep   iterate layout policies over a benchmark (policy harness)
 *   trace   generate and replay plain-text sim traces
 *   fleet   replay multi-tenant streams (serving engine)
 *   config  inspect the typed parameter registry and resolved configs
 *
 * Every subcommand accepts `--set key=value` (repeatable) and
 * `--config FILE` over the src/config ParamRegistry; the historical
 * flags (--levels, --l2-kb, --policy, ...) are registry aliases of
 * their dotted keys, parsed by config::parseCliArg. Each cmd* function
 * receives argv positioned after the subcommand word and returns a
 * process exit code.
 */

#ifndef CALIFORMS_TOOLS_CLI_HH
#define CALIFORMS_TOOLS_CLI_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "config/config.hh"
#include "layout/policy.hh"
#include "sim/params.hh"
#include "util/parse.hh"

namespace califorms::cli
{

int cmdRun(int argc, char **argv);
int cmdAttack(int argc, char **argv);
int cmdSweep(int argc, char **argv);
int cmdTrace(int argc, char **argv);
int cmdFleet(int argc, char **argv);
int cmdConfig(int argc, char **argv);

/** Parse a policy name (none|opportunistic|full|intelligent|fixed);
 *  std::nullopt if unknown. Delegates to parsePolicyName — the same
 *  vocabulary the layout.policy registry knob accepts. */
std::optional<InsertionPolicy> parsePolicy(const std::string &name);

/** Fetch the value after a "--flag value" pair; advances @p i. Exits
 *  with an error message if the value is missing. */
const char *flagValue(int argc, char **argv, int &i);

/** cfg.set(key, text) with the uniform "<prog>: <flag>: <error>"
 *  diagnostic; false when the value was rejected. */
bool setOrReport(config::Config &cfg, const char *prog,
                 const std::string &flag, const std::string &key,
                 const std::string &text);

/** @p text as an integer in [@p lo, @p hi], or std::nullopt after the
 *  uniform "<prog>: <flag> expects an integer in [lo, hi], got
 *  '<text>'" diagnostic. */
std::optional<unsigned> countOrReport(const char *prog,
                                      const std::string &flag,
                                      const std::string &text,
                                      unsigned lo, unsigned hi);

} // namespace califorms::cli

#endif // CALIFORMS_TOOLS_CLI_HH
