/**
 * @file
 * The flag table of `smtavf_cli run`, `campaign` and `protect`. One row
 * per flag gives its name, value kind, validator and help text; each
 * subcommand binds the rows it takes to its option fields, and its
 * cross-flag rules sit beside the rows (options.cc). Flags the
 * subcommands share are one row each.
 *
 * The parse functions are pure: they never print, never exit and never
 * start a simulation, so the fuzz harness (tests/test_cli_fuzz.cc)
 * drives exactly what the CLI runs. A false return leaves a diagnostic
 * naming the flag, which the CLI maps to exit code 2. Numeric values
 * are strict: "12x", "", "-3" and anything out of range are errors,
 * never truncated. `--help` (and `--list`/`--table1` for run) stops the
 * parse where it appears: the rest of the vector is not read and no
 * cross-flag rule applies.
 */

#ifndef SMTAVF_CLI_OPTIONS_HH
#define SMTAVF_CLI_OPTIONS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "protect/explorer.hh"
#include "sim/campaign.hh"
#include "sim/simulator.hh"

namespace smtavf
{

/** What every subcommand's parse reports, and its shared flags. */
struct CliCommon
{
    bool help = false;              ///< --help seen: print cliHelp(), exit 0
    std::vector<std::string> given; ///< flags named, in command-line order

    std::string policyName = "ICOUNT";
    std::uint64_t pratEpoch = 4096; ///< --prat-epoch (PRAT only)
    std::uint64_t pratCap = 0;      ///< --prat-cap, 0 = RAT default
    std::uint64_t instructions = 0; ///< per-run budget, 0 = mix default
    bool csv = false;

    /** True when the command line named @p flag. */
    bool gave(const std::string &flag) const;
};

/** Validated `run` flags (defaults = no flags given). */
struct RunCliOptions : CliCommon
{
    std::string mixName = "4ctx-mix-A";
    std::uint64_t seed = 1;
    unsigned replicas = 1;
    std::uint64_t sample = 0;  ///< --sample cycles, 0 = off
    RunControls controls;      ///< --warmup, --checkpoint-*, --avf-interval
    std::string restorePath;   ///< --restore
    std::string avfIntervalCsv; ///< --avf-interval-csv
    bool iqPartition = false;
    AvfOptions avf;            ///< --no-dead-code and friends
    bool prewarm = true;
    bool json = false;
    bool timelineCsv = false;
    bool list = false;   ///< --list seen: print mixes and policies, exit 0
    bool table1 = false; ///< --table1 seen: print the machine, exit 0
};

/** `campaign --shard I/N`; count 0 = unsharded. */
struct ShardSpec
{
    unsigned index = 0;
    unsigned count = 0;
};

/** Validated `campaign` flags (defaults = no flags given). */
struct CampaignCliOptions : CliCommon
{
    std::vector<std::string> mixNames; ///< --mix, repeatable; empty = all
    unsigned contexts = 0;             ///< --contexts, 0 = any
    std::uint64_t masterSeed = 0;      ///< used when gave("--master-seed")
    std::uint64_t warmup = 0;
    unsigned jobs = 0;
    ShardSpec shard;
    CampaignOptions campaign; ///< retries, journal, isolation, limits, ...
};

/** Validated `protect` flags (defaults = no flags given). */
struct ProtectCliOptions : CliCommon
{
    std::string mixName = "4ctx-mix-A";
    std::uint64_t seed = 1;
    std::string schemeName; ///< --scheme (uniform), "" = none given
    std::string assignSpec; ///< --assign specs, comma-joined
    std::uint64_t scrubInterval = 10000;
    /** --explore mode: "" (one run), "prefix" or "beam". */
    std::string explore;
    /**
     * The search --explore runs: ProtectionExplorer::prefixSweep() for
     * "prefix", the --beam-width/--generations/--budget/--depth search
     * for "beam". --warmup lives here for every mode.
     */
    BeamOptions beam;
    unsigned jobs = 0;
    bool json = false;
};

/**
 * Parse the arguments of `smtavf_cli run` (everything after the
 * subcommand word, or after the program name for the default mode). On
 * failure returns false with a diagnostic in @p err; @p out may be
 * partially written.
 */
bool parseRunCli(const std::vector<std::string> &args, RunCliOptions &out,
                 std::string &err);

/** parseRunCli for `smtavf_cli campaign`. */
bool parseCampaignCli(const std::vector<std::string> &args,
                      CampaignCliOptions &out, std::string &err);

/** parseRunCli for `smtavf_cli protect`. */
bool parseProtectCli(const std::vector<std::string> &args,
                     ProtectCliOptions &out, std::string &err);

/** The `--help` text, generated from the flag table. */
std::string cliHelp();

/** Every flag the table holds, in table order. */
std::vector<std::string> cliFlags();

} // namespace smtavf

#endif // SMTAVF_CLI_OPTIONS_HH
