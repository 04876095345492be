/**
 * @file
 * Adversarial flag vectors against the `run` and `campaign` parsers
 * (cli/options.hh), the functions smtavf_cli calls before any simulation
 * state exists; tests/test_explorer_fuzz.cc does the same for `protect`.
 * A false return is what the CLI maps to exit code 2, and it must carry
 * a diagnostic naming the flag.
 *
 * Directed cases pin every numeric flag's malformed, missing and
 * out-of-range values and one reject per cross-flag rule; a seeded soup
 * of 5000 vectors per parser checks that whatever is accepted obeys the
 * rules. The help test proves every table row reaches `--help`.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "base/rng.hh"
#include "cli/options.hh"
#include "sim/experiment.hh"

namespace smtavf
{
namespace
{

using Args = std::vector<std::string>;

template <class O>
bool
parseAny(const Args &args, O &out, std::string &err)
{
    if constexpr (std::is_same_v<O, RunCliOptions>)
        return parseRunCli(args, out, err);
    else
        return parseCampaignCli(args, out, err);
}

/** Parse expecting rejection; the diagnostic must name the problem. */
template <class O>
void
expectReject(const Args &args, const std::string &err_substr)
{
    O out;
    std::string err;
    EXPECT_FALSE(parseAny(args, out, err)) << "accepted bad args";
    EXPECT_NE(err.find(err_substr), std::string::npos)
        << "diagnostic '" << err << "' does not mention '" << err_substr
        << "'";
}

template <class O>
O
expectAccept(const Args &args)
{
    O out;
    std::string err;
    EXPECT_TRUE(parseAny(args, out, err)) << err;
    EXPECT_TRUE(err.empty()) << "diagnostic on success: " << err;
    return out;
}

const auto runReject = expectReject<RunCliOptions>;
const auto runAccept = expectAccept<RunCliOptions>;
const auto campaignReject = expectReject<CampaignCliOptions>;
const auto campaignAccept = expectAccept<CampaignCliOptions>;

const char *const kMalformed[] = {"",   "x",  "12x", "-3", "3.5",
                                  "0x10", " 4", "+4", "4 ",
                                  "99999999999999999999999"};

// --- run -------------------------------------------------------------------

const char *const kRunNumeric[] = {
    "--instructions", "--seed", "--warmup", "--replicas", "--sample",
    "--checkpoint-at", "--avf-interval", "--prat-epoch", "--prat-cap"};

TEST(RunCliFuzz, MalformedNumbersAreRejectedNotTruncated)
{
    for (const char *bad : kMalformed) {
        for (const char *flag : kRunNumeric) {
            SCOPED_TRACE(std::string(flag) + " '" + bad + "'");
            runReject({"--policy", "PRAT", flag, bad}, flag);
        }
    }
}

TEST(RunCliFuzz, MissingValuesAreRejected)
{
    for (const char *flag : kRunNumeric) {
        SCOPED_TRACE(flag);
        runReject({"--policy", "PRAT", flag}, flag);
    }
    for (const char *flag : {"--mix", "--policy", "--checkpoint-out",
                             "--restore", "--avf-interval-csv"}) {
        SCOPED_TRACE(flag);
        runReject({flag}, flag);
    }
}

TEST(RunCliFuzz, ZeroAndRangeViolationsAreRejected)
{
    runReject({"--replicas", "0"}, "--replicas");
    runReject({"--replicas", "4294967296"}, "--replicas");
    runReject({"--checkpoint-at", "0"}, "--checkpoint-at");
    runReject({"--avf-interval", "0"}, "--avf-interval");
    runReject({"--policy", "PRAT", "--prat-epoch", "0"}, "--prat-epoch");
    runReject({"--policy", "PRAT", "--prat-epoch", "1073741825"},
              "--prat-epoch");
    runReject({"--policy", "PRAT", "--prat-cap", "1048577"}, "--prat-cap");
    // Inclusive ceilings parse.
    auto top = runAccept({"--replicas", "4294967295", "--seed",
                          "18446744073709551615"});
    EXPECT_EQ(top.replicas, 4294967295u);
    EXPECT_EQ(top.seed, 18446744073709551615u);
    auto prat = runAccept({"--policy", "PRAT", "--prat-epoch", "1073741824",
                           "--prat-cap", "1048576"});
    EXPECT_EQ(prat.pratEpoch, std::uint64_t{1} << 30);
    EXPECT_EQ(prat.pratCap, std::uint64_t{1} << 20);
}

// One reject per rule the CLI enforces before a run starts.
TEST(RunCliFuzz, CrossFlagRulesAreEnforced)
{
    runReject({"--prat-epoch", "512"}, "--policy PRAT");
    runReject({"--policy", "RAT", "--prat-cap", "12"}, "--policy PRAT");
    runReject({"--policy", "bogus"}, "--policy");
    runReject({"--checkpoint-out", "c.ckpt"}, "--checkpoint-at");
    runReject({"--checkpoint-at", "100"}, "--checkpoint-out");
    runReject({"--restore", "c.ckpt", "--warmup", "10"}, "--restore");
    runReject({"--avf-interval-csv", "f.csv"}, "--avf-interval");
    // --replicas prints its own summary: every flag it would drop or
    // contradict is refused, in any order.
    for (const Args &extra :
         {Args{"--warmup", "10"}, Args{"--checkpoint-at", "5",
                                       "--checkpoint-out", "c.ckpt"},
          Args{"--restore", "c.ckpt"}, Args{"--avf-interval", "100"},
          Args{"--csv"}, Args{"--json"}, Args{"--timeline-csv"}}) {
        SCOPED_TRACE(extra[0]);
        Args args = {"--replicas", "2"};
        args.insert(args.end(), extra.begin(), extra.end());
        runReject(args, "--replicas");
        Args reversed = extra;
        reversed.insert(reversed.end(), {"--replicas", "2"});
        runReject(reversed, "--replicas");
    }
    runReject({"--frobnicate"}, "--frobnicate");
    runReject({"--mix=2ctx-mix-A"}, "--mix=2ctx-mix-A");
    runReject({"run"}, "run"); // the subcommand word is not re-eaten
    // --replicas 1 is a plain run and keeps every output flag.
    auto one = runAccept({"--replicas", "1", "--json", "--timeline-csv"});
    EXPECT_TRUE(one.json);
}

TEST(RunCliFuzz, StopFlagsTakeEffectWhereTheyAppear)
{
    // Flags before --help are still parsed; nothing after it is.
    runReject({"--seed", "x", "--help"}, "--seed");
    EXPECT_TRUE(runAccept({"--help", "--seed", "x"}).help);
    EXPECT_TRUE(runAccept({"-h"}).help);
    auto list = runAccept({"--list", "--frobnicate"});
    EXPECT_TRUE(list.list);
    EXPECT_FALSE(list.help);
    auto table = runAccept({"--table1", "--help"});
    EXPECT_TRUE(table.table1);
    EXPECT_FALSE(table.help);
    // A stop flag skips the cross-flag rules too.
    EXPECT_TRUE(runAccept({"--replicas", "2", "--json", "--help"}).help);
}

TEST(RunCliFuzz, WellFormedVectorsParse)
{
    auto o = runAccept({"--mix", "2ctx-mix-A", "--policy", "FLUSH",
                        "--instructions", "40000", "--seed", "9",
                        "--warmup", "100", "--checkpoint-at", "500",
                        "--checkpoint-out", "c.ckpt", "--avf-interval",
                        "1000", "--avf-interval-csv", "-", "--sample", "50",
                        "--iq-partition", "--no-dead-code", "--no-wrong-path",
                        "--per-line-cache", "--no-prewarm", "--json",
                        "--timeline-csv"});
    EXPECT_EQ(o.mixName, "2ctx-mix-A");
    EXPECT_EQ(o.policyName, "FLUSH");
    EXPECT_EQ(o.instructions, 40000u);
    EXPECT_EQ(o.seed, 9u);
    EXPECT_EQ(o.controls.warmup, 100u);
    EXPECT_EQ(o.controls.checkpointAt, 500u);
    EXPECT_EQ(o.controls.checkpointOut, "c.ckpt");
    EXPECT_EQ(o.controls.avfInterval, 1000u);
    EXPECT_EQ(o.avfIntervalCsv, "-");
    EXPECT_EQ(o.sample, 50u);
    EXPECT_TRUE(o.iqPartition);
    EXPECT_FALSE(o.avf.deadCodeAnalysis);
    EXPECT_FALSE(o.avf.wrongPathModel);
    EXPECT_FALSE(o.avf.perByteCacheAvf);
    EXPECT_FALSE(o.prewarm);
    EXPECT_TRUE(o.json);
    EXPECT_TRUE(o.timelineCsv);

    // Defaults when no flag is given; the last of a repeated flag wins.
    auto d = runAccept({});
    EXPECT_EQ(d.mixName, "4ctx-mix-A");
    EXPECT_EQ(d.policyName, "ICOUNT");
    EXPECT_EQ(d.seed, 1u);
    EXPECT_EQ(d.replicas, 1u);
    EXPECT_EQ(d.pratEpoch, 4096u);
    EXPECT_TRUE(d.prewarm);
    EXPECT_TRUE(d.avf.deadCodeAnalysis);
    EXPECT_EQ(runAccept({"--seed", "3", "--seed", "4"}).seed, 4u);
}

TEST(RunCliFuzz, RandomTokenSoupObeysTheRules)
{
    const std::vector<std::string> tokens = {
        "--mix", "--policy", "--instructions", "--seed", "--replicas",
        "--sample", "--warmup", "--checkpoint-at", "--checkpoint-out",
        "--restore", "--avf-interval", "--avf-interval-csv",
        "--iq-partition", "--no-dead-code", "--no-wrong-path",
        "--per-line-cache", "--no-prewarm", "--csv", "--json",
        "--timeline-csv", "--prat-epoch", "--prat-cap", "--help", "--list",
        "--table1", "-h", "--frobnicate", "2ctx-mix-A", "PRAT", "ICOUNT",
        "bogus", "0", "1", "2", "100", "4096", "1073741825", "1048577",
        "4294967296", "-1", "12x", "", "c.ckpt", "run"};

    Rng rng(0xc11u);
    unsigned accepted = 0, rejected = 0;
    for (int iter = 0; iter < 5000; ++iter) {
        Args args;
        auto len = rng.uniform(8);
        for (std::uint64_t i = 0; i < len; ++i)
            args.push_back(tokens[rng.uniform(tokens.size())]);

        RunCliOptions o;
        std::string err;
        if (!parseRunCli(args, o, err)) {
            ++rejected;
            EXPECT_FALSE(err.empty()) << "rejected silently: iter " << iter;
            continue;
        }
        ++accepted;
        if (o.help || o.list || o.table1)
            continue;
        SCOPED_TRACE("iter " + std::to_string(iter));
        const RunControls &c = o.controls;
        if (o.replicas > 1) {
            EXPECT_EQ(c.warmup, 0u);
            EXPECT_EQ(c.checkpointAt, 0u);
            EXPECT_TRUE(o.restorePath.empty());
            EXPECT_EQ(c.avfInterval, 0u);
            EXPECT_FALSE(o.csv || o.json || o.timelineCsv);
        }
        EXPECT_EQ(c.checkpointAt > 0, !c.checkpointOut.empty());
        if (!o.restorePath.empty()) {
            EXPECT_EQ(c.warmup, 0u);
        }
        if (!o.avfIntervalCsv.empty()) {
            EXPECT_GT(c.avfInterval, 0u);
        }
        FetchPolicyKind kind;
        ASSERT_TRUE(parseFetchPolicy(o.policyName, kind));
        if (o.gave("--prat-epoch") || o.gave("--prat-cap")) {
            EXPECT_EQ(kind, FetchPolicyKind::PRat);
        }
        EXPECT_GE(o.replicas, 1u);
        EXPECT_GE(o.pratEpoch, 1u);
        EXPECT_LE(o.pratEpoch, std::uint64_t{1} << 30);
        EXPECT_LE(o.pratCap, std::uint64_t{1} << 20);
    }
    EXPECT_GT(accepted, 100u);
    EXPECT_GT(rejected, 1000u);
}

// --- campaign --------------------------------------------------------------

const char *const kCampaignNumeric[] = {
    "--jobs", "--contexts", "--instructions", "--master-seed", "--retries",
    "--runs-per-child", "--child-cpu", "--child-mem", "--cancel-check",
    "--warmup", "--prat-epoch", "--prat-cap"};
const char *const kCampaignSeconds[] = {"--timeout", "--hard-timeout",
                                        "--backoff"};

TEST(CampaignCliFuzz, MalformedNumbersAreRejectedNotTruncated)
{
    for (const char *bad : kMalformed) {
        for (const char *flag : kCampaignNumeric) {
            SCOPED_TRACE(std::string(flag) + " '" + bad + "'");
            campaignReject({"--policy", "PRAT", flag, bad}, flag);
        }
    }
    // Durations are decimal seconds, finite and non-negative.
    for (const char *bad : {"", "x", "1x", "-1", "-0.5", "inf", "-inf",
                            "infinity", "nan", "1e999"}) {
        for (const char *flag : kCampaignSeconds) {
            SCOPED_TRACE(std::string(flag) + " '" + bad + "'");
            campaignReject({"--isolate", "process", flag, bad}, flag);
        }
    }
    auto ok = campaignAccept({"--isolate", "process", "--hard-timeout",
                              "1e300", "--timeout", "0.5", "--backoff",
                              "0"});
    EXPECT_EQ(ok.campaign.hardTimeoutSeconds, 1e300);
    EXPECT_EQ(ok.campaign.softTimeoutSeconds, 0.5);
}

TEST(CampaignCliFuzz, MissingValuesAreRejected)
{
    for (const char *flag : kCampaignNumeric) {
        SCOPED_TRACE(flag);
        campaignReject({"--policy", "PRAT", flag}, flag);
    }
    for (const char *flag :
         {"--mix", "--policy", "--journal", "--timeout", "--hard-timeout",
          "--backoff", "--shard", "--isolate", "--checkpoint-dir"}) {
        SCOPED_TRACE(flag);
        campaignReject({flag}, flag);
    }
}

TEST(CampaignCliFuzz, ZeroAndRangeViolationsAreRejected)
{
    campaignReject({"--jobs", "0"}, "--jobs");
    campaignReject({"--jobs", "4294967297"}, "--jobs");
    campaignReject({"--contexts", "4294967298"}, "--contexts");
    campaignReject({"--retries", "4294967296"}, "--retries");
    campaignReject({"--isolate", "process", "--runs-per-child", "0"},
                   "--runs-per-child");
    campaignReject({"--isolate", "process", "--runs-per-child",
                    "4294967296"},
                   "--runs-per-child");
    // 2^44 MiB is 2^64 bytes: one past what the byte count can hold.
    campaignReject({"--isolate", "process", "--child-mem", "17592186044416"},
                   "--child-mem");
    auto mem = campaignAccept(
        {"--isolate", "process", "--child-mem", "17592186044415"});
    EXPECT_EQ(mem.campaign.childMemoryBytes, 17592186044415ull << 20);
    campaignReject({"--policy", "PRAT", "--prat-epoch", "0"}, "--prat-epoch");
    campaignReject({"--policy", "PRAT", "--prat-cap", "1048577"},
                   "--prat-cap");
}

TEST(CampaignCliFuzz, ShardIsParsedStrictly)
{
    for (const char *bad :
         {"0/4x", "0/4/7", " 0/4", "+0/4", "0/+4", "0/ 4", "0/99999999999",
          "4/4", "5/4", "0/0", "x", "0", "/4", "0/", "-1/4", "1/4294967296",
          ""}) {
        SCOPED_TRACE(std::string("'") + bad + "'");
        campaignReject({"--shard", bad}, "--shard");
    }
    auto ok = campaignAccept({"--shard", "3/4294967295"});
    EXPECT_EQ(ok.shard.index, 3u);
    EXPECT_EQ(ok.shard.count, 4294967295u);
    EXPECT_EQ(campaignAccept({}).shard.count, 0u); // unsharded
}

// One reject per rule the CLI enforces before the pool starts.
TEST(CampaignCliFuzz, CrossFlagRulesAreEnforced)
{
    campaignReject({"--resume"}, "--journal");
    campaignReject({"--hard-timeout", "5"}, "--isolate process");
    campaignReject({"--child-cpu", "5"}, "--isolate process");
    campaignReject({"--child-mem", "500"}, "--isolate process");
    campaignReject({"--runs-per-child", "2"}, "--isolate process");
    campaignReject({"--isolate", "process", "--cancel-check", "100"},
                   "--cancel-check");
    campaignReject({"--shared-warmup"}, "--warmup");
    campaignReject({"--checkpoint-dir", "d"}, "--checkpoint-dir");
    campaignReject({"--checkpoint-dir", "d", "--shared-warmup", "--warmup",
                    "100"},
                   "--checkpoint-dir");
    campaignReject({"--prat-epoch", "512"}, "--policy PRAT");
    campaignReject({"--policy", "bogus"}, "--policy");
    campaignReject({"--contexts", "3"}, "--contexts");
    campaignReject({"--isolate", "bogus"}, "--isolate");
    campaignReject({"--frobnicate"}, "--frobnicate");
    campaignReject({"campaign"}, "campaign");
    // Order never matters: rules run after the whole vector.
    campaignReject({"--cancel-check", "100", "--isolate", "process"},
                   "--cancel-check");
    campaignReject({"--resume", "--journal", ""}, "--journal");
}

TEST(CampaignCliFuzz, StopFlagsTakeEffectWhereTheyAppear)
{
    campaignReject({"--jobs", "x", "--help"}, "--jobs");
    EXPECT_TRUE(campaignAccept({"--help", "--jobs", "x"}).help);
    EXPECT_TRUE(campaignAccept({"--resume", "-h"}).help);
    campaignReject({"--list"}, "--list"); // a run-only flag
}

TEST(CampaignCliFuzz, WellFormedVectorsParse)
{
    auto o = campaignAccept(
        {"--mix", "2ctx-mix-A", "--mix", "4ctx-mem-A", "--policy", "all",
         "--prat-epoch", "512", "--instructions", "2000", "--master-seed",
         "7", "--jobs", "3", "--retries", "2", "--journal", "c.journal",
         "--resume", "--timeout", "9.5", "--shard", "1/3", "--isolate",
         "PROCESS", "--runs-per-child", "4", "--no-reuse", "--hard-timeout",
         "100", "--child-cpu", "60", "--child-mem", "512", "--backoff",
         "0.25", "--warmup", "1000", "--shared-warmup", "--checkpoint-dir",
         "ck", "--csv"});
    EXPECT_EQ(o.mixNames, (std::vector<std::string>{"2ctx-mix-A",
                                                    "4ctx-mem-A"}));
    EXPECT_EQ(o.policyName, "all");
    EXPECT_EQ(o.pratEpoch, 512u);
    EXPECT_EQ(o.instructions, 2000u);
    EXPECT_TRUE(o.gave("--master-seed"));
    EXPECT_EQ(o.masterSeed, 7u);
    EXPECT_EQ(o.jobs, 3u);
    const CampaignOptions &c = o.campaign;
    EXPECT_EQ(c.retries, 2u);
    EXPECT_EQ(c.journalPath, "c.journal");
    EXPECT_TRUE(c.resume);
    EXPECT_EQ(c.softTimeoutSeconds, 9.5);
    EXPECT_EQ(o.shard.index, 1u);
    EXPECT_EQ(o.shard.count, 3u);
    EXPECT_EQ(c.isolate, IsolateMode::Process);
    EXPECT_EQ(c.runsPerChild, 4u);
    EXPECT_FALSE(c.reuseWorkers);
    EXPECT_EQ(c.hardTimeoutSeconds, 100.0);
    EXPECT_EQ(c.childCpuSeconds, 60u);
    EXPECT_EQ(c.childMemoryBytes, 512ull << 20);
    EXPECT_EQ(c.backoffSeconds, 0.25);
    EXPECT_EQ(o.warmup, 1000u);
    EXPECT_TRUE(c.sharedWarmup);
    EXPECT_EQ(c.checkpointDir, "ck");
    EXPECT_TRUE(o.csv);

    auto d = campaignAccept({});
    EXPECT_TRUE(d.mixNames.empty());
    EXPECT_EQ(d.policyName, "ICOUNT");
    EXPECT_EQ(d.jobs, 0u);
    EXPECT_FALSE(d.gave("--master-seed"));
    EXPECT_EQ(d.campaign.retries, 1u);
    EXPECT_TRUE(d.campaign.reuseWorkers);
    EXPECT_EQ(d.campaign.isolate, IsolateMode::Thread);
    EXPECT_EQ(campaignAccept({"--cancel-check", "64"}).campaign
                  .cancelCheckCycles,
              64u);
}

TEST(CampaignCliFuzz, RandomTokenSoupObeysTheRules)
{
    const std::vector<std::string> tokens = {
        "--jobs", "--mix", "--contexts", "--policy", "--prat-epoch",
        "--prat-cap", "--instructions", "--master-seed", "--retries",
        "--journal", "--resume", "--timeout", "--isolate",
        "--runs-per-child", "--no-reuse", "--hard-timeout", "--child-cpu",
        "--child-mem", "--backoff", "--cancel-check", "--warmup",
        "--shared-warmup", "--checkpoint-dir", "--csv", "--shard", "--help",
        "--json", "process", "thread", "all", "PRAT", "ICOUNT", "bogus",
        "2ctx-mix-A", "0", "1", "2", "3", "100", "0.5", "inf", "1e300",
        "-1", "12x", "", "0/4", "3/4", "4/4", "0/4x", "j.journal", "ck"};

    Rng rng(0xca3u);
    unsigned accepted = 0, rejected = 0;
    for (int iter = 0; iter < 5000; ++iter) {
        Args args;
        auto len = rng.uniform(9);
        for (std::uint64_t i = 0; i < len; ++i)
            args.push_back(tokens[rng.uniform(tokens.size())]);

        CampaignCliOptions o;
        std::string err;
        if (!parseCampaignCli(args, o, err)) {
            ++rejected;
            EXPECT_FALSE(err.empty()) << "rejected silently: iter " << iter;
            continue;
        }
        ++accepted;
        if (o.help)
            continue;
        SCOPED_TRACE("iter " + std::to_string(iter));
        const CampaignOptions &c = o.campaign;
        const bool process = c.isolate == IsolateMode::Process;
        if (c.resume) {
            EXPECT_FALSE(c.journalPath.empty());
        }
        if (!process) {
            EXPECT_EQ(c.runsPerChild, 1u);
            EXPECT_EQ(c.hardTimeoutSeconds, 0.0);
            EXPECT_EQ(c.childCpuSeconds, 0u);
            EXPECT_EQ(c.childMemoryBytes, 0u);
        } else {
            EXPECT_EQ(c.cancelCheckCycles, 0u);
        }
        if (c.sharedWarmup) {
            EXPECT_GT(o.warmup, 0u);
        }
        if (!c.checkpointDir.empty()) {
            EXPECT_TRUE(c.sharedWarmup && process);
        }
        const bool all = o.policyName == "all" || o.policyName == "ALL";
        FetchPolicyKind kind = FetchPolicyKind::Icount;
        EXPECT_TRUE(all || parseFetchPolicy(o.policyName, kind));
        if (o.gave("--prat-epoch") || o.gave("--prat-cap")) {
            EXPECT_TRUE(all || kind == FetchPolicyKind::PRat);
        }
        if (o.shard.count > 0) {
            EXPECT_LT(o.shard.index, o.shard.count);
        }
        for (double s : {c.softTimeoutSeconds, c.hardTimeoutSeconds,
                         c.backoffSeconds}) {
            EXPECT_TRUE(std::isfinite(s) && s >= 0.0);
        }
        EXPECT_GE(c.runsPerChild, 1u);
    }
    EXPECT_GT(accepted, 100u);
    EXPECT_GT(rejected, 1000u);
}

// --- the generated help -----------------------------------------------------

TEST(CliHelp, EveryTableRowAppearsInHelp)
{
    const std::string help = cliHelp();
    const auto flags = cliFlags();
    EXPECT_GT(flags.size(), 50u);
    for (const auto &flag : flags) {
        SCOPED_TRACE(flag);
        EXPECT_NE(help.find("\n  " + flag), std::string::npos);
        // ...and some subcommand takes it.
        RunCliOptions r;
        CampaignCliOptions c;
        ProtectCliOptions p;
        std::string er, ec, ep;
        const Args args = {flag};
        parseRunCli(args, r, er);
        parseCampaignCli(args, c, ec);
        parseProtectCli(args, p, ep);
        const std::string unknown = "option: " + flag;
        EXPECT_TRUE(er.find(unknown) == std::string::npos ||
                    ec.find(unknown) == std::string::npos ||
                    ep.find(unknown) == std::string::npos)
            << "no subcommand takes " << flag;
    }
}

} // namespace
} // namespace smtavf
